"""Truncated and periodic corrector solves.

The corrector w_p answers: given a mean gradient p, what microscale
perturbation makes p + grad(w) a valid flux field across the membranes?  On
the truncated deformed cube it is computed with a small zero-order
regularization delta and zero Dirichlet data; the periodic single-cell solve
(identity map only) serves as the exact-geometry oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .fem import (
    BilinearFormSpec,
    FemSolution,
    apply_tensor,
    assemble,
    edge_jump_energy,
    gradient_load,
    identity_field,
    jump_element_matrices,
    p1_gradient,
    solve,
)
from .geometry import DeformationMap, InterfaceSpec
from .meshing import (
    PLUS,
    MembraneMesh,
    build_cell_mesh,
    build_truncated_mesh,
    first_coincident,
    triangle_centroids,
)


@dataclass
class CorrectorConfig:
    delta: float = 1e-3
    n: int = 8
    m: int = 4
    h: float = 0.05
    interface: InterfaceSpec = field(default_factory=InterfaceSpec)
    membranes: bool = True

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"delta must be in (0, 1], got {self.delta}")
        if not 1 <= self.m <= self.n - 1:
            raise ConfigError(f"m must satisfy 1 <= m <= n-1, got m={self.m} n={self.n}")


@dataclass
class CorrectorSolution:
    """A corrector w and its window sample, reduced from the triangles and
    interface edges of the window's cells only.  ``sol`` carries the
    conductivity per prototype it was solved with (``proto_tensor``); the
    energy per cell (``cell_energy``) is computed on first use."""

    sol: FemSolution
    p: np.ndarray  # (2,) the mean gradient it was solved for
    window_sides: np.ndarray  # (window cells, side MINUS/PLUS, 2) int of A (p + grad w)
    window_energy: np.ndarray  # (loads,) window-energy form with each solve of its mesh
    mass_weight: float  # the regularization delta of the form it solves

    @property
    def mesh(self) -> MembraneMesh:
        return self.sol.mesh

    @functools.cached_property
    def cell_energy(self) -> np.ndarray:
        """(nc,) reference-configuration energy per cell: gradient, delta-mass
        and interface jump of the same nodal values at lattice coordinates,
        where each triangle has its prototype's geometry; computed on first
        use."""
        mesh, values = self.mesh, self.sol.values
        u = values[mesh.triangles]
        ref = mesh.with_kinds(mesh.cell_kind, mesh.ref_vertices)
        areas, gref = ref.areas, p1_gradient(ref, values)
        e_grad = areas * (gref[:, 0] ** 2 + gref[:, 1] ** 2)
        uc2 = (u**2).sum(axis=1) + u.sum(axis=1) ** 2
        e_mass = self.mass_weight * areas * uc2 / 12.0  # exact P1 mass per triangle
        jump2 = edge_jump_energy(mesh.ref_vertices, mesh.interface_edges, values)
        nc = len(mesh.cells)
        return (np.bincount(mesh.tri_cell_index, weights=e_grad + e_mass, minlength=nc)
                + np.bincount(mesh.edge_cell_index, weights=jump2, minlength=nc))

    def window_flux(self) -> np.ndarray:
        """Average of F_k^+ + F_k^- over the cells of the window, per unit
        reference cell."""
        sides = self.window_sides
        return (sides[:, 1] + sides[:, 0]).sum(axis=0) / len(sides)


def window_mask(cells: np.ndarray, m: int) -> np.ndarray:
    """Mask of the lattice cells of Q_m + center, the center being that of
    all ``cells`` (cell centers within Chebyshev distance m - 1/2)."""
    c = cells.mean(axis=0) + 0.5
    return np.abs(cells + 0.5 - c).max(axis=1) <= m - 0.5 + 1e-9


def flux_density(sol: FemSolution, p: np.ndarray, tris) -> tuple:
    """p + grad w and A (p + grad w), physical configuration, on the
    triangles ``tris`` (an index array or a slice) of the solution's mesh, A
    its ``proto_tensor``."""
    mesh = sol.mesh
    g = p1_gradient(mesh, sol.values, tris) + p
    return g, apply_tensor(np.take(sol.proto_tensor, mesh.tri_prototype[tris], axis=0), g)


def side_sums(mesh: MembraneMesh, tris, cell: np.ndarray, count: int,
              flux: np.ndarray) -> np.ndarray:
    """(count, side MINUS/PLUS, 2) sums of |T| ``flux`` over the triangles
    ``tris`` (an index array or a slice; rows of ``flux``), binned by side
    and by ``cell``, each cell's row of the result, each bin summed in
    triangle order."""
    key = 2 * cell[mesh.tri_cell_index[tris]] + (mesh.tri_region[tris] == PLUS)
    areas = np.take(mesh.proto_areas, mesh.tri_prototype[tris])
    return np.stack([
        np.bincount(key, weights=areas * f, minlength=2 * count).reshape(count, 2) for f in flux.T
    ], axis=-1)


def _corrector_solutions(
    sols: list, loads: list, inside: np.ndarray, form: BilinearFormSpec
) -> list[CorrectorSolution]:
    """The solves of one mesh, one per mean gradient of ``loads``, each
    carrying the conductivity per prototype it was solved with, with their
    physical fluxes per window cell and window-energy form over the cells of
    the mask ``inside``: only the window's triangles and interface edges are
    read."""
    mesh = sols[0].mesh
    tri = np.flatnonzero(inside[mesh.tri_cell_index])
    areas = np.take(mesh.proto_areas, mesh.tri_prototype[tri])
    grads, fluxes = zip(*[flux_density(sol, p, tri) for sol, p in zip(sols, loads)])

    # window mean per cell of int g_i . A g_j plus the weighted jump form of
    # (w_i, w_j), physical configuration, with g_i = p_i + grad w_i, summed
    # over the triangles and interface edges of the window's cells
    edges = mesh.interface_edges[inside[mesh.edge_cell_index]]
    jump = form.jump_weight * jump_element_matrices(mesh.vertices, edges)
    ends = [sol.values[edges] for sol in sols]
    energy = np.zeros((len(sols), len(sols)))
    for i, j in zip(*np.triu_indices(len(sols))):
        gi, fj = grads[i], fluxes[j]
        e_tri = areas @ (gi[:, 0] * fj[:, 0] + gi[:, 1] * fj[:, 1])
        e_jump = np.einsum("ei,eij,ej->", ends[i], jump, ends[j])
        energy[i, j] = energy[j, i] = (e_tri + e_jump) / inside.sum()

    rank = np.cumsum(inside) - 1  # each window cell's row among them
    return [
        CorrectorSolution(
            sol=sol, p=p, window_sides=side_sums(mesh, tri, rank, int(inside.sum()), Ag),
            window_energy=row, mass_weight=form.mass_weight,
        )
        for sol, p, Ag, row in zip(sols, loads, fluxes, energy)
    ]


def solve_truncated(
    cfg: CorrectorConfig, dmap: DeformationMap, loads, conductivity=identity_field, center=(0, 0)
) -> list[CorrectorSolution]:
    """Regularized correctors on one realization of the deformed truncated
    cube: jump weight 1, mass weight delta, zero Dirichlet data and, for each
    mean gradient p in ``loads``, the load -int A p . grad(phi).  The mesh and
    the matrix are built once and shared by every load; each window is
    Q_m + center."""
    cell = build_cell_mesh(cfg.interface, cfg.h)
    mesh = build_truncated_mesh(cell, dmap, cfg.n, center=center, membranes=cfg.membranes)
    form = BilinearFormSpec(conductivity=conductivity, jump_weight=1.0, mass_weight=cfg.delta)
    system = assemble(mesh, form)
    loads = [np.asarray(p, dtype=float) for p in loads]
    proto_tensor = system.proto_tensor
    sols = [
        solve(replace(system, load=system.load + gradient_load(system.mesh, proto_tensor, p)))
        for p in loads
    ]
    del system  # and its solver's factorization, before the post-processing
    sols = [replace(sol, proto_tensor=proto_tensor) for sol in sols]
    return _corrector_solutions(sols, loads, window_mask(mesh.cells, cfg.m), form)


def periodic_representatives(mesh: MembraneMesh) -> np.ndarray:
    """The node each node of a unit-cell mesh is identified with: a boundary
    node with a coordinate 1 maps to the boundary node at its folded position
    (each such coordinate set to 0), every other node to itself.  Of the
    nodes coincident after folding, the one already at the folded position
    owns the group."""
    canon = np.arange(mesh.num_vertices)
    bn = mesh.boundary_nodes
    pos = mesh.vertices[bn]
    folded = np.where(pos == 1.0, 0.0, pos)
    order = np.argsort((folded != pos).any(axis=1), kind="stable")  # unmoved nodes first
    nodes = bn[order]
    canon[nodes] = nodes[first_coincident(folded[order])]
    return canon


def periodic_cell_solve(
    p, spec: InterfaceSpec, conductivity=identity_field, h: float = 0.05
) -> CorrectorSolution:
    """Single-cell corrector with periodic identification of opposite
    boundary nodes, jump weight 1, no regularization, PLUS-mean-zero gauge.
    Identity deformation only."""
    p = np.asarray(p, dtype=float)
    mesh = build_cell_mesh(spec, h)
    form = BilinearFormSpec(conductivity=conductivity, jump_weight=1.0, mass_weight=0.0)
    system = assemble(mesh, form, p=p)

    # fold periodic partners onto canonical representatives, one cell of every
    # node (nothing reads its geometry), and the cell's one matrix with them;
    # the nullspace is the global constants, so its one boundary node, node 0,
    # is pinned, and the gauge is restored below
    reps, inv = np.unique(periodic_representatives(mesh), return_inverse=True)
    cell = MembraneMesh(
        vertices=mesh.vertices[reps], triangles=inv[mesh.triangles], tri_region=mesh.tri_region,
        interface_pairs=inv[mesh.interface_pairs], boundary_nodes=np.zeros(1, dtype=np.int64),
        cells=mesh.cells, tri_cell_index=mesh.tri_cell_index, cell_nodes=np.arange(len(reps))[None])
    # the cell tables of both meshes are their node numberings: each pair of the
    # cell's links adds its entry to the folded pair of the folded links
    (K,) = system.cell_matrices
    (links,), (folded_links,) = mesh.links, cell.links
    keys = folded_links.pairs.astype(np.int64) @ [len(reps), 1]
    at = np.searchsorted(keys, inv[links.pairs].astype(np.int64) @ [len(reps), 1])
    folded = solve(replace(
        system, cell_matrices=(np.bincount(at, weights=K, minlength=len(keys)),),
        load=np.bincount(inv, weights=system.load), mesh=cell))
    values = folded.values[inv]

    # subtract the PLUS-region mean (area-weighted)
    plus = mesh.tri_region == PLUS
    uc = triangle_centroids(values, mesh.triangles)
    mean = np.sum(mesh.areas[plus] * uc[plus]) / np.sum(mesh.areas[plus])
    values = values - mean

    sol = FemSolution(values=values, mesh=mesh, iterations=folded.iterations,
                      proto_tensor=system.proto_tensor, residual=folded.residual)
    window = np.ones(len(mesh.cells), dtype=bool)  # the one cell
    return _corrector_solutions([sol], [p], window, form)[0]


def energy_profile(corr: CorrectorSolution) -> np.ndarray:
    """E_k for k = 1..n: cumulative reference-configuration energy (gradient,
    delta-mass, interface jump) over the cells of Q_k + center, the cube
    having 2n x 2n cells."""
    cells = corr.mesh.cells
    n = math.isqrt(len(cells)) // 2
    return np.array([corr.cell_energy[window_mask(cells, k)].sum() for k in range(1, n + 1)])


def write_flux_csv(path, rows) -> None:
    """rows: (seed, p_label, delta, n, m, F) with F the 2x2 window flux whose
    rows are the solve directions."""
    lines = ["seed,p,delta,n,m,F11,F12,F21,F22"]
    for seed, plabel, delta, n, m, F in rows:
        vals = ",".join(f"{x:.17g}" for x in np.asarray(F).ravel())
        lines.append(f"{seed},{plabel},{delta:.17g},{n},{m},{vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_energy_csv(path, rows) -> None:
    """rows: (seed, E) with E the energy profile array."""
    lines = ["seed,k,E_k"]
    for seed, E in rows:
        for k, e in enumerate(E, start=1):
            lines.append(f"{seed},{k},{e:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
