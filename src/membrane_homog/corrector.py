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
    triangle_geometry,
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
        where each triangle has its prototype's geometry, summed kind by kind
        over runs of cells; computed on first use."""
        mesh, values, out = self.mesh, self.sol.values, np.zeros(len(self.mesh.cells))
        ref_areas, ref_grads = triangle_geometry(mesh.ref_vertices, mesh.prototypes)
        for kind in mesh.kinds:
            for cells, ends in mesh.runs(kind, columns=kind.links.edge_columns):
                jump2 = edge_jump_energy(mesh.ref_vertices, ends.reshape(-1, 4), values)
                out[cells] += jump2.reshape(len(cells), -1).sum(axis=1)
            areas = ref_areas[kind.protos]
            for cells, tri in mesh.runs(kind):
                u = values[tri]
                gref = p1_gradient(ref_grads[kind.protos], u)
                e_grad = areas * (gref[..., 0] ** 2 + gref[..., 1] ** 2)
                uc2 = (u**2).sum(axis=-1) + u.sum(axis=-1) ** 2
                e_mass = self.mass_weight * areas * uc2 / 12.0  # exact P1 mass per triangle
                out[cells] += (e_grad + e_mass).sum(axis=1)
        return out

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


def _corrector_solutions(
    sols: list, loads: list, inside: np.ndarray, form: BilinearFormSpec
) -> list[CorrectorSolution]:
    """The solves of one mesh, one per mean gradient of ``loads``, each
    carrying the conductivity per prototype it was solved with, with their
    physical fluxes per window cell and window-energy form over the cells of
    the mask ``inside``: only the window's cells, kind by kind over runs
    (``MembraneMesh.runs``), and their interface edges are read."""
    mesh, count = sols[0].mesh, int(inside.sum())
    rank = np.cumsum(inside) - 1  # each window cell's row among them
    # per window cell and side int A g_i, and the window sum of int g_i . A g_j
    # plus the jump form of (w_i, w_j), physical configuration, g_i = p_i + grad w_i
    sides = np.zeros((len(sols), count, 2, 2))
    energy = np.zeros((len(sols), len(sols)))
    pairs = list(zip(*np.triu_indices(len(sols))))
    for kind in mesh.kinds:
        areas, plus = mesh.proto_areas[kind.protos], kind.links.region == PLUS
        for cells, tri in mesh.runs(kind, inside):
            g = [p1_gradient(mesh.proto_grads[kind.protos], sol.values[tri]) + p
                 for sol, p in zip(sols, loads)]
            flux = [apply_tensor(sol.proto_tensor[kind.protos], gi) for sol, gi in zip(sols, g)]
            for i, j in pairs:
                energy[i, j] += np.einsum("t,ct->", areas, g[i][..., 0] * flux[j][..., 0]
                                          + g[i][..., 1] * flux[j][..., 1])
            for i, f in enumerate(flux):  # MINUS, then PLUS
                sides[i, rank[cells]] = np.stack(
                    [np.einsum("t,ctd->cd", areas[on], f[:, on]) for on in (~plus, plus)], axis=1)
    edges = np.concatenate([np.zeros((0, 4), dtype=np.int32)] + [
        ends.reshape(-1, 4) for kind in mesh.kinds
        for _, ends in mesh.runs(kind, inside, columns=kind.links.edge_columns)])
    jump = form.jump_weight * jump_element_matrices(mesh.vertices, edges)
    ends = [sol.values[edges] for sol in sols]
    for i, j in pairs:
        e_jump = np.einsum("ei,eij,ej->", ends[i], jump, ends[j])
        energy[i, j] = energy[j, i] = (energy[i, j] + e_jump) / count
    return [
        CorrectorSolution(sol=sol, p=p, window_sides=side, window_energy=row,
                          mass_weight=form.mass_weight)
        for sol, p, side, row in zip(sols, loads, sides, energy)
    ]


def solve_truncated(
    cfg: CorrectorConfig, dmap: DeformationMap, loads, conductivity=identity_field, center=(0, 0)
) -> list[CorrectorSolution]:
    """Regularized correctors on one realization of the deformed truncated
    cube: jump weight 1, mass weight delta, zero Dirichlet data and, for each
    mean gradient p in ``loads``, the load -int A p . grad(phi).  The mesh and
    the system are built once and solve every load in turn; each window is
    Q_m + center."""
    cell = build_cell_mesh(cfg.interface, cfg.h)
    mesh = build_truncated_mesh(cell, dmap, cfg.n, center=center, membranes=cfg.membranes)
    form = BilinearFormSpec(conductivity=conductivity, jump_weight=1.0, mass_weight=cfg.delta)
    system = assemble(mesh, form)
    loads = [np.asarray(p, dtype=float) for p in loads]
    proto_tensor, sols = system.proto_tensor, []
    for p in loads:
        system.load = gradient_load(mesh, proto_tensor, p)
        sols.append(solve(system))
    del system  # and its solver's factorization, before the post-processing
    # solve attaches the tensor; perfbench/selftest.py's stand-in solve does not
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
    # node, whose table is the numbering, so its triangles and pairs are its columns
    # (nothing reads its geometry), and the cell's one matrix with them;
    # the nullspace is the global constants, so its one boundary node, node 0,
    # is pinned, and the gauge is restored below
    reps, inv = np.unique(periodic_representatives(mesh), return_inverse=True)
    (links,) = mesh.links
    tri = mesh.cell_nodes[0][links.corners]  # the unit cell's triangles: it is one cell
    cell = MembraneMesh(
        vertices=mesh.vertices[reps], boundary_nodes=np.zeros(1, dtype=np.int64), cells=mesh.cells,
        cell_nodes=np.arange(len(reps))[None],
        kind_triangles=[(inv[tri], links.region, inv[links.interface])])
    # the cell tables of both meshes are their node numberings: each pair of the
    # cell's links adds its entry to the folded pair of the folded links
    (K,), (folded_links,) = system.cell_matrices, cell.links
    keys = folded_links.pairs.astype(np.int64) @ [len(reps), 1]
    at = np.searchsorted(keys, inv[links.pairs].astype(np.int64) @ [len(reps), 1])
    folded = solve(replace(
        system, cell_matrices=(np.bincount(at, weights=K, minlength=len(keys)),),
        load=np.bincount(inv, weights=system.load), mesh=cell))
    values = folded.values[inv]

    # subtract the PLUS-region mean (area-weighted); the cell's triangles are its prototypes
    plus, areas = links.region == PLUS, mesh.proto_areas
    uc = triangle_centroids(values, tri)
    mean = np.sum(areas[plus] * uc[plus]) / np.sum(areas[plus])
    values = values - mean

    sol = replace(folded, values=values, mesh=mesh)
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
