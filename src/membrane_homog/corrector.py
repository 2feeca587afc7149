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
import scipy.sparse as sp

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
    sol: FemSolution
    p: np.ndarray  # (2,) the mean gradient it was solved for
    cells: np.ndarray  # (nc, 2) lattice cells
    window: np.ndarray  # (nc,) mask of the cells its window averages over
    flux_plus: np.ndarray  # (nc, 2) int over Phi(Y_k^+) of A (p + grad w)
    flux_minus: np.ndarray  # (nc, 2)
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
        jump2 = cell_sums(
            mesh, edge_values=edge_jump_energy(mesh.ref_vertices, mesh.interface_edges, values)
        )
        return cell_sums(mesh, e_grad + e_mass) + jump2

    def window_flux(self) -> np.ndarray:
        """Average of F_k^+ + F_k^- over the cells of the window, per unit
        reference cell."""
        inside = self.window
        return (self.flux_plus[inside] + self.flux_minus[inside]).sum(axis=0) / inside.sum()


def window_mask(cells: np.ndarray, m: int) -> np.ndarray:
    """Mask of the lattice cells of Q_m + center, the center being that of
    all ``cells`` (cell centers within Chebyshev distance m - 1/2)."""
    c = cells.mean(axis=0) + 0.5
    return np.abs(cells + 0.5 - c).max(axis=1) <= m - 0.5 + 1e-9


def cell_sums(mesh: MembraneMesh, tri_values=None, edge_values=None) -> np.ndarray:
    """Sums per lattice cell (rows of ``mesh.cells``) of per-triangle and/or
    per-interface-edge values."""
    out = np.zeros(len(mesh.cells))
    if tri_values is not None:
        out += np.bincount(mesh.tri_cell_index, weights=tri_values, minlength=len(out))
    if edge_values is not None:
        out += np.bincount(mesh.edge_cell_index, weights=edge_values, minlength=len(out))
    return out


def _corrector_solutions(
    sols: list, loads: list, inside: np.ndarray, form: BilinearFormSpec, tensor: np.ndarray
) -> list[CorrectorSolution]:
    """The solves of one mesh, one per mean gradient of ``loads``, with their
    per-cell physical fluxes and window-energy form over the cells of the
    mask ``inside``; ``tensor`` is the form's conductivity on the mesh
    (``DiscreteSystem.tensor``)."""
    mesh = sols[0].mesh
    areas = mesh.areas
    grads = [p1_gradient(mesh, sol.values) + p for sol, p in zip(sols, loads)]
    fluxes = [apply_tensor(tensor, g) for g in grads]  # A g_i

    # window mean per cell of int g_i . A g_j plus the weighted jump form of
    # (w_i, w_j), physical configuration, with g_i = p_i + grad w_i, summed
    # over the triangles and interface edges of the window's cells
    tri = np.flatnonzero(inside[mesh.tri_cell_index])
    edges = mesh.interface_edges[inside[mesh.edge_cell_index]]
    jump = form.jump_weight * jump_element_matrices(mesh.vertices, edges)
    ends = [sol.values[edges] for sol in sols]
    energy = np.zeros((len(sols), len(sols)))
    for i, j in zip(*np.triu_indices(len(sols))):
        gi, fj = grads[i][tri], fluxes[j][tri]
        e_tri = areas[tri] @ (gi[:, 0] * fj[:, 0] + gi[:, 1] * fj[:, 1])
        e_jump = np.einsum("ei,eij,ej->", ends[i], jump, ends[j])
        energy[i, j] = energy[j, i] = (e_tri + e_jump) / inside.sum()

    # per cell and side: bincount keyed by 2 * cell + (triangle in PLUS)
    nc = len(mesh.cells)
    key = 2 * mesh.tri_cell_index + (mesh.tri_region == PLUS)
    out = []
    for sol, p, Ag, row in zip(sols, loads, fluxes, energy):
        side = np.stack([
            np.bincount(key, weights=areas * f, minlength=2 * nc).reshape(nc, 2) for f in Ag.T
        ], axis=-1)  # (nc, side MINUS/PLUS, component)
        out.append(CorrectorSolution(
            sol=sol, p=p, cells=mesh.cells, window=inside, flux_plus=side[:, 1],
            flux_minus=side[:, 0], window_energy=row, mass_weight=form.mass_weight,
        ))
    return out


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
    sols = [
        solve(replace(system, load=system.load + gradient_load(system.mesh, system.tensor, p)))
        for p in loads
    ]
    tensor = system.tensor
    del system  # and its solver's factorization, before the post-processing peaks in memory
    return _corrector_solutions(sols, loads, window_mask(mesh.cells, cfg.m), form, tensor)


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

    # fold periodic partners onto canonical representatives, one cell (nothing
    # reads its geometry); the nullspace is the global constants, so its one
    # boundary node, node 0, is pinned, and the gauge is restored below
    reps, inv = np.unique(periodic_representatives(mesh), return_inverse=True)
    cell = MembraneMesh(
        vertices=mesh.vertices[reps], triangles=inv[mesh.triangles], tri_region=mesh.tri_region,
        tri_cell=mesh.tri_cell, interface_pairs=inv[mesh.interface_pairs],
        boundary_nodes=np.zeros(1, dtype=np.int64))
    K = system.matrix.tocoo()
    folded = solve(replace(
        system, matrix=sp.csr_matrix((K.data, (inv[K.row], inv[K.col])), shape=(len(reps),) * 2),
        load=np.bincount(inv, weights=system.load), mesh=cell))
    values = folded.values[inv]

    # subtract the PLUS-region mean (area-weighted)
    plus = mesh.tri_region == PLUS
    uc = triangle_centroids(values, mesh.triangles)
    mean = np.sum(mesh.areas[plus] * uc[plus]) / np.sum(mesh.areas[plus])
    values = values - mean

    sol = FemSolution(values=values, mesh=mesh, iterations=folded.iterations,
                      residual=folded.residual)
    window = np.ones(len(mesh.cells), dtype=bool)  # the one cell
    return _corrector_solutions([sol], [p], window, form, system.tensor)[0]


def energy_profile(corr: CorrectorSolution) -> np.ndarray:
    """E_k for k = 1..n: cumulative reference-configuration energy (gradient,
    delta-mass, interface jump) over the cells of Q_k + center, the cube
    having 2n x 2n cells."""
    n = math.isqrt(len(corr.cells)) // 2
    return np.array([corr.cell_energy[window_mask(corr.cells, k)].sum() for k in range(1, n + 1)])


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
