"""P1 finite elements for the membrane transmission form.

One bilinear form covers every solve in the workbench:

    a(u, v) = sum_T int_T grad(v) . A grad(u)
            + delta * int u v
            + gamma * sum_{e in interface} int_e (u+ - u-)(v+ - v-) ds

with A constant per triangle (evaluated at the reference centroid), the jump
term assembled on the duplicated interface node pairs, and Dirichlet
constraints eliminated symmetrically.

The element matrices of all three terms are summed into the CSR pattern the
mesh stores (``MembraneMesh.slots``) with one ``np.bincount``, so a
realization that only moves a tiling's nodes reuses its pattern.  ``solve``
sets the two-level solver up once per matrix: copies of a system that differ
only in their load (``dataclasses.replace``) share the set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonEllipticField, SolverDivergence
from .meshing import MINUS, PLUS, MembraneMesh, triangle_centroids

CG_RTOL = 1e-10


def identity_field(points: np.ndarray) -> np.ndarray:
    out = np.zeros((len(points), 2, 2))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    return out


def aniso_field(points: np.ndarray) -> np.ndarray:
    """diag(1 + 0.5 sin^2(2 pi y1), 1), periodic in the reference coordinate."""
    out = np.zeros((len(points), 2, 2))
    out[:, 0, 0] = 1.0 + 0.5 * np.sin(2.0 * np.pi * points[:, 0]) ** 2
    out[:, 1, 1] = 1.0
    return out


CONDUCTIVITY_PRESETS = {"identity": identity_field, "aniso": aniso_field}


def sym2_eigenvalues(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper eigenvalue of each symmetric 2x2 matrix of a stack
    (n, 2, 2), in closed form: mid -/+ hypot((a - d)/2, b)."""
    a, b, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    mid, rad = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
    return mid - rad, mid + rad


@dataclass
class BilinearFormSpec:
    """Coefficients of the transmission form.

    ``conductivity`` maps reference-coordinate points (n, 2) to (n, 2, 2)
    symmetric matrices with eigenvalues in [lam, Lam].
    """

    conductivity: Callable[[np.ndarray], np.ndarray] = identity_field
    jump_weight: float = 0.0
    mass_weight: float = 0.0
    lam: float = 1.0
    Lam: float = 1.5

    def tensor(self, mesh: MembraneMesh) -> np.ndarray:
        """Per-triangle conductivity at reference centroids, ellipticity
        checked by sampled eigenvalues."""
        cent = triangle_centroids(mesh.ref_vertices, mesh.triangles)
        A = self.conductivity(cent)
        if np.abs(A - np.transpose(A, (0, 2, 1))).max() > 1e-12:
            raise NonEllipticField("conductivity not symmetric")
        lower, upper = sym2_eigenvalues(A)
        lo, hi = lower.min(), upper.max()
        if lo < self.lam - 1e-9 or hi > self.Lam + 1e-9:
            raise NonEllipticField(
                f"sampled eigenvalues in [{lo:.3g}, {hi:.3g}] "
                f"outside [{self.lam}, {self.Lam}]"
            )
        return A


@dataclass
class DiscreteSystem:
    """Assembled matrix and load with their Dirichlet data; ``tensor`` is the
    form's per-triangle conductivity on ``mesh``, evaluated once by assemble,
    and ``coarse`` the coarse unknown of each dof in the two-level solve.
    ``solver`` holds the solver set-up ``solve`` builds on first use; copies
    made by ``dataclasses.replace`` share it, and it is rebuilt for a copy
    with another matrix, Dirichlet data or coarse unknowns."""

    matrix: sp.csr_matrix
    load: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    mesh: MembraneMesh
    tensor: np.ndarray
    coarse: np.ndarray
    solver: list = field(default_factory=list, repr=False)

    @property
    def free(self) -> np.ndarray:
        mask = np.ones(len(self.load), dtype=bool)
        mask[self.fixed] = False
        return np.flatnonzero(mask)


@dataclass
class FemSolution:
    """Nodal values on ``mesh``; ``tensor`` is the per-triangle conductivity
    of the system they solve, when the caller attached it."""

    values: np.ndarray
    mesh: MembraneMesh
    iterations: int = 0
    tensor: np.ndarray = None


def _scatter(mesh: MembraneMesh, tri_mats=0.0, edge_mats=0.0) -> sp.csr_matrix:
    """The matrix, in the mesh's pattern, summing element matrices over the
    triangles (nt, 3, 3) and the interface edges (ne, 4, 4); a scalar is
    broadcast to every element."""
    nt, ne = mesh.num_triangles, len(mesh.interface_edges)
    weights = np.concatenate([
        np.broadcast_to(tri_mats, (nt, 3, 3)).ravel(),
        np.broadcast_to(edge_mats, (ne, 4, 4)).ravel(),
    ])
    data = np.bincount(mesh.slots, weights=weights, minlength=len(mesh.indices))
    nv = mesh.num_vertices
    return sp.csr_matrix((data, mesh.indices, mesh.indptr), shape=(nv, nv))


def apply_tensor(tensor: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A g for per-triangle 2x2 matrices A (nt, 2, 2) and vectors g (nt, 2),
    or k vectors per triangle (nt, k, 2)."""
    A = tensor if g.ndim == 2 else tensor[:, None]
    return np.stack([
        A[..., 0, 0] * g[..., 0] + A[..., 0, 1] * g[..., 1],
        A[..., 1, 0] * g[..., 0] + A[..., 1, 1] * g[..., 1],
    ], axis=-1)


def stiffness_elements(mesh: MembraneMesh, tensor: np.ndarray) -> np.ndarray:
    """|T| grad(phi_i) . A grad(phi_j) per triangle (nt, 3, 3)."""
    g = mesh.grads
    Ag = apply_tensor(tensor, g)
    Ke = g[:, :, None, 0] * Ag[:, None, :, 0] + g[:, :, None, 1] * Ag[:, None, :, 1]
    Ke *= mesh.areas[:, None, None]
    return Ke


_MASS_BASE = (np.ones((3, 3)) + np.eye(3)) / 12.0  # P1 mass of a unit-area triangle


def assemble_stiffness(mesh: MembraneMesh, tensor: np.ndarray) -> sp.csr_matrix:
    return _scatter(mesh, stiffness_elements(mesh, tensor))


def assemble_mass(mesh: MembraneMesh) -> sp.csr_matrix:
    return _scatter(mesh, mesh.areas[:, None, None] * _MASS_BASE)


# jump coupling of the two sides (x) 6 * the P1 edge mass [[2, 1], [1, 2]] / 6,
# over the dofs (plus_a, plus_b, minus_a, minus_b)
_JUMP_BASE = np.kron([[1.0, -1.0], [-1.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]])


def jump_element_matrices(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """P1 matrices (ne, 4, 4) of int_e (u+ - u-)(v+ - v-) ds on each interface
    edge, over its dofs (plus_a, plus_b, minus_a, minus_b), with the edge
    length taken from ``vertices`` (exact for P1)."""
    L = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    return (L / 6.0)[:, None, None] * _JUMP_BASE


def edge_jump_energy(vertices: np.ndarray, edges: np.ndarray, values, other=None) -> np.ndarray:
    """int_e (u+ - u-)(v+ - v-) ds per interface edge (unweighted), u the
    nodal ``values`` and v those of ``other`` (default u)."""
    u = values[edges]
    v = u if other is None else other[edges]
    return np.einsum("ei,eij,ej->e", u, jump_element_matrices(vertices, edges), v)


def assemble_jump(mesh: MembraneMesh) -> sp.csr_matrix:
    """Unweighted jump form sum_e int_e (u+ - u-)(v+ - v-) ds on the
    deformed interface polyline."""
    return _scatter(mesh, edge_mats=jump_element_matrices(mesh.vertices, mesh.interface_edges))


def volume_load(mesh: MembraneMesh, f) -> np.ndarray:
    """int f phi_i with f constant per triangle (centroid value)."""
    if callable(f):
        fc = f(triangle_centroids(mesh.vertices, mesh.triangles))
    else:
        fc = np.full(mesh.num_triangles, float(f))
    contrib = mesh.areas * fc / 3.0
    return np.bincount(
        mesh.triangles.T.ravel(), weights=np.tile(contrib, 3), minlength=mesh.num_vertices
    )


def gradient_load(mesh: MembraneMesh, tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """-int A p . grad(phi_i), the corrector load for mean gradient p."""
    Ap = np.einsum("tij,j->ti", tensor, np.asarray(p, dtype=float))
    contrib = -np.einsum("t,ti,tji->tj", mesh.areas, Ap, mesh.grads)
    return np.bincount(
        mesh.triangles.T.ravel(), weights=contrib.T.ravel(), minlength=mesh.num_vertices
    )


def assemble(
    mesh: MembraneMesh,
    spec: BilinearFormSpec,
    f=None,
    p=None,
    dirichlet: np.ndarray = None,
    dirichlet_values: np.ndarray = None,
) -> DiscreteSystem:
    """Full transmission form with volume source f and/or corrector load p.

    ``dirichlet`` defaults to the mesh boundary nodes; pass an empty array
    for unconstrained (e.g. periodic) systems.
    """
    tensor = spec.tensor(mesh)
    tri_mats = stiffness_elements(mesh, tensor)
    if spec.mass_weight != 0.0:
        tri_mats += (spec.mass_weight * mesh.areas)[:, None, None] * _MASS_BASE
    edge_mats = spec.jump_weight * jump_element_matrices(mesh.vertices, mesh.interface_edges)
    K = _scatter(mesh, tri_mats, edge_mats)
    b = np.zeros(mesh.num_vertices)
    if f is not None:
        b += volume_load(mesh, f)
    if p is not None:
        b += gradient_load(mesh, tensor, p)
    if dirichlet is None:
        dirichlet = mesh.boundary_nodes
    dirichlet = np.asarray(dirichlet, dtype=np.int64)
    if dirichlet_values is None:
        dirichlet_values = np.zeros(len(dirichlet))
    return DiscreteSystem(
        matrix=K, load=b, fixed=dirichlet, fixed_values=dirichlet_values,
        mesh=mesh, tensor=tensor, coarse=aggregates(mesh),
    )


def aggregates(mesh: MembraneMesh) -> np.ndarray:
    """Coarse aggregate of each node: 2 * (row of ``mesh.cells``) + (1 on the
    MINUS side of the membrane), the lowest label of its triangles where
    several cells meet."""
    tri_label = 2 * mesh.tri_cell_index + (mesh.tri_region == MINUS)
    label = np.full(mesh.num_vertices, np.iinfo(np.int64).max)
    np.minimum.at(label, mesh.triangles.ravel(), np.repeat(tri_label, 3))
    return label


class _TwoLevel:
    """CG on a matrix K with the two-level additive preconditioner
    D^-1 + R^T (R K R^T)^-1 R, R the 0/1 restriction summing the dofs of each
    coarse unknown (row labels ``agg``).  R, the coarse factor and the
    diagonal are built once, here."""

    def __init__(self, K: sp.csr_matrix, agg: np.ndarray):
        self.K = K
        _, self.agg = np.unique(agg, return_inverse=True)
        n = len(self.agg)
        self.R = sp.csr_matrix((np.ones(n), (self.agg, np.arange(n))))
        self.coarse = spla.splu((self.R @ K @ self.R.T).tocsc())
        diag = K.diagonal()
        self.inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)

    def precondition(self, r):
        return self.inv_diag * r + self.coarse.solve(self.R @ r)[self.agg]

    def solve(self, b):
        """The solution for the free-dof load b and the iteration count."""
        M = spla.LinearOperator(self.K.shape, matvec=self.precondition, dtype=float)
        maxiter = int(50 * np.sqrt(len(b))) + 10
        iterations = 0

        def counted(xk):
            nonlocal iterations
            iterations += 1

        try:
            x, info = spla.cg(self.K, b, rtol=CG_RTOL, maxiter=maxiter, M=M, callback=counted)
        except TypeError:  # scipy < 1.12 spells the tolerance differently
            x, info = spla.cg(
                self.K, b, tol=CG_RTOL, atol=0.0, maxiter=maxiter, M=M, callback=counted
            )
        if info > 0:
            raise SolverDivergence(f"CG did not converge in {info} iterations")
        return x, iterations


def _solver(system: DiscreteSystem) -> tuple:
    """The free dofs, the Dirichlet shift of their load and the two-level CG
    of their block, built once for the system's matrix, Dirichlet data and
    coarse unknowns and kept in ``system.solver``."""
    parts = (system.matrix, system.fixed, system.fixed_values, system.coarse)
    if not system.solver or any(a is not b for a, b in zip(system.solver[0], parts)):
        free = system.free
        K = system.matrix[free]
        system.solver[:] = [
            parts, free, K[:, system.fixed] @ system.fixed_values,
            _TwoLevel(K[:, free], system.coarse[free]),
        ]
    return system.solver[1:]


def solve(system: DiscreteSystem) -> FemSolution:
    """Two-level CG on the free degrees of freedom, with the coarse unknowns
    ``system.coarse`` (for an assembled system one per lattice cell and
    membrane side)."""
    u = np.zeros(len(system.load))
    u[system.fixed] = system.fixed_values
    free, shift, cg = _solver(system)
    b = system.load[free] - shift
    if np.linalg.norm(b) == 0.0:
        return FemSolution(values=u, mesh=system.mesh)
    u[free], iterations = cg.solve(b)
    return FemSolution(values=u, mesh=system.mesh, iterations=iterations)


def p1_gradient(mesh: MembraneMesh, values: np.ndarray, grads: np.ndarray = None) -> np.ndarray:
    """Piecewise-constant gradient (nt, 2), with ``grads`` the basis gradients
    (default ``mesh.grads``)."""
    g = mesh.grads if grads is None else grads
    return np.einsum("tid,ti->td", g, values[mesh.triangles])


def norms(sol: FemSolution) -> dict:
    """W-norm components: gradient L2 per region and interface jump L2."""
    mesh = sol.mesh
    areas = mesh.areas
    g = p1_gradient(mesh, sol.values)
    g2 = np.einsum("td,td->t", g, g)
    plus = mesh.tri_region == PLUS
    minus = mesh.tri_region == MINUS
    out = {
        "grad_plus_L2": float(np.sqrt(np.sum(areas[plus] * g2[plus]))),
        "grad_minus_L2": float(np.sqrt(np.sum(areas[minus] * g2[minus]))),
    }
    jump2 = edge_jump_energy(mesh.vertices, mesh.interface_edges, sol.values).sum()
    out["jump_L2_on_interface"] = float(np.sqrt(max(jump2, 0.0)))
    return out


def flux_pairing(sol: FemSolution, tensor: np.ndarray, fields) -> list[float]:
    """int_D (chi+ A grad(u+) + chi- A grad(u-)) . psi by centroid quadrature,
    for each psi in ``fields``, with A the per-triangle ``tensor`` (as
    ``BilinearFormSpec.tensor`` evaluates it); psi maps physical points (n, 2)
    to vectors (n, 2)."""
    mesh = sol.mesh
    areas = mesh.areas
    g = p1_gradient(mesh, sol.values)
    flux = np.einsum("tij,tj->ti", tensor, g)
    cent = triangle_centroids(mesh.vertices, mesh.triangles)
    return [float(np.einsum("t,ti,ti->", areas, flux, np.asarray(psi(cent)))) for psi in fields]
