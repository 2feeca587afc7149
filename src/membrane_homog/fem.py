"""P1 finite elements for the membrane transmission form.

One bilinear form covers every solve in the workbench:

    a(u, v) = sum_T int_T grad(v) . A grad(u)
            + delta * int u v
            + gamma * sum_{e in interface} int_e (u+ - u-)(v+ - v-) ds

with A constant per triangle (evaluated at the reference centroid), the jump
term assembled on the duplicated interface node pairs, and Dirichlet
constraints eliminated symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonEllipticField, SolverDivergence
from .meshing import MINUS, PLUS, MembraneMesh

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
        cent = mesh.ref_vertices[mesh.triangles].mean(axis=1)
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
    and ``coarse`` the coarse unknown of each dof in the two-level solve."""

    matrix: sp.csr_matrix
    load: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    mesh: MembraneMesh
    tensor: np.ndarray
    coarse: np.ndarray

    @property
    def free(self) -> np.ndarray:
        mask = np.ones(len(self.load), dtype=bool)
        mask[self.fixed] = False
        return np.flatnonzero(mask)


@dataclass
class FemSolution:
    values: np.ndarray
    mesh: MembraneMesh
    iterations: int = 0


def _scatter(dofs: np.ndarray, mats: np.ndarray, nv: int) -> sp.csr_matrix:
    """The nv x nv sum of element matrices ``mats`` (ne, k, k) over their
    dofs (ne, k)."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((mats.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def assemble_stiffness(mesh: MembraneMesh, tensor: np.ndarray) -> sp.csr_matrix:
    Ag = np.einsum("tij,tkj->tki", tensor, mesh.grads)
    Ke = np.einsum("t,tid,tjd->tij", mesh.areas, mesh.grads, Ag)
    return _scatter(mesh.triangles, Ke, mesh.num_vertices)


def assemble_mass(mesh: MembraneMesh) -> sp.csr_matrix:
    Me = np.tile((np.ones((3, 3)) + np.eye(3)) / 12.0, (mesh.num_triangles, 1, 1))
    Me *= mesh.areas[:, None, None]
    return _scatter(mesh.triangles, Me, mesh.num_vertices)


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
    edges = mesh.interface_edges
    return _scatter(edges, jump_element_matrices(mesh.vertices, edges), mesh.num_vertices)


def volume_load(mesh: MembraneMesh, f) -> np.ndarray:
    """int f phi_i with f constant per triangle (centroid value)."""
    if callable(f):
        fc = f(mesh.vertices[mesh.triangles].mean(axis=1))
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
    K = assemble_stiffness(mesh, tensor)
    if spec.mass_weight != 0.0:
        K = K + spec.mass_weight * assemble_mass(mesh)
    if spec.jump_weight != 0.0:
        K = K + spec.jump_weight * assemble_jump(mesh)
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


def _cg(K, b, agg):
    """CG with the two-level additive preconditioner D^-1 + R^T (R K R^T)^-1 R,
    R the 0/1 restriction summing the dofs of each aggregate (row labels
    ``agg``).  Returns the solution and the iteration count."""
    _, agg = np.unique(agg, return_inverse=True)
    R = sp.csr_matrix((np.ones(len(b)), (agg, np.arange(len(b)))))
    coarse = spla.splu((R @ K @ R.T).tocsc())
    diag = K.diagonal()
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)

    def precondition(r):
        return inv_diag * r + coarse.solve(R @ r)[agg]

    M = spla.LinearOperator(K.shape, matvec=precondition, dtype=float)
    maxiter = int(50 * np.sqrt(len(b))) + 10
    iterations = 0

    def counted(xk):
        nonlocal iterations
        iterations += 1

    try:
        x, info = spla.cg(K, b, rtol=CG_RTOL, maxiter=maxiter, M=M, callback=counted)
    except TypeError:  # scipy < 1.12 spells the tolerance differently
        x, info = spla.cg(
            K, b, tol=CG_RTOL, atol=0.0, maxiter=maxiter, M=M, callback=counted
        )
    if info > 0:
        raise SolverDivergence(f"CG did not converge in {info} iterations")
    return x, iterations


def solve(system: DiscreteSystem) -> FemSolution:
    """Two-level CG on the free degrees of freedom, with the coarse unknowns
    ``system.coarse`` (for an assembled system one per lattice cell and
    membrane side)."""
    nv = len(system.load)
    u = np.zeros(nv)
    u[system.fixed] = system.fixed_values
    free = system.free
    K = system.matrix
    b = system.load[free] - K[free][:, system.fixed] @ system.fixed_values
    Kff = K[free][:, free]
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return FemSolution(values=u, mesh=system.mesh)
    u[free], iterations = _cg(Kff, b, system.coarse[free])
    return FemSolution(values=u, mesh=system.mesh, iterations=iterations)


def p1_gradient(mesh: MembraneMesh, values: np.ndarray) -> np.ndarray:
    """Piecewise-constant gradient (nt, 2)."""
    return np.einsum("tid,ti->td", mesh.grads, values[mesh.triangles])


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
    J = assemble_jump(mesh)
    out["jump_L2_on_interface"] = float(np.sqrt(max(sol.values @ (J @ sol.values), 0.0)))
    return out


def flux_pairing(sol: FemSolution, spec: BilinearFormSpec, fields) -> list[float]:
    """int_D (chi+ A grad(u+) + chi- A grad(u-)) . psi by centroid quadrature,
    for each psi in ``fields``; psi maps physical points (n, 2) to vectors (n, 2)."""
    mesh = sol.mesh
    areas = mesh.areas
    tensor = spec.tensor(mesh)
    g = p1_gradient(mesh, sol.values)
    flux = np.einsum("tij,tj->ti", tensor, g)
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    return [float(np.einsum("t,ti,ti->", areas, flux, np.asarray(psi(cent)))) for psi in fields]
