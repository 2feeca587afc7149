"""P1 finite elements for the membrane transmission form.

One bilinear form covers every solve in the workbench:

    a(u, v) = sum_T int_T grad(v) . A grad(u)
            + delta * int u v
            + gamma * sum_{e in interface} int_e (u+ - u-)(v+ - v-) ds

with A constant per triangle (evaluated at the reference centroid) and the
jump term assembled on the duplicated interface node pairs.  Every system is
held at zero on its mesh's boundary nodes (``MembraneMesh.boundary_nodes``),
the paper's Dirichlet data; the folded periodic cell has one boundary node,
which pins its constants.

The kinds of cell define the assembly.  The conductivity, the stiffness and
mass element matrices and the gradient load are computed once per prototype
triangle (``MembraneMesh.prototypes``: the triangles of each kind's first
cell) and gathered per triangle.  ``assemble`` gathers the element matrices
into one weights buffer beside the interface edges' jump matrices, and one
``np.add.at`` sums it into the CSR pattern the mesh stores
(``MembraneMesh.slots``), so a realization that only moves a tiling's nodes
reuses its pattern.  A conductivity that does not repeat from cell to cell
makes every cell its own kind (``BilinearFormSpec.kinds``), so the answer
stays exact.

``solve`` runs CG on the free dofs, preconditioned by the inverse of the
matrix with its cell interiors condensed per kind: cells of one kind
(``MembraneMesh.cell_kind``) have the same element matrices up to rounding,
so one sparse LU of one cell's interior block serves them all, and the only
other factorization is that of the Schur complement on the free dofs of the
cell skeleton (``MembraneMesh.skeleton``).  One ``np.add.at`` sums the
kinds' Schur blocks and the matrix's skeleton entries into that complement,
in the pattern the mesh stores (``MembraneMesh.schur``): every index set of
the solver that the topology fixes is built with the mesh.  When the kinds
hold, the preconditioner is the inverse of the matrix up to rounding and CG
stops after one iteration; CG checks the answer against the matrix itself
either way.  Both factors are SuperLU's complete LU (``splu``).  The set-up
is built once per matrix: copies of a system that differ only in their load
(``dataclasses.replace``) share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    symmetric matrices with eigenvalues in [lam, Lam].  The kinds of cell
    define the assembly: the conductivity is evaluated at the prototypes'
    reference centroids only, which is exact when it repeats from cell to
    cell, as both presets do on a tiling of unit cells.  ``kinds`` checks
    that once per mesh topology (so per tiling template) and conductivity
    and makes every cell its own kind when it fails.  CG still checks its
    answer against the assembled matrix.
    """

    conductivity: Callable[[np.ndarray], np.ndarray] = identity_field
    jump_weight: float = 0.0
    mass_weight: float = 0.0
    lam: float = 1.0
    Lam: float = 1.5

    def kinds(self, mesh: MembraneMesh) -> MembraneMesh:
        """``mesh`` if the conductivity takes one value, within 1e-12, at the
        reference centroids of the triangles of each prototype, else
        ``mesh.cellwise()``.  Each triangle is checked against the same
        triangle (``tri_local``) of the first cell with as many triangles, as
        cells of one kind have: the verdict, kept in ``mesh.memo``, holds for
        the kinds of every realization that shares it."""
        if len(mesh.prototypes) == mesh.num_triangles:
            return mesh
        key = ("periodic", self.conductivity)
        if key not in mesh.memo:
            count = np.bincount(mesh.tri_cell_index)
            _, first, rank = np.unique(count, return_index=True, return_inverse=True)
            A = np.zeros((len(count), count.max(), 2, 2))  # per cell and local triangle
            A[mesh.tri_cell_index, mesh.tri_local] = self.conductivity(mesh.ref_centroids)
            mesh.memo[key] = bool(np.abs(A - A[first[rank]]).max() <= 1e-12)
        return mesh if mesh.memo[key] else mesh.cellwise()

    def tensor(self, mesh: MembraneMesh) -> np.ndarray:
        """Per-triangle conductivity: its value at the reference centroid of
        the triangle's prototype in ``kinds(mesh)``, ellipticity checked by
        those sampled eigenvalues."""
        mesh = self.kinds(mesh)
        A = self.conductivity(mesh.ref_centroids[mesh.prototypes])
        if np.abs(A[:, 0, 1] - A[:, 1, 0]).max() > 1e-12:
            raise NonEllipticField("conductivity not symmetric")
        lower, upper = sym2_eigenvalues(A)
        lo, hi = lower.min(), upper.max()
        if lo < self.lam - 1e-9 or hi > self.Lam + 1e-9:
            raise NonEllipticField(
                f"sampled eigenvalues in [{lo:.3g}, {hi:.3g}] "
                f"outside [{self.lam}, {self.Lam}]"
            )
        return np.take(A, mesh.tri_prototype, axis=0)


@dataclass
class DiscreteSystem:
    """Assembled matrix and load; ``tensor`` is the form's per-triangle
    conductivity on ``mesh``, evaluated once by assemble (``mesh`` is the mesh
    assembled on, with the kinds ``BilinearFormSpec.kinds`` gave it; the
    matrix is in its pattern).  The solution is zero on ``fixed``, the mesh's
    boundary nodes, and unknown on ``free``, the mesh's ``free_nodes``.
    ``solver`` holds the set-up ``solve`` builds on first use; copies made by
    ``dataclasses.replace`` share it, and it is rebuilt for a copy with
    another matrix or mesh."""

    matrix: sp.csr_matrix
    load: np.ndarray
    mesh: MembraneMesh
    tensor: np.ndarray
    solver: list = field(default_factory=list, repr=False)

    @property
    def fixed(self) -> np.ndarray:
        return self.mesh.boundary_nodes

    @property
    def fixed_values(self) -> np.ndarray:
        return np.zeros(len(self.fixed))

    @property
    def free(self) -> np.ndarray:
        return self.mesh.free_nodes


@dataclass
class FemSolution:
    """Nodal values on ``mesh``; ``tensor`` is the per-triangle conductivity
    of the system they solve, when the caller attached it.  A solve records
    its CG ``iterations`` and its true relative ``residual``
    |b - K x| / |b| over the free dofs."""

    values: np.ndarray
    mesh: MembraneMesh
    iterations: int = 0
    tensor: np.ndarray = None
    residual: float = None


def _scatter(mesh: MembraneMesh, weights: np.ndarray) -> sp.csr_matrix:
    """The matrix, in the mesh's pattern, summing the element matrices laid
    out in ``weights`` as ``MembraneMesh.slots`` orders them: the triangles'
    (nt, 3, 3), then the interface edges' (ne, 4, 4)."""
    data = np.zeros(len(mesh.indices))
    np.add.at(data, mesh.slots, weights)  # np.bincount's order; no np.intp copy of slots
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


def stiffness_elements(grads: np.ndarray, areas: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """|T| grad(phi_i) . A grad(phi_j) (k, 3, 3) for triangles with basis
    gradients ``grads`` (k, 3, 2), ``areas`` (k,) and conductivity ``tensor``
    (k, 2, 2)."""
    Ag = apply_tensor(tensor, grads)
    Ke = grads[:, :, None, 0] * Ag[:, None, :, 0]
    Ke += grads[:, :, None, 1] * Ag[:, None, :, 1]
    Ke *= areas[:, None, None]
    return Ke


_MASS_BASE = (np.ones((3, 3)) + np.eye(3)) / 12.0  # P1 mass of a unit-area triangle

# jump coupling of the two sides (x) 6 * the P1 edge mass [[2, 1], [1, 2]] / 6,
# over the dofs (plus_a, plus_b, minus_a, minus_b)
_JUMP_BASE = np.kron([[1.0, -1.0], [-1.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]])


def jump_element_matrices(
    vertices: np.ndarray, edges: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    """P1 matrices (ne, 4, 4) of int_e (u+ - u-)(v+ - v-) ds on each interface
    edge, over its dofs (plus_a, plus_b, minus_a, minus_b), with the edge
    length taken from ``vertices`` (exact for P1); written into ``out`` when
    given."""
    L = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    return np.multiply((L / 6.0)[:, None, None], _JUMP_BASE, out=out)


def edge_jump_energy(vertices: np.ndarray, edges: np.ndarray, values, other=None) -> np.ndarray:
    """int_e (u+ - u-)(v+ - v-) ds per interface edge (unweighted), u the
    nodal ``values`` and v those of ``other`` (default u)."""
    u = values[edges]
    v = u if other is None else other[edges]
    return np.einsum("ei,eij,ej->e", u, jump_element_matrices(vertices, edges), v)


def volume_load(mesh: MembraneMesh, f) -> np.ndarray:
    """int f phi_i with f constant per triangle (centroid value)."""
    if callable(f):
        fc = f(mesh.centroids)
    else:
        fc = np.full(mesh.num_triangles, float(f))
    contrib = mesh.areas * fc / 3.0
    return np.bincount(
        mesh.triangles.T.ravel(), weights=np.tile(contrib, 3), minlength=mesh.num_vertices
    )


def gradient_load(mesh: MembraneMesh, tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """-int A p . grad(phi_i), the corrector load for mean gradient p,
    computed on the prototypes and gathered per triangle: the per-triangle
    ``tensor`` must take one value on the triangles of each prototype, as a
    system's tensor does on its mesh (``DiscreteSystem``)."""
    p = np.asarray(p, dtype=float)
    A = tensor[mesh.prototypes]
    Ap = A[:, :, 0] * p[0] + A[:, :, 1] * p[1]
    a, g = mesh.proto_areas, mesh.proto_grads
    contrib = -((a * Ap[:, 0])[:, None] * g[:, :, 0] + (a * Ap[:, 1])[:, None] * g[:, :, 1])
    return np.bincount(
        mesh.triangles.T.ravel(), weights=np.take(contrib.T, mesh.tri_prototype, axis=1).ravel(),
        minlength=mesh.num_vertices,
    )


def assemble(mesh: MembraneMesh, spec: BilinearFormSpec, f=None, p=None) -> DiscreteSystem:
    """Full transmission form with volume source f and/or corrector load p.

    The element matrices are computed once per prototype of
    ``spec.kinds(mesh)``, the system's mesh.
    """
    mesh = spec.kinds(mesh)
    tensor = spec.tensor(mesh)
    Ke = stiffness_elements(mesh.proto_grads, mesh.proto_areas, tensor[mesh.prototypes])
    if spec.mass_weight != 0.0:
        Ke += (spec.mass_weight * mesh.proto_areas)[:, None, None] * _MASS_BASE
    nt, ne = mesh.num_triangles, len(mesh.interface_edges)
    weights = np.empty(9 * nt + 16 * ne)
    np.take(Ke.reshape(-1, 9), mesh.tri_prototype, axis=0, out=weights[:9 * nt].reshape(nt, 9),
            mode="clip")  # not "raise", which buffers ``out``
    edge_mats = weights[9 * nt:].reshape(ne, 4, 4)
    jump_element_matrices(mesh.vertices, mesh.interface_edges, out=edge_mats)
    edge_mats *= spec.jump_weight
    K = _scatter(mesh, weights)
    b = np.zeros(mesh.num_vertices)
    if f is not None:
        b += volume_load(mesh, f)
    if p is not None:
        b += gradient_load(mesh, tensor, p)
    return DiscreteSystem(matrix=K, load=b, mesh=mesh, tensor=tensor)


def _factor(A: sp.spmatrix):
    """The complete sparse LU of a symmetric positive definite matrix, None
    for an empty one: SuperLU with the minimum-degree ordering of A + A^T
    and no pivoting."""
    if A.shape[0] == 0:
        return None
    return spla.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _solve(lu, b: np.ndarray) -> np.ndarray:
    """lu^-1 b, for b (n,) or (n, k); an empty factor (None) keeps b."""
    return b if lu is None else lu.solve(b)


class _Condensed:
    """The free-dof block of a matrix K as an operator, and the inverse of
    K~, K with each cell's interior block and its coupling to the cell's
    skeleton nodes replaced by those of the first cell of its kind.

    Per kind it keeps the cells' interior and skeleton nodes (rows of the
    cell table, in the columns of the kind's first cell), the LU of that
    cell's interior block A and E = A^-1 K_IB, both read from K (in the
    mesh's pattern).  The skeleton block of K~^-1 is the inverse of the
    Schur complement S = K_BB - sum over cells of K_BI E on the free
    skeleton dofs, summed by one ``np.add.at`` in the mesh's pattern
    ``MembraneMesh.schur`` and factored once, here."""

    def __init__(self, K: sp.csr_matrix, mesh: MembraneMesh):
        self.K, self.free, pattern = K, mesh.free_nodes, mesh.schur
        table, skeleton = mesh.cell_nodes, mesh.cell_skeleton
        interior = (table >= 0) & ~skeleton
        self.kinds, blocks = [], []
        labels, rank = np.unique(mesh.cell_kind, return_inverse=True)
        for kind in range(len(labels)):
            cells = np.flatnonzero(rank == kind)
            inner, outer = np.flatnonzero(interior[cells[0]]), np.flatnonzero(skeleton[cells[0]])
            rep = table[cells[0], np.concatenate([inner, outer])]
            block = K[rep][:, rep]
            ni = len(inner)
            lu = _factor(block[:ni, :ni])
            K_IB = block[:ni, ni:].toarray()
            E = _solve(lu, K_IB)
            blocks.append(-(K_IB.T @ E))
            members = table[cells]
            self.kinds.append((members[:, inner], members[:, outer], lu, E))
        weights = np.concatenate([
            *(blocks[r].ravel() for r in rank[pattern["cells"]]), K.data[pattern["entries"]]
        ])
        self.skeleton, indices = pattern["nodes"], pattern["indices"]
        data = np.zeros(len(indices) + 1)
        np.add.at(data, pattern["slots"], weights)
        S = sp.csr_matrix((data[:-1], indices, pattern["indptr"]), shape=(len(self.skeleton),) * 2)
        S.eliminate_zeros()  # cancelled entries, as on a grid, would only add fill to the LU
        self.lu = _factor(S)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """K v on the free dofs, through the full matrix."""
        u = np.zeros(self.K.shape[0])
        u[self.free] = v
        return (self.K @ u)[self.free]

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """K~^-1 r on the free dofs: interiors, skeleton, back to interiors."""
        n = self.K.shape[0]
        g = np.zeros(n)
        g[self.free] = r
        interior = []
        for inner, outer, lu, E in self.kinds:
            r_inner = g[inner]
            interior.append(_solve(lu, r_inner.T).T)
            g -= np.bincount(outer.ravel(), weights=(r_inner @ E).ravel(), minlength=n)
        x = np.zeros(n)
        x[self.skeleton] = _solve(self.lu, g[self.skeleton])
        for (inner, outer, lu, E), y in zip(self.kinds, interior):
            x[inner] = y - x[outer] @ E.T
        return x[self.free]

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        """The solution for the free-dof load b and the iteration count."""
        shape = (len(b), len(b))
        K = spla.LinearOperator(shape, matvec=self.matvec, dtype=float)
        M = spla.LinearOperator(shape, matvec=self.precondition, dtype=float)
        maxiter = int(50 * np.sqrt(len(b))) + 10
        iterations = 0

        def counted(xk):
            nonlocal iterations
            iterations += 1

        x, info = spla.cg(K, b, rtol=CG_RTOL, maxiter=maxiter, M=M, callback=counted)
        if info != 0:
            raise SolverDivergence(f"CG did not converge (info {info}, {iterations} iterations)")
        return x, iterations


def _solver(system: DiscreteSystem) -> _Condensed:
    """The condensed solver of the system's matrix and mesh, built once and
    kept in ``system.solver``."""
    parts = (system.matrix, system.mesh)
    if not system.solver or any(a is not b for a, b in zip(system.solver[0], parts)):
        system.solver[:] = [parts, _Condensed(*parts)]
    return system.solver[1]


def solve(system: DiscreteSystem) -> FemSolution:
    """CG on the free degrees of freedom, preconditioned by the cell
    interiors condensed per kind (see the module docstring)."""
    u = np.zeros(len(system.load))
    cg = _solver(system)
    b = system.load[cg.free]
    norm = np.linalg.norm(b)
    if norm == 0.0:
        return FemSolution(values=u, mesh=system.mesh, residual=0.0)
    x, iterations = cg.solve(b)
    u[cg.free] = x
    residual = float(np.linalg.norm(b - cg.matvec(x)) / norm)
    return FemSolution(values=u, mesh=system.mesh, iterations=iterations, residual=residual)


def p1_gradient(mesh: MembraneMesh, values: np.ndarray) -> np.ndarray:
    """Piecewise-constant gradient (nt, 2), from the basis gradients ``mesh.grads``."""
    return np.einsum("tid,ti->td", mesh.grads, values[mesh.triangles])


def norms(sol: FemSolution, gradient: np.ndarray = None) -> dict:
    """W-norm components: gradient L2 per region and interface jump L2;
    ``gradient`` is the solution's ``p1_gradient`` when the caller has it."""
    mesh = sol.mesh
    areas = mesh.areas
    g = p1_gradient(mesh, sol.values) if gradient is None else gradient
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


def flux_pairing(
    sol: FemSolution, tensor: np.ndarray, fields, gradient: np.ndarray = None
) -> list[float]:
    """int_D (chi+ A grad(u+) + chi- A grad(u-)) . psi by centroid quadrature,
    for each psi in ``fields``, the test field's vectors (nt, 2) at the mesh's
    centroids, with A the per-triangle ``tensor`` (as
    ``BilinearFormSpec.tensor`` evaluates it).  ``gradient`` is the
    solution's ``p1_gradient`` when the caller has it."""
    mesh, areas = sol.mesh, sol.mesh.areas
    g = p1_gradient(mesh, sol.values) if gradient is None else gradient
    flux = np.einsum("tij,tj->ti", tensor, g)
    return [float(np.einsum("t,ti,ti->", areas, flux, psi)) for psi in fields]
