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
cell) and gathered per triangle where they are used, the loads one corner
at a time; a system keeps its conductivity per prototype.  ``assemble``
sums, per kind, the element matrices of the kind's first cell and the jump
matrices of its interface edges into one sparse cell matrix over the
columns of the cell table, through the links the mesh takes once per
topology class (``MembraneMesh.links``).  The matrix of the system is the
sum over the cells of their kind's matrix, each through its row of the
table; no step of a solve assembles it, and ``DiscreteSystem.matrix`` does
so only when read.  That is exact under the workbench's contract on the
conductivity, the paper's periodic medium: on a tiling it repeats from cell
to cell in the reference coordinate, as both presets do, and on the square
grid, whose cells are 16 x 16 blocks of squares, it is constant, as
``homogenize.homog_form``'s is.

``solve`` applies, on the free dofs, the inverse of K, condensed per kind:
cells of one kind (``MembraneMesh.cell_kind``) share one cell matrix, so one
Cholesky factor of its interior block serves them all, and the only other
factorization is that of the Schur complement S on the free dofs of the cell
skeleton, the nodes on a cell boundary (``MembraneMesh.cell_skeleton``
marks them).  Each kind's Schur block over its skeleton nodes, its skeleton
block K_BB less the condensed interior, is summed cell by cell into S, in
runs.  Both factors are one routine's, ``_cholesky``: a multifrontal
Cholesky (Duff and Reid, ACM TOMS 1983) with dense fronts on a nested
dissection tree, whose symbolic structure (``meshing.Fronts``) the mesh
builds once per topology: the skeleton's fronts in nested-dissection order
along the lattice lines (``MembraneMesh.schur``), each topology class's
interior by coordinate bisection (``CellLinks.interior``).  Per front it
keeps C^-1, C the Cholesky factor of its pivot block F_JJ, and
W^T = C^-1 F_Js, and extends F_ss - W W^T into its parent's front; fronts
of one level and shape are factored and solved as one stack.  A pivot block
that is not positive definite raises ``SolverDivergence``.  One application
solves the system up to rounding.  The solve checks the true residual
|b - K x| / |b|, which it computes kind by kind through the cell table, and
refines with x += K~^-1 (b - K x) while it is above RTOL, K~^-1 the
condensed inverse, and raises ``SolverDivergence`` if it still is after
APPLICATIONS applications.  The set-up is built once per set of cell
matrices: copies of a system that differ only in their load
(``dataclasses.replace``) share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonEllipticField, SolverDivergence
from .meshing import MINUS, PLUS, Fronts, MembraneMesh, triangle_centroids

RTOL = 1e-10  # relative residual |b - K x| / |b| a solve must reach
APPLICATIONS = 3  # applications of K~^-1 a solve makes before it raises
RUN = 2**14  # float entries in one run's buffer: the Schur sum and the residual go run by run
FRONTS = 2**15  # float entries of the update matrices a factor stacks at once


def __getattr__(name):
    """``spla``, scipy.sparse.linalg, imported when first read: for the
    benchmark's tracer only, which wraps it; no solve reads it."""
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    symmetric matrices with eigenvalues in [lam, Lam].  It is evaluated at
    the prototypes' reference centroids only, so it must repeat from cell to
    cell: on a tiling in the reference coordinate, as both presets do, and
    on the square grid it must be constant, as ``homog_form``'s is (see the
    module docstring).
    """

    conductivity: Callable[[np.ndarray], np.ndarray] = identity_field
    jump_weight: float = 0.0
    mass_weight: float = 0.0
    lam: float = 1.0
    Lam: float = 1.5

    def proto_tensor(self, mesh: MembraneMesh) -> np.ndarray:
        """The conductivity of each prototype of ``mesh`` (rows of its
        ``prototypes``): its value at the prototype's reference centroid,
        ellipticity checked by those sampled eigenvalues."""
        ref = triangle_centroids(mesh.ref_vertices, mesh.triangles[mesh.prototypes])
        A = self.conductivity(ref)
        if np.abs(A[:, 0, 1] - A[:, 1, 0]).max() > 1e-12:
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
    """The form's cell matrices and load on ``mesh`` (the mesh assembled
    on); ``proto_tensor`` is the form's conductivity per prototype of
    ``mesh``, evaluated once by assemble.  ``cell_matrices`` holds one
    matrix per kind of cell (``mesh.cell_kind``, labels in increasing
    order), over the columns of the cell table: the matrix of every cell of
    the kind, which the table maps to the cell's nodes, as its entries at
    the ``pairs`` of the kind's ``CellLinks``.  The system's matrix is their
    sum over the cells; ``matrix`` assembles it on first access, and the
    solve never does.  The solution is zero on ``fixed``, the mesh's
    boundary nodes, and unknown on ``free``, the mesh's ``free_nodes``.
    ``solver`` holds the set-up ``solve`` builds on first use; copies made
    by ``dataclasses.replace`` share it, and it is rebuilt for a copy with
    other cell matrices or another mesh."""

    cell_matrices: tuple
    load: np.ndarray
    mesh: MembraneMesh
    proto_tensor: np.ndarray
    solver: list = field(default_factory=list, repr=False)

    @functools.cached_property
    def matrix(self):
        """The global matrix as a scipy CSR matrix, the sum over the cells
        of their kind's matrix: an entry for every node pair of a triangle
        or an interface edge, and a zero diagonal entry for each node in no
        triangle; assembled on first access and kept.  For the benchmark and
        the tests only, which count or check it: it imports scipy.sparse, and
        no solve reads it."""
        import scipy.sparse

        mesh, nv = self.mesh, self.mesh.num_vertices
        _, first, rank = np.unique(mesh.cell_kind, return_index=True, return_inverse=True)
        lone = np.flatnonzero(np.bincount(mesh.triangles.ravel(), minlength=nv) == 0)
        rows, cols, data = [lone], [lone], [np.zeros(len(lone))]
        for kind, K in enumerate(self.cell_matrices):
            pairs, nodes = mesh.links[mesh.cell_links[first[kind]]].pairs, mesh.cell_nodes[rank == kind]
            rows.append(nodes[:, pairs[:, 0]].ravel())
            cols.append(nodes[:, pairs[:, 1]].ravel())
            data.append(np.tile(K, len(nodes)))
        entries = (np.concatenate(rows), np.concatenate(cols))
        return scipy.sparse.csr_matrix((np.concatenate(data), entries), shape=(nv, nv))

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
    """Nodal values on ``mesh``; ``proto_tensor`` is the conductivity per
    prototype of the system they solve (rows of ``mesh.prototypes``), when
    the caller attached it.  A solve records its ``iterations``, the
    applications of K~^-1 it made, and its true relative ``residual``
    |b - K x| / |b| over the free dofs."""

    values: np.ndarray
    mesh: MembraneMesh
    iterations: int = 0
    proto_tensor: np.ndarray = None
    residual: float = None


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


def jump_element_matrices(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """P1 matrices (ne, 4, 4) of int_e (u+ - u-)(v+ - v-) ds on each interface
    edge, over its dofs (plus_a, plus_b, minus_a, minus_b), with the edge
    length taken from ``vertices`` (exact for P1)."""
    L = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    return (L / 6.0)[:, None, None] * _JUMP_BASE


def edge_jump_energy(vertices: np.ndarray, edges: np.ndarray, values) -> np.ndarray:
    """int_e (u+ - u-)^2 ds per interface edge (unweighted), u the nodal
    ``values``."""
    u = values[edges]
    return np.einsum("ei,eij,ej->e", u, jump_element_matrices(vertices, edges), u)


def _scatter_corners(mesh: MembraneMesh, loads) -> np.ndarray:
    """The nodal vector of per-triangle corner ``loads``, one (nt,) array per
    corner in turn, summed corner by corner with ``np.add.at``: no (3, nt)
    buffer and no np.intp copy of the int32 corners."""
    b = np.zeros(mesh.num_vertices)
    for corner, load in zip(mesh.triangles.T, loads):
        np.add.at(b, corner, load)
    return b


def volume_load(mesh: MembraneMesh, f) -> np.ndarray:
    """int f phi_i with f constant per triangle (centroid value)."""
    if callable(f):
        fc = f(triangle_centroids(mesh.vertices, mesh.triangles))
    else:
        fc = np.full(mesh.num_triangles, float(f))
    contrib = mesh.areas * fc / 3.0
    return _scatter_corners(mesh, (contrib,) * 3)


def gradient_load(mesh: MembraneMesh, proto_tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """-int A p . grad(phi_i), the corrector load for mean gradient p,
    computed on the prototypes and gathered per triangle one corner at a
    time, with A the conductivity per prototype of ``mesh``
    (``DiscreteSystem.proto_tensor``)."""
    p = np.asarray(p, dtype=float)
    Ap = proto_tensor[:, :, 0] * p[0] + proto_tensor[:, :, 1] * p[1]
    a, g = mesh.proto_areas, mesh.proto_grads
    contrib = -((a * Ap[:, 0])[:, None] * g[:, :, 0] + (a * Ap[:, 1])[:, None] * g[:, :, 1])
    return _scatter_corners(mesh, (np.take(c, mesh.tri_prototype) for c in contrib.T))


def assemble(mesh: MembraneMesh, spec: BilinearFormSpec, f=None, p=None) -> DiscreteSystem:
    """Full transmission form with volume source f and/or corrector load p.

    The element matrices are computed once per prototype of ``mesh``, and
    each kind's cell matrix sums those of the kind's first cell, its
    triangles' and its interface edges', through the cell's ``links``.
    """
    A = spec.proto_tensor(mesh)
    Ke = stiffness_elements(mesh.proto_grads, mesh.proto_areas, A).reshape(-1, 9)
    if spec.mass_weight != 0.0:
        Ke += (spec.mass_weight * mesh.proto_areas)[:, None] * _MASS_BASE.ravel()
    _, first = np.unique(mesh.cell_kind, return_index=True)
    matrices, start = [], 0
    for cell in first:  # the kinds in turn, as their prototypes are
        links = mesh.links[mesh.cell_links[cell]]
        end = start + len(links.tri)
        jump = jump_element_matrices(mesh.vertices, mesh.cell_nodes[cell][links.edge_columns])
        jump *= spec.jump_weight
        matrices.append(np.bincount(np.concatenate([links.tri.ravel(), links.edge.ravel()]),
                                    weights=np.concatenate([Ke[start:end].ravel(), jump.ravel()]),
                                    minlength=len(links.pairs)))
        start = end
    b = np.zeros(mesh.num_vertices)
    if f is not None:
        b += volume_load(mesh, f)
    if p is not None:
        b += gradient_load(mesh, A, p)
    return DiscreteSystem(cell_matrices=tuple(matrices), load=b, mesh=mesh, proto_tensor=A)


def _cholesky(fronts: Fronts, data: np.ndarray) -> np.ndarray:
    """The Cholesky factor L L^T of the symmetric positive definite matrix
    whose row blocks in ``fronts`` are ``data`` (``fronts.size`` entries and
    the dropped summands' slot), computed batch by batch, in place.  Each
    front adds its row block to its frontal matrix F, into which its
    children have added their update matrices, factors its pivot block
    F_JJ = C C^T and keeps C^-1 and W^T = C^-1 F_Js in its row block; its
    update matrix F_ss - W W^T, made FRONTS entries at a time, goes to its
    parent's frontal matrix, which is allocated, with its batch's, when the
    first child sends one.  A front without children has no frontal matrix
    beyond its row block.  Raises SolverDivergence where a pivot block is
    not positive definite."""
    frontal = {}
    for b, batch in enumerate(fronts.batches):
        (g, nj), ns = batch.rows.shape, batch.update.shape[1]
        block, F = data[batch.lo:batch.hi].reshape(g, nj, nj + ns), frontal.pop(b, None)
        if F is not None:
            block += F[:, :nj]  # the frontal matrices' pivot rows
        try:
            C = np.linalg.cholesky(block[:, :, :nj].transpose(0, 2, 1))  # reads the upper half
        except np.linalg.LinAlgError:
            raise SolverDivergence("a pivot block of the factor is not positive definite") from None
        block[:, :, :nj] = _lower_inverse(C)
        block[:, :, nj:] = np.matmul(block[:, :, :nj], block[:, :, nj:])
        if not ns:
            continue
        step = max(1, FRONTS // (ns * ns))  # fronts per update stack
        ends = np.flatnonzero(np.diff(batch.parent, append=-2))  # each parent batch's last front
        for first, last in zip(np.append(0, ends[:-1] + 1), ends + 1):
            p = batch.parent[first]
            if p not in frontal:
                n = fronts.batches[p].rows.shape[1] + fronts.batches[p].update.shape[1]
                frontal[p] = np.zeros((len(fronts.batches[p].rows), n, n))
            target, n = frontal[p].reshape(-1), frontal[p].shape[1]
            for lo in range(first, last, step):
                run = slice(lo, min(lo + step, last))
                U = np.matmul(block[run, :, nj:].transpose(0, 2, 1), block[run, :, nj:])
                if F is None:
                    np.negative(U, out=U)
                else:
                    np.subtract(F[run, nj:, nj:], U, out=U)
                r = batch.relative[run]
                start = (batch.at[run] * n * n)[:, None] + r * n  # each update row's place
                np.add.at(target, (start[:, :, None] + r[:, None, :]).ravel(),
                          U.ravel())  # 1-D: numpy's fast loop
    return data


def _lower_inverse(C: np.ndarray) -> np.ndarray:
    """The inverse of each lower-triangular matrix of a stack (g, n, n) with
    a positive diagonal: row by row up to 8 x 8, else by halves,
    [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]], the two halves
    of every matrix inverted as one stack (the smaller padded with 1)."""
    g, n, _ = C.shape
    X = np.zeros_like(C)
    if n <= 8:
        for i in range(n):
            X[:, i, i] = 1.0 / C[:, i, i]
            X[:, i, :i] = np.einsum("gk,gkj->gj", C[:, i, :i], X[:, :i, :i]) * -X[:, i, i, None]
        return X
    top = n // 2
    halves = np.zeros((2 * g, n - top, n - top))
    halves[:g, :top, :top] = C[:, :top, :top]
    halves[:g, top:, top:] = 1.0  # at most one entry, where n is odd
    halves[g:] = C[:, top:, top:]
    halves = _lower_inverse(halves)
    X[:, :top, :top], X[:, top:, top:] = halves[:g, :top, :top], halves[g:]
    X[:, top:, :top] = -np.matmul(halves[g:], C[:, top:, :top]) @ halves[:g, :top, :top]
    return X


def _cholesky_solve(fronts: Fronts, data: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 applied to each row of b (k, m), in elimination order, with
    the factor ``data`` of ``_cholesky``, in place if b is C-contiguous, else
    in a copy: L y = b batch by batch, deepest level first, then L^T x = y
    in the reverse order."""
    b = np.ascontiguousarray(b)
    k, m = b.shape
    rhs = (m * np.arange(k))[:, None, None]  # each row's start in b's data
    for batch in fronts.batches:
        (g, nj), rows, update = batch.rows.shape, batch.rows, batch.update
        D = data[batch.lo:batch.hi].reshape(g, nj, -1)
        y = np.matmul(b[:, rows].transpose(1, 0, 2), D[:, :, :nj].transpose(0, 2, 1))
        b[:, rows] = y.transpose(1, 0, 2)
        if update.shape[1]:
            np.subtract.at(b.reshape(-1), (rhs + update).ravel(),
                           np.matmul(y, D[:, :, nj:]).transpose(1, 0, 2).ravel())
    for batch in reversed(fronts.batches):
        (g, nj), rows, update = batch.rows.shape, batch.rows, batch.update
        D = data[batch.lo:batch.hi].reshape(g, nj, -1)
        y = b[:, rows].transpose(1, 0, 2)
        if update.shape[1]:
            y = y - np.matmul(b[:, update].transpose(1, 0, 2), D[:, :, nj:].transpose(0, 2, 1))
        b[:, rows] = np.matmul(y, D[:, :, :nj]).transpose(1, 0, 2)
    return b


class _Condensed:
    """The residual of the matrix of the cell matrices ``matrices`` (one per
    kind of ``mesh``, as ``DiscreteSystem.cell_matrices``) on the free dofs,
    and the inverse of that matrix with its cell interiors condensed per
    kind.

    Per kind it keeps the cells' interior and skeleton nodes, interior first
    (rows of the cell table, in those columns of the kind's ``CellLinks``:
    its interior fronts' nodes, then ``outer``), the kind's matrix laid
    out row by row (its links' ``band``: each row's place in those columns,
    its entries and their columns), the Cholesky factor of its interior
    block A and E = A^-1 K_IB.  The skeleton block of the inverse is the inverse of the
    Schur complement S, on the free skeleton dofs, of the sum over the cells
    of their kind's Schur block K_BB - K_BI E: each kind's block is padded
    once to the widest cell's count of skeleton nodes and summed cell by
    cell into the row blocks of the mesh's ``schur`` fronts, through their
    slots, about RUN entries per ``np.add.at``, which sums in np.bincount's
    order and makes no np.intp copy of the int32 slots; S is factored
    once, here.  The node sets the solve indexes by are kept as np.intp, so
    indexing does not cast the int32 topology."""

    def __init__(self, matrices: tuple, mesh: MembraneMesh):
        self.n, self.free, self.fronts = mesh.num_vertices, mesh.free_nodes.astype(np.intp), mesh.schur
        table, skeleton = mesh.cell_nodes, mesh.cell_skeleton
        self.kinds = []
        _, first, rank = np.unique(mesh.cell_kind, return_index=True, return_inverse=True)
        w = skeleton.sum(axis=1).max(initial=0)  # the widest block
        blocks = np.zeros((len(matrices), w, w))  # each kind's Schur block, padded with zeros
        for kind, K in enumerate(matrices):
            links = mesh.links[mesh.cell_links[first[kind]]]
            inner, ni, nb = links.interior, len(links.interior.nodes), len(links.outer)
            factor = _cholesky(inner, np.bincount(inner.slots, weights=K, minlength=inner.size + 1))
            coupled = np.bincount(links.coupling, weights=K, minlength=(ni + nb) * nb + 1)
            K_IB = coupled[:ni * nb].reshape(ni, nb)
            E = _cholesky_solve(inner, factor, K_IB.T.copy()).T
            blocks[kind, :nb, :nb] = coupled[ni * nb:-1].reshape(nb, nb) - K_IB.T @ E
            columns = np.concatenate([inner.nodes, links.outer])
            at = np.zeros(table.shape[1], dtype=np.intp)  # each column's place in ``columns``
            at[columns] = np.arange(len(columns))
            pairs = np.append(links.pairs, [[0, 0]], axis=0)[links.band]  # (rows, longest row, 2)
            self.kinds.append((table[rank == kind][:, columns].astype(np.intp), ni, at[pairs[:, 0, 0]],
                               at[pairs[..., 1]], np.append(K, 0.0)[links.band], inner, factor, E))
        self.skeleton = self.fronts.nodes.astype(np.intp)
        data, slots = np.zeros(self.fronts.size + 1), self.fronts.slots
        if w:  # else no cell has a skeleton node
            step = max(1, RUN // (w * w))  # cells per run
            for lo in range(0, len(rank), step):
                np.add.at(data, slots[lo * w * w:(lo + step) * w * w],
                          blocks[rank[lo:lo + step]].ravel())
        self.factor = _cholesky(self.fronts, data)

    def residual(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """b - K x on the free dofs, kind by kind: each run of about RUN
        node values gathers its cells' values through the cell table,
        multiplies them row by row by the kind's matrix, its entries and
        their columns laid out as its links' ``band``, and adds the products
        back."""
        u, Ku = np.zeros(self.n), np.zeros(self.n)
        u[self.free] = x
        for nodes, ni, rows, cols, values, *_ in self.kinds:
            step = max(1, RUN // nodes.shape[1])  # cells per run
            for lo in range(0, len(nodes), step):
                run = nodes[lo:lo + step]
                products = np.einsum("rk,crk->cr", values, u[run][:, cols])  # (cells, rows)
                np.add.at(Ku, run[:, rows].ravel(), products.ravel())
        return b - Ku[self.free]

    def inverse(self, r: np.ndarray) -> np.ndarray:
        """K~^-1 r on the free dofs: interiors, skeleton, back to interiors."""
        n = self.n
        g = np.zeros(n)
        g[self.free] = r
        interior = []
        for nodes, ni, *_, inner, factor, E in self.kinds:
            r_inner = g[nodes[:, :ni]]
            g -= np.bincount(nodes[:, ni:].ravel(), weights=(r_inner @ E).ravel(), minlength=n)
            interior.append(_cholesky_solve(inner, factor, r_inner))
        x = np.zeros(n)
        x[self.skeleton] = _cholesky_solve(self.fronts, self.factor, g[self.skeleton][None])[0]
        for (nodes, ni, *_, E), y in zip(self.kinds, interior):
            x[nodes[:, :ni]] = y - x[nodes[:, ni:]] @ E.T
        return x[self.free]


def _solver(system: DiscreteSystem) -> _Condensed:
    """The condensed solver of the system's cell matrices and mesh, built
    once and kept in ``system.solver``."""
    parts = (system.cell_matrices, system.mesh)
    if not system.solver or any(a is not b for a, b in zip(system.solver[0], parts)):
        system.solver[:] = [parts, _Condensed(*parts)]
    return system.solver[1]


def solve(system: DiscreteSystem) -> FemSolution:
    """K~^-1 applied to the free load and refined with the true residual
    until it is within RTOL (see the module docstring)."""
    u = np.zeros(len(system.load))
    solver = _solver(system)
    b = system.load[solver.free]
    norm = np.linalg.norm(b)
    if norm == 0.0:
        return FemSolution(values=u, mesh=system.mesh, residual=0.0)
    x, r = np.zeros(len(b)), b
    for applications in range(1, APPLICATIONS + 1):
        x += solver.inverse(r)
        r = solver.residual(x, b)
        residual = float(np.linalg.norm(r) / norm)
        if residual <= RTOL:
            u[solver.free] = x
            return FemSolution(values=u, mesh=system.mesh, iterations=applications,
                               residual=residual)
    raise SolverDivergence(
        f"relative residual {residual:.3g} above {RTOL:g} after {APPLICATIONS} "
        "applications of the condensed inverse")


def p1_gradient(mesh: MembraneMesh, values: np.ndarray, tris=slice(None)) -> np.ndarray:
    """Piecewise-constant gradient on the triangles ``tris`` (an index array
    or a slice; default all, (nt, 2)), from the prototypes' basis gradients."""
    return np.einsum("tid,ti->td", np.take(mesh.proto_grads, mesh.tri_prototype[tris], axis=0),
                     values[mesh.triangles[tris]])


def norms(sol: FemSolution) -> dict:
    """W-norm components of the solution: gradient L2 per region and
    interface jump L2."""
    mesh = sol.mesh
    areas, g = mesh.areas, p1_gradient(mesh, sol.values)
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
    for each psi in ``fields``, the test field's vectors (nt, 2) at the mesh's
    centroids, with A the per-triangle ``tensor`` (``proto_tensor`` gathered
    by ``MembraneMesh.tri_prototype``); the mesh's areas and the
    solution's ``p1_gradient`` are gathered once for all fields."""
    mesh = sol.mesh
    areas, g = mesh.areas, p1_gradient(mesh, sol.values)
    flux = np.einsum("tij,tj->ti", tensor, g)
    return [float(np.einsum("t,ti,ti->", areas, flux, psi)) for psi in fields]
