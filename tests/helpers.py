"""Quantities only the tests read: a mesh's triangles as one flat list and
its rows in the order the readers sum them, the arrays a mesh stores and
their bytes, per-triangle conductivities, a mesh's skeleton, a mesh with
every cell its own kind, the fluxes of every cell of a corrector, the
lattice shift of the Bernoulli field and map, the exact A0 of the periodic
identity cell, the matrices the condensed solver factors, the fill of the
skeleton's Schur complement in two orders, and the forks of a CLI run."""

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import membrane_homog.fem as fem
from membrane_homog.corrector import _corrector_solutions
from membrane_homog.geometry import BernoulliCellwiseMap, BernoulliField


class Flat(NamedTuple):
    """A mesh's triangles as one list: ``triangles`` (nt, 3) their nodes,
    ``region`` (nt,), ``cell`` (nt,) each one's row of the cell table,
    ``local`` (nt,) its rank among its cell's triangles, ``prototype`` (nt,)
    its row of the mesh's prototypes, and ``areas`` (nt,) its prototype's
    area."""

    triangles: np.ndarray
    region: np.ndarray
    cell: np.ndarray
    local: np.ndarray
    prototype: np.ndarray
    areas: np.ndarray


def flat_triangles(mesh):
    """The triangles of ``mesh`` as one list, cell by cell in table order,
    each cell's in its class's order (``CellLinks.corners``): on a tiling the
    order it was built in."""
    count = np.array([len(mesh.links[k].region) for k in mesh.cell_links], dtype=np.intp)
    start, nt = np.cumsum(count) - count, int(count.sum())
    tri, region = np.zeros((nt, 3), dtype=np.int32), np.zeros(nt, dtype=np.int8)
    prototype = np.zeros(nt, dtype=np.intp)
    for kind in mesh.kinds:
        t = len(kind.links.region)
        at = (start[kind.cells][:, None] + np.arange(t)).ravel()
        tri[at] = mesh.cell_nodes[kind.cells][:, kind.links.corners].reshape(-1, 3)
        region[at] = np.tile(kind.links.region, len(kind.cells))
        prototype[at] = np.tile(np.arange(kind.protos.start, kind.protos.stop), len(kind.cells))
    cell = np.repeat(np.arange(len(count), dtype=np.int32), count)
    return Flat(tri, region, cell, np.arange(nt) - start[cell], prototype,
                mesh.proto_areas[prototype])


def flat_runs(mesh, inside=None):
    """The rows of ``flat_triangles(mesh)`` in the order the readers sum
    them: kind by kind, a run of cells at a time (``MembraneMesh.runs``,
    over the cells the mask ``inside`` marks, if given), each run's rows as
    (cells, cell triangles)."""
    count = np.array([len(mesh.links[k].region) for k in mesh.cell_links], dtype=np.intp)
    start = np.cumsum(count) - count
    for kind in mesh.kinds:
        for cells, _ in mesh.runs(kind, inside):
            yield start[cells][:, None] + np.arange(len(kind.links.region))


def stored_arrays(owner, path="mesh"):
    """(path, array) of every array ``owner`` holds: its fields, recursively
    through tuples, NamedTuples and dataclasses (links, kinds, fronts)."""
    if isinstance(owner, np.ndarray):
        yield path, owner
    elif hasattr(owner, "_fields"):  # a NamedTuple: a kind or a batch of fronts
        for key, value in zip(owner._fields, owner):
            yield from stored_arrays(value, f"{path}.{key}")
    elif isinstance(owner, tuple):
        for i, item in enumerate(owner):
            yield from stored_arrays(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(owner):
        for key, value in vars(owner).items():
            yield from stored_arrays(value, f"{path}.{key}")


def own_bytes(mesh) -> int:
    """The bytes of the arrays ``mesh`` stores (``stored_arrays``: its own,
    its links', its kinds' and its fronts'), each array counted once."""
    return sum({id(a): a.nbytes for _, a in stored_arrays(mesh)}.values())


def form_tensor(form, mesh):
    """The per-triangle conductivity of ``form`` on ``mesh``, in the order of
    ``flat_triangles``: its ``proto_tensor`` gathered by each triangle's
    prototype."""
    return np.take(form.proto_tensor(mesh), flat_triangles(mesh).prototype, axis=0)


def flat_gradient(mesh, values, flat=None):
    """The P1 gradient (nt, 2) of the nodal ``values`` on each triangle of
    ``flat_triangles``, from its prototype's basis gradients."""
    flat = flat_triangles(mesh) if flat is None else flat
    return np.einsum("tid,ti->td", mesh.proto_grads[flat.prototype], values[flat.triangles])


def skeleton(mesh):
    """The nodes on a cell boundary of ``mesh``, sorted: those on the mesh
    boundary, in no cell or in more than one, counted in the cell table."""
    on = np.bincount(mesh.cell_nodes[mesh.cell_nodes >= 0], minlength=mesh.num_vertices) != 1
    on[mesh.boundary_nodes] = True
    return np.flatnonzero(on)


def cellwise(mesh):
    """``mesh`` with every cell its own kind, sharing its topology."""
    return mesh.with_kinds(np.arange(len(mesh.cells)))


def cell_sides(corr):
    """(nc, side MINUS/PLUS, 2) int over Phi(Y_k^-) and Phi(Y_k^+) of A (p +
    grad w) of the corrector ``corr``, every cell."""
    every = np.ones(len(corr.mesh.cells), dtype=bool)
    return _corrector_solutions([corr.sol], [corr.p], every, fem.BilinearFormSpec())[0].window_sides


def flux_plus(corr):
    """(nc, 2) int over Phi(Y_k^+) of A (p + grad w)."""
    return cell_sides(corr)[:, 1]


def flux_minus(corr):
    """(nc, 2) int over Phi(Y_k^-) of A (p + grad w)."""
    return cell_sides(corr)[:, 0]


@dataclass(frozen=True)
class ShiftedField(BernoulliField):
    """The Bernoulli field shifted by the lattice vector ``shift``: at cell k
    it reads the bit of cell k + shift."""

    shift: tuple = (0, 0)

    def bits(self, kx, ky):
        return super().bits(np.asarray(kx, dtype=np.int64) + self.shift[0],
                            np.asarray(ky, dtype=np.int64) + self.shift[1])


class ShiftedMap(BernoulliCellwiseMap):
    """The Bernoulli map of seed ``seed`` shifted by ``shift``: it bumps cell
    k where the unshifted map bumps cell k + shift."""

    def __init__(self, seed, amplitude, shift):
        super().__init__(seed, amplitude)
        self.shift = np.asarray(shift, dtype=float)

    def bumped(self, k):
        return super().bumped(k + self.shift)



def trefftz_a0(modes):
    """A0_11 of the periodic unit cell of ``periodic_cell_solve``, a centred
    disk of radius a = 0.25 (``InterfaceSpec``'s) with conductivity 1 on
    both sides and membrane conductance gamma = 1 (jump weight 1), and the
    largest collocation residual: a least-squares Trefftz collocation.

    Outside the disk the potential is Re sum_n c_n (z^n + beta_n z^-n) over
    the odd n < 2 ``modes``, with beta_n = a^2n t_n / (2 + t_n) and
    t_n = n / (gamma a), which meets flux continuity and the jump condition
    on the circle (inside, each mode is a multiple of r^n cos n theta).  By
    symmetry the cell problem for the mean gradient e1 is u = 1/2 on x = 1/2
    and du/dy = 0 on y = 1/2, fitted at 200 midpoints of each half side;
    A0_11 is the flux through x = 1/2."""
    a, gamma, points = 0.25, 1.0, 200
    n = np.arange(1, 2 * modes, 2)
    t = n / (gamma * a)
    beta = a ** (2 * n) * t / (2.0 + t)
    s = (np.arange(points) + 0.5) / (2 * points)

    def potential(z):
        return (z[:, None] ** n + beta * z[:, None] ** -n).real

    def derivative(z):  # d/dz of each mode: du/dx is its real part, du/dy minus its imaginary
        return n * z[:, None] ** (n - 1) - n * beta * z[:, None] ** (-n - 1)

    M = np.vstack([potential(0.5 + 1j * s), -derivative(s + 0.5j).imag])
    rhs = np.concatenate([np.full(points, 0.5), np.zeros(points)])
    scale = np.linalg.norm(M, axis=0)
    c = np.linalg.lstsq(M / scale, rhs, rcond=None)[0] / scale
    y, w = np.polynomial.legendre.leggauss(64)  # Gauss points on [0, 1/2] and back to [-1/2, 1/2]
    flux = 0.5 * w @ (derivative(0.5 + 0.25j * (y + 1.0)).real @ c)
    return float(flux), float(np.abs(M @ c - rhs).max())


def factored(system):
    """The fronts and the summed row blocks of each matrix ``fem._Condensed``
    factors for ``system``, in turn: each kind's interior, then the Schur
    complement S on the free skeleton."""
    calls, cholesky = [], fem._cholesky
    fem._cholesky = lambda fronts, data: calls.append((fronts, data.copy())) or cholesky(fronts, data)
    try:
        fem._Condensed(system.cell_matrices, system.mesh)
    finally:
        fem._cholesky = cholesky
    return calls


def fronts_matrix(fronts, data):
    """The symmetric matrix (scipy CSR, in elimination order) whose row
    blocks in ``fronts`` are ``data``, as ``fem._cholesky`` takes them: each
    front's pivot block in full and its pivot rows' update columns, mirrored
    below the diagonal."""
    import scipy.sparse as sp

    rows, cols, values = [], [], []
    for batch in fronts.batches:
        (g, nj), columns = batch.rows.shape, np.concatenate([batch.rows, batch.update], axis=1)
        r, c = np.broadcast_arrays(batch.rows[:, :, None], columns[:, None, :])
        v = data[batch.lo:batch.hi].reshape(r.shape)
        rows += [r.ravel(), c[:, :, nj:].ravel()]
        cols += [c.ravel(), r[:, :, nj:].ravel()]
        values += [v.ravel(), v[:, :, nj:].ravel()]
    m = len(fronts.nodes)
    return sp.csr_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(m, m))


def skeleton_fills(system):
    """The factor entries and factor seconds of the Schur complement S that
    ``fem._Condensed`` sums on the free skeleton of ``system``: under
    ``"stored"``, the entries of the factor L the solver stores (each
    front's pivot block's lower triangle and its pivot rows' update
    columns), in the mesh's stored nested-dissection order; under
    ``"mmd"``, L.nnz of SuperLU's complete LU of S with its nodes sorted and
    its zero entries dropped, in the minimum-degree order of S + S^T
    (``MMD_AT_PLUS_A``)."""
    import scipy.sparse.linalg as spla

    fronts, data = factored(system)[-1]
    start = time.perf_counter()
    fem._cholesky(fronts, data.copy())
    stored = (sum(len(b.rows) * (b.rows.shape[1] * (b.rows.shape[1] + 1) // 2
                                 + b.rows.shape[1] * b.update.shape[1]) for b in fronts.batches),
              time.perf_counter() - start)
    order = np.argsort(fronts.nodes)
    ranked = fronts_matrix(fronts, data)[order][:, order].tocsc()
    ranked.eliminate_zeros()
    start = time.perf_counter()
    lu = spla.splu(ranked, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return {"stored": stored, "mmd": (lu.L.nnz, time.perf_counter() - start)}


def counted_forks(monkeypatch, cpus: int) -> list:
    """Gives this process ``cpus`` CPUs (what ``--jobs`` is capped at) and
    returns the list that each later ``os.fork`` call appends its caller's
    pid to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks
