"""Conforming membrane meshes: reference cell, tiled domain, truncated cube.

The reference cell is meshed once with the circular interface resolved as a
polyline of mesh edges and with interface nodes duplicated (independent PLUS
and MINUS copies).  Tiling deforms the cell template vertex-wise and stitches
shared boundary nodes, which works because every deformation map fixes cell
boundaries.

So a tiling's numbering, stitch, interface edges, cell indices, boundary,
free nodes, cell table, skeleton and the patterns of the matrix and of its
Schur complement on the skeleton depend only on the cell mesh, the lattice
block, its membrane mask and the scale: they are built once per process for
each such configuration (a small cache, as is the cell mesh for each
interface and h) and a realization only moves the nodes to their deformed
positions and names the kind of each cell.  ``fem`` reads these index sets
and builds none of its own beyond the kinds' columns.

Every mesh names the kind of each cell: a realization at most four (bumped
or not, membrane or cushion), the square grid one per shape of block.  The
cells of one kind are translates of each other, and the triangles of each
kind's first cell are the mesh's prototypes: their areas and basis gradients
are computed once and gathered per triangle where needed, and ``fem``
computes its element matrices and loads on them.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshQualityFailure, StitchFailure
from .geometry import DeformationMap, InterfaceSpec

PLUS = 1
MINUS = -1

MIN_ANGLE_DEG = 20.0
RING_GRADING = 1.0  # radial step multiplier for the outer blended rings
PAIRING_TOL = 1e-12
STITCH_TOL = 1e-12


def _edge_keys(triangles: np.ndarray, nv: int):
    """Per-triangle edge ends a -> b (edge k of triangle t at 3t+k) and the
    undirected edge key min*nv+max."""
    a = triangles.reshape(-1).astype(np.int64)
    b = triangles[:, [1, 2, 0]].reshape(-1).astype(np.int64)
    return a, b, np.minimum(a, b) * nv + np.maximum(a, b)


@dataclass(eq=False)
class MembraneMesh:
    """Triangulation with region tags and duplicated interface nodes.

    ``vertices`` are physical coordinates; ``ref_vertices`` are the matching
    reference-lattice coordinates: the vertices the mesh was built with, kept
    by the realizations of a tiling, as are the triangles' centroids there,
    ``ref_centroids``.  ``interface_pairs`` rows are (plus node, minus node)
    with coincident coordinates.

    Topology and geometry are derived once, at construction: ``cells`` are
    the distinct lattice cells of ``tri_cell`` in lexicographic order,
    ``tri_cell_index`` gives each triangle's row of ``cells``,
    ``interface_edges`` holds rows (plus_a, plus_b, minus_a, minus_b),
    ``edge_cell_index`` the row of ``cells`` each edge belongs to, and
    ``centroids`` (nt, 2) the physical centroids.  ``indptr`` and ``indices``
    (int32) are the CSR pattern of the transmission form's matrix, and
    ``slots`` (int32) the pattern position of every element entry: the 3 x 3
    entries of each triangle, row-major, then the 4 x 4 entries of each
    interface edge over (plus_a, plus_b, minus_a, minus_b).

    ``cell_kind`` (nc,) labels cells whose element matrices agree up to
    rounding (by default each cell is its own kind): cells of one kind have
    as many triangles, matched by ``tri_local`` (nt,), each triangle's rank
    among its cell's triangles.  ``prototypes`` are the triangles of each
    kind's first cell, in that cell's triangle order, whose geometry stands
    for the others: ``tri_prototype`` (nt,) gives each triangle's row of
    ``prototypes``, and ``proto_areas`` and ``proto_grads`` are the
    prototypes' areas and P1 basis gradients, which ``areas`` (nt,) and
    ``grads`` (nt, 3, 2) gather on each use.  ``memo`` holds the one fact
    ``fem`` keeps that depends on more than the topology: whether a
    conductivity repeats from cell to cell (``BilinearFormSpec.kinds``),
    shared with every other realization of the tiling.

    ``cell_nodes`` (nc, w) is the cell table: each cell's nodes, -1 where
    one is absent, in columns that match between cells of one kind; by
    default the nodes of each cell's triangles in increasing order.
    ``skeleton`` (sorted) holds the nodes on a cell boundary: those on the
    mesh boundary, in no cell or in more than one; every other node is
    interior to one cell.  ``cell_skeleton`` (nc, w) marks the table's
    skeleton nodes, ``free_nodes`` every node off ``boundary_nodes``: the
    dofs of every system on the mesh.

    ``schur`` (int32 arrays) is where ``fem`` sums the Schur complement S of
    a matrix in the mesh's pattern on the free skeleton nodes: ``nodes``,
    those nodes in order; ``indptr`` and ``indices``, S's CSR pattern over
    them; ``entries``, the matrix entries between two of them; ``cells``,
    the cells in the order their Schur blocks are summed (by their count of
    skeleton nodes); and ``slots``, the position in S's data of each
    summand: the Schur block of each cell of ``cells`` over its skeleton
    nodes in table column order, row-major, then the ``entries``.  A summand
    in a boundary row or column goes to the extra slot len(indices).

    The arrays are never mutated after construction; a realization of a
    tiling, and a copy with other kinds, shares them with the tiling's mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    tri_cell: np.ndarray
    interface_pairs: np.ndarray
    boundary_nodes: np.ndarray
    cell_nodes: np.ndarray = field(default=None, repr=False)
    cell_kind: np.ndarray = field(default=None, repr=False)
    ref_vertices: np.ndarray = field(init=False, repr=False)
    ref_centroids: np.ndarray = field(init=False, repr=False)
    cells: np.ndarray = field(init=False, repr=False)
    tri_cell_index: np.ndarray = field(init=False, repr=False)
    tri_local: np.ndarray = field(init=False, repr=False)
    interface_edges: np.ndarray = field(init=False, repr=False)
    edge_cell_index: np.ndarray = field(init=False, repr=False)
    centroids: np.ndarray = field(init=False, repr=False)
    prototypes: np.ndarray = field(init=False, repr=False)
    tri_prototype: np.ndarray = field(init=False, repr=False)
    proto_areas: np.ndarray = field(init=False, repr=False)
    proto_grads: np.ndarray = field(init=False, repr=False)
    memo: dict = field(init=False, repr=False, default_factory=dict)
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)
    slots: np.ndarray = field(init=False, repr=False)
    skeleton: np.ndarray = field(init=False, repr=False)
    cell_skeleton: np.ndarray = field(init=False, repr=False)
    free_nodes: np.ndarray = field(init=False, repr=False)
    schur: dict = field(init=False, repr=False)

    def __post_init__(self):
        lo = self.tri_cell.min(axis=0, initial=0)
        k = self.tri_cell - lo
        ny = k[:, 1].max(initial=0) + 1
        keys, self.tri_cell_index = np.unique(k[:, 0] * ny + k[:, 1], return_inverse=True)
        self.cells = np.column_stack([keys // ny, keys % ny]) + lo
        count = np.bincount(self.tri_cell_index, minlength=len(keys))
        self.tri_local = np.empty(self.num_triangles, dtype=np.int32)
        self.tri_local[np.argsort(self.tri_cell_index, kind="stable")] = (
            np.arange(self.num_triangles) - np.repeat(np.cumsum(count) - count, count))
        self.interface_edges, edge_tri = self._interface_edges()
        self.edge_cell_index = self.tri_cell_index[edge_tri]
        self.indptr, self.indices, self.slots = self._pattern()
        if self.cell_nodes is None:
            self.cell_nodes = self._cell_table()
        on = np.bincount(self.cell_nodes[self.cell_nodes >= 0], minlength=self.num_vertices) != 1
        on[self.boundary_nodes] = True
        self.skeleton = np.flatnonzero(on)
        self.cell_skeleton = np.append(on, False)[self.cell_nodes]  # absent nodes (-1) read False
        self.free_nodes = np.delete(np.arange(self.num_vertices), self.boundary_nodes)
        self.ref_vertices = self.vertices
        self._take_prototypes(np.arange(len(keys)) if self.cell_kind is None else self.cell_kind)
        self.centroids = self.ref_centroids = triangle_centroids(self.vertices, self.triangles)
        self.schur = self._schur_pattern()

    def _take_prototypes(self, kind: np.ndarray) -> None:
        """Make ``kind`` the cell kinds and the triangles of each kind's first
        cell the prototypes, with their geometry."""
        self.cell_kind = kind
        _, first, rank = np.unique(kind, return_index=True, return_inverse=True)
        on = np.flatnonzero(np.isin(self.tri_cell_index, first))  # the first cells' triangles
        self.prototypes = on[np.argsort(rank[self.tri_cell_index[on]], kind="stable")]
        kind_start = np.searchsorted(rank[self.tri_cell_index[self.prototypes]], rank)
        self.tri_prototype = kind_start[self.tri_cell_index] + self.tri_local
        self.proto_areas, self.proto_grads = triangle_geometry(
            self.vertices, self.triangles[self.prototypes])

    @property
    def areas(self) -> np.ndarray:
        return np.take(self.proto_areas, self.tri_prototype)

    @property
    def grads(self) -> np.ndarray:
        return np.take(self.proto_grads, self.tri_prototype, axis=0)

    def with_kinds(self, kind: np.ndarray, vertices: np.ndarray = None) -> "MembraneMesh":
        """A copy sharing the topology, with cell kinds ``kind`` (and nodes at
        ``vertices``; ``centroids`` stay this mesh's)."""
        out = copy.copy(self)
        out.vertices = self.vertices if vertices is None else vertices
        out._take_prototypes(kind)
        return out

    def cellwise(self) -> "MembraneMesh":
        """This mesh with every cell its own kind."""
        return self.with_kinds(np.arange(len(self.cells)))

    def _cell_table(self) -> np.ndarray:
        """The nodes of each cell's triangles in increasing order, padded
        with -1."""
        nv = self.num_vertices
        keys = np.sort(np.repeat(self.tri_cell_index, 3) * nv + self.triangles.ravel())
        keys = keys[np.diff(keys, prepend=-1) != 0]
        count = np.bincount(keys // nv, minlength=len(self.cells))
        table = np.full((len(self.cells), count.max(initial=0)), -1, dtype=np.int64)
        rank = np.arange(len(keys)) - np.repeat(np.cumsum(count) - count, count)
        table[keys // nv, rank] = keys % nv
        return table

    def _interface_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Interface edges and the MINUS triangle each comes from.

        Edges are the boundary edges of the MINUS region (edges of exactly one
        MINUS triangle) whose ends are both MINUS interface nodes, oriented as
        traversed by their MINUS triangle (counterclockwise around each
        membrane, so the MINUS outward normal is the tangent rotated by -90),
        sorted by their plus nodes.
        """
        minus_tri = np.flatnonzero(self.tri_region == MINUS)
        nv = self.num_vertices
        a, b, keys = _edge_keys(self.triangles[minus_tri], nv)
        _, inverse, count = np.unique(keys, return_inverse=True, return_counts=True)
        m2p = np.full(nv, -1, dtype=np.int64)
        m2p[self.interface_pairs[:, 1]] = self.interface_pairs[:, 0]
        on = np.flatnonzero((count[inverse] == 1) & (m2p[a] >= 0) & (m2p[b] >= 0))
        rows = np.column_stack([m2p[a[on]], m2p[b[on]], a[on], b[on]]).astype(np.int64)
        order = np.lexsort(rows.T[::-1])
        return rows[order], minus_tri[on // 3][order]

    def _pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``indptr`` and ``indices`` of the node pairs that share a
        triangle or an interface edge (each node with itself included), and
        the ``slots`` of the element entries (see the class docstring)."""
        nv = self.num_vertices
        t, e = self.triangles, self.interface_edges
        links = np.concatenate([_edge_keys(t, nv)[2], *(
            np.minimum(e[:, i], e[:, j]) * nv + np.maximum(e[:, i], e[:, j])
            for i in range(4) for j in range(i + 1, 4))])
        links = np.sort(links)  # deduplicated by hand: np.unique hashes here, over 10x slower
        links = links[np.diff(links, prepend=-1) != 0]
        lo, hi, diag = links // nv, links % nv, np.arange(nv)
        keys = np.sort(np.concatenate([lo * nv + hi, hi * nv + lo, diag * nv + diag]))
        indptr = np.searchsorted(keys, np.arange(nv + 1) * nv).astype(np.int32)
        slots = np.empty(9 * len(t) + 16 * len(e), dtype=np.int32)
        diag = np.searchsorted(keys, diag * (nv + 1))
        for elements, k, start in ((t, 3, 0), (e, 4, 9 * len(t))):
            block = slots[start:start + k * k * len(elements)].reshape(-1, k, k)
            for i in range(k):
                block[:, i, i] = diag[elements[:, i]]
                for j in range(k):
                    if j != i:
                        block[:, i, j] = np.searchsorted(keys, elements[:, i] * nv + elements[:, j])
        return indptr, (keys % nv).astype(np.int32), slots

    def _schur_pattern(self) -> dict:
        """The ``schur`` pattern of the free skeleton nodes (see the class
        docstring)."""
        n, table, on = self.num_vertices, self.cell_nodes, self.cell_skeleton
        nodes = np.setdiff1d(self.skeleton, self.boundary_nodes)
        m = len(nodes)
        pos = np.full(n + 1, -1)  # position among ``nodes``; the last entry stands for absent ones
        pos[nodes] = np.arange(m)

        # per group of cells with one count b of skeleton nodes: each cell's b x b block
        count = on.sum(axis=1)
        cells = np.argsort(count, kind="stable")
        keys = []
        for b in np.unique(count):
            group = cells[count[cells] == b]
            at = pos[table[group][on[group]]].reshape(len(group), b, 1)
            off = (at < 0) | (at < 0).transpose(0, 2, 1)
            keys.append(np.where(off, -1, at * m + at.transpose(0, 2, 1)).ravel())

        # the matrix entries between free skeleton nodes, from their rows
        start, length = self.indptr[nodes], np.diff(self.indptr)[nodes]
        row = np.repeat(np.arange(m), length)
        entries = np.arange(len(row)) + np.repeat(start - (np.cumsum(length) - length), length)
        col = pos[self.indices[entries]]
        entries, row, col = entries[col >= 0], row[col >= 0], col[col >= 0]
        keys.append(row * m + col)

        keys = np.concatenate(keys)
        links = keys[keys >= 0]
        links.sort()
        first = np.ones(len(links), dtype=bool)  # each run's first link; bools, not np.diff's int64
        np.not_equal(links[1:], links[:-1], out=first[1:])
        links = links[first]
        slots = np.searchsorted(links, keys).astype(np.int32)
        slots[keys < 0] = len(links)
        return {name: a.astype(np.int32, copy=False) for name, a in (
            ("nodes", nodes), ("entries", entries), ("cells", cells), ("slots", slots),
            ("indices", links % m), ("indptr", np.searchsorted(links, np.arange(m + 1) * m)))}

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def interface_edges_with_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Interface edges plus the lattice cell each edge belongs to."""
        return self.interface_edges, self.cells[self.edge_cell_index]

    def min_angle_deg(self) -> float:
        v = self.vertices
        t = self.triangles
        angles = []
        for i in range(3):
            a = v[t[:, i]]
            b = v[t[:, (i + 1) % 3]]
            c = v[t[:, (i + 2) % 3]]
            u1 = b - a
            u2 = c - a
            cosang = np.einsum("ij,ij->i", u1, u2) / (
                np.linalg.norm(u1, axis=1) * np.linalg.norm(u2, axis=1)
            )
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))


def triangle_geometry(v: np.ndarray, t: np.ndarray):
    """Areas (nt,) and P1 basis gradients (nt, 3, 2) of the triangles ``t``
    at the vertex coordinates ``v``."""
    d1 = v[t[:, 1]] - v[t[:, 0]]
    d2 = v[t[:, 2]] - v[t[:, 0]]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    grads = np.zeros((len(t), 3, 2))
    grads[:, 1, 0] = d2[:, 1] / det
    grads[:, 1, 1] = -d2[:, 0] / det
    grads[:, 2, 0] = -d1[:, 1] / det
    grads[:, 2, 1] = d1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return areas, grads


def triangle_centroids(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mean over each triangle of ``t`` of the nodal array ``v`` (points
    (nv, 2) or values (nv,)); bitwise ``v[t].mean(axis=1)``, without the
    (nt, 3, ...) gather."""
    return (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0


def _reflect_quadrants(first: np.ndarray, n: int) -> np.ndarray:
    """Extend quadrant-I ring points (indices 0..n/4 inclusive) to the full
    ring by exact sign flips, so opposite points mirror bitwise."""
    q = n // 4
    out = np.zeros((n, 2))
    out[: q + 1] = first
    for i in range(1, q):
        out[2 * q - i] = (-first[i, 0], first[i, 1])
    out[2 * q] = (-first[0, 0], first[0, 1])
    for i in range(1, q):
        out[2 * q + i] = (-first[i, 0], -first[i, 1])
    out[3 * q] = (first[0, 1], -first[0, 0])
    for i in range(1, q):
        out[4 * q - i] = (first[i, 0], -first[i, 1])
    return out


def _symmetric_directions(n: int) -> np.ndarray:
    """Unit directions at angles 2*pi*i/n with exact 4-fold mirror symmetry."""
    assert n % 4 == 0
    q = n // 4
    base = np.arange(q + 1) * (2.0 * np.pi / n)
    first = np.column_stack([np.cos(base), np.sin(base)])
    first[0] = (1.0, 0.0)
    first[q] = (0.0, 1.0)
    return _reflect_quadrants(first, n)


def _symmetric_square_offsets(n: int) -> np.ndarray:
    """Offsets from the cell center to n points equally spaced by arclength
    on the square of half-width 1/2, node 0 at mid-edge, exact symmetry."""
    assert n % 8 == 0
    o = n // 8
    e = np.arange(o + 1) * (4.0 / n)
    e[o] = 0.5
    first = np.zeros((n // 4 + 1, 2))
    first[: o + 1, 0] = 0.5
    first[: o + 1, 1] = e
    # mirror the octant across the diagonal into the rest of quadrant I
    first[o : 2 * o + 1, 0] = e[::-1]
    first[o : 2 * o + 1, 1] = 0.5
    return _reflect_quadrants(first, n)


def interface_node_count(radius: float, h: float) -> int:
    """ceil(2*pi*r/h) rounded up to a multiple of 4 (bumped to a multiple of 8
    so the cell-corner directions carry mesh nodes)."""
    n = int(np.ceil(2.0 * np.pi * radius / h))
    n = 4 * ((n + 3) // 4)
    if n % 8 != 0:
        n += 4
    return max(8, n)


def _annulus_triangles(
    outer: np.ndarray, inner: np.ndarray, pos: np.ndarray = None
) -> list[tuple[int, int, int]]:
    """Triangles between two closed rings of node ids (equal counts, or a 2:1
    transition when the inner ring has half as many nodes).  With ``pos``
    given, equal-count quads are split along their shorter diagonal."""
    no, ni = len(outer), len(inner)
    tris = []
    if no == ni:
        for i in range(no):
            j = (i + 1) % no
            if pos is not None:
                d_oi = np.sum((pos[outer[j]] - pos[inner[i]]) ** 2)
                d_io = np.sum((pos[outer[i]] - pos[inner[j]]) ** 2)
            else:
                d_oi, d_io = 0.0, 1.0
            if d_oi <= d_io:
                tris.append((outer[i], outer[j], inner[i]))
                tris.append((outer[j], inner[j], inner[i]))
            else:
                tris.append((outer[i], outer[j], inner[j]))
                tris.append((outer[i], inner[j], inner[i]))
    elif no == 2 * ni:
        for j in range(ni):
            o0, o1, o2 = outer[2 * j], outer[(2 * j + 1) % no], outer[(2 * j + 2) % no]
            i0, i1 = inner[j], inner[(j + 1) % ni]
            tris.append((o0, o1, i0))
            tris.append((o1, i1, i0))
            tris.append((o1, o2, i1))
    else:
        raise ValueError(f"ring counts {no}->{ni} not supported")
    return tris


@functools.lru_cache(maxsize=8)
def build_cell_mesh(spec: InterfaceSpec, h: float) -> MembraneMesh:
    """Unit-cell membrane mesh with the interface as duplicated-node polyline,
    built once per (spec, h) and process; its arrays are never mutated.

    Requests with h > 0.25 are clamped to 0.25 (the coarsest valid size).
    Raises MeshQualityFailure if the generated mesh has a minimum angle
    below 20 degrees.
    """
    h = min(float(h), 0.25)
    if h <= 0.0:
        raise ValueError("h must be positive")
    r = spec.radius
    c = np.asarray(spec.center)
    n_if = interface_node_count(r, h)
    h_t = 2.0 * np.pi * r / n_if

    verts: list[np.ndarray] = []
    tris: list[tuple[int, int, int]] = []
    regions: list[int] = []

    def add_ring(radii, count):
        dirs = _symmetric_directions(count)
        start = len(verts)
        pts = c + np.asarray(radii)[:, None] * dirs
        verts.extend(pts)
        return np.arange(start, start + count)

    # --- MINUS (disk): rings shrinking inward, counts halving while they stay
    # multiples of 4 (symmetric directions), center fan ---
    minus_rings = [(r, n_if)]
    rho, cnt = r, n_if
    while rho - h_t > 0.8 * h_t:
        rho = rho - h_t
        if cnt % 8 == 0 and cnt >= 16 and 2.0 * np.pi * rho / cnt < 0.75 * h_t:
            cnt //= 2
        minus_rings.append((rho, cnt))

    minus_ids = []
    for rad, count in minus_rings:
        minus_ids.append(add_ring(np.full(count, rad), count))
    for outer, inner in zip(minus_ids, minus_ids[1:]):
        for tri in _annulus_triangles(outer, inner):
            tris.append(tri)
            regions.append(MINUS)
    center_id = len(verts)
    verts.append(c.copy())
    last = minus_ids[-1]
    for i in range(len(last)):
        tris.append((last[i], last[(i + 1) % len(last)], center_id))
        regions.append(MINUS)
    minus_interface = minus_ids[0]

    # --- PLUS (cell minus disk): rings blending the circle into the square ---
    dirs = _symmetric_directions(n_if)
    square = _symmetric_square_offsets(n_if)
    # grade ring spacing from h_t at the circle to the square's 4/N spacing
    q = 2.0 / (np.pi * r)
    # geometric ring spacing: local size grows from h_t at the circle to the
    # square's arclength spacing q*h_t at the boundary
    m_rings = max(
        2,
        round(RING_GRADING * (0.5 - r) * np.log(q) / ((q - 1.0) * h_t)),
        int(np.ceil(np.log(q) / np.log(2.0))),  # cap ring-to-ring growth
    )
    lams = (q ** (np.arange(m_rings + 1) / m_rings) - 1.0) / (q - 1.0)

    plus_ids = []
    for j, lam in enumerate(lams):
        ids = np.arange(len(verts), len(verts) + n_if)
        if j == len(lams) - 1:
            pts = c + square  # exactly on the cell boundary
        else:
            pts = c + (1.0 - lam) * (r * dirs) + lam * square
        verts.extend(pts)
        plus_ids.append(ids)
    allpos = np.array(verts)
    for inner, outer in zip(plus_ids, plus_ids[1:]):
        for a, b, cc in _annulus_triangles(outer, inner, allpos):
            tris.append((a, b, cc))
            regions.append(PLUS)

    vertices = np.array(verts)
    triangles = np.array(tris, dtype=np.int64)
    tri_region = np.array(regions, dtype=np.int8)
    # orient every triangle counterclockwise
    d1 = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
    d2 = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
    flip = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    mesh = MembraneMesh(
        vertices=vertices,
        triangles=triangles,
        tri_region=tri_region,
        tri_cell=np.zeros((len(triangles), 2), dtype=np.int64),
        interface_pairs=np.column_stack([plus_ids[0], minus_interface]),
        boundary_nodes=plus_ids[-1].astype(np.int64),
    )
    angle = mesh.min_angle_deg()
    if angle < MIN_ANGLE_DEG:
        raise MeshQualityFailure(f"min angle {angle:.2f} deg < {MIN_ANGLE_DEG}")
    return mesh


def first_coincident(points: np.ndarray) -> np.ndarray:
    """For each point (rows of ``points``), the index of the first point at
    the same position after rounding to 1e-10."""
    keys = np.round(points * 1e10).astype(np.int64)
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first[group.reshape(-1)]


def _lattice(xs, ys) -> np.ndarray:
    """Integer cells (kx, ky) for kx in xs, ky in ys, kx varying slowest."""
    kx, ky = np.meshgrid(np.asarray(xs), np.asarray(ys), indexing="ij")
    return np.column_stack([kx.ravel(), ky.ravel()]).astype(np.int64)


class _Tiling:
    """What tiling a cell mesh over a lattice block fixes before any map is
    applied: the reference position of each (cell, local node) entry, the
    shared boundary entries with the entry each is stitched to, the entries
    that start a node, and the tiled mesh at the reference positions."""

    def __init__(self, cell: MembraneMesh, cells: np.ndarray, membrane: np.ndarray, scale: float):
        nc, nv, nt = len(cells), cell.num_vertices, cell.num_triangles
        plus, minus = cell.interface_pairs[:, 0], cell.interface_pairs[:, 1]
        self.cells, self.nv, self.nt, self.scale = cells, nv, nt, scale
        self.ref = (cell.vertices[None, :, :] + cells[:, None, :].astype(float)).reshape(-1, 2)

        # entries (cell, local node) in cell-major order; merged MINUS nodes drop out
        keep = np.ones((nc, nv), dtype=bool)
        keep[np.ix_(~membrane, minus)] = False
        on_boundary = np.zeros(nv, dtype=bool)
        on_boundary[cell.boundary_nodes] = True
        self.shared = np.flatnonzero(keep & on_boundary)
        self.owner = self.shared[first_coincident(self.ref[self.shared])]

        self.new = keep.reshape(-1)  # entries that start a node: all but non-owner shared ones
        self.new[self.shared] = self.owner == self.shared
        gid = np.full(nc * nv, -1, dtype=np.int64)
        gid[self.new] = np.arange(np.count_nonzero(self.new))
        gid[self.shared] = gid[self.owner]
        gid = gid.reshape(nc, nv)  # the cell table: -1 at the merged MINUS nodes
        merged = gid.copy()
        merged[np.ix_(~membrane, minus)] = gid[np.ix_(~membrane, plus)]

        self.membrane = membrane
        pairs = np.stack([gid[membrane][:, plus], gid[membrane][:, minus]], axis=-1)
        ref = self.ref[self.new]
        box = np.stack([cells.min(axis=0), cells.max(axis=0) + 1])  # lower and upper corner
        on_box = (np.abs(ref[:, None, :] - box) < 1e-12).any(axis=(1, 2))
        self.mesh = MembraneMesh(
            vertices=ref,
            triangles=merged[:, cell.triangles].reshape(-1, 3),
            tri_region=np.where(membrane[:, None], cell.tri_region, PLUS).reshape(-1).astype(np.int8),
            tri_cell=np.repeat(cells, nt, axis=0),
            interface_pairs=pairs.reshape(-1, 2),
            boundary_nodes=np.flatnonzero(on_box).astype(np.int64),
            cell_nodes=gid,
            cell_kind=membrane.astype(np.int64),
        )

    def realize(self, dmap: DeformationMap) -> MembraneMesh:
        """The tiled mesh at the nodes' deformed, rescaled positions, each
        cell of the kind 2 * bumped + membrane, with the triangles of each
        kind's first cell as its prototypes.  Raises StitchFailure where two
        stitched entries land apart, or where a cell's nodes are not those of
        its kind's first cell moved by the lattice offset (within
        STITCH_TOL)."""
        phys = self.scale * dmap.apply(self.ref)
        mismatch = np.flatnonzero(
            np.abs(phys[self.owner] - phys[self.shared]).max(axis=1) > STITCH_TOL
        )
        if len(mismatch):
            i, j = self.owner[mismatch[0]], self.shared[mismatch[0]]
            k = tuple(int(x) for x in self.cells[j // self.nv])
            raise StitchFailure(f"boundary node mismatch at cell {k}: {phys[i]} vs {phys[j]}")
        kind = 2 * dmap.bumped(self.cells) + self.membrane
        _, first, rank = np.unique(kind, return_index=True, return_inverse=True)
        at = phys.reshape(len(self.cells), self.nv, 2)
        lead = first[rank]  # each cell's kind's first cell
        offset = self.scale * (self.cells - self.cells[lead]).astype(float)
        gap = np.abs(at - at[lead] - offset[:, None, :]).max(axis=(1, 2))
        bad = np.flatnonzero(gap > STITCH_TOL)
        if len(bad):
            k, k0 = (tuple(int(x) for x in self.cells[c]) for c in (bad[0], lead[bad[0]]))
            raise StitchFailure(
                f"cell {k} of kind {kind[bad[0]]} is no translate of cell {k0}: "
                f"nodes {gap[bad[0]]:.3g} apart"
            )
        out = self.mesh.with_kinds(kind, phys[self.new])
        # the prototypes' centroids, cell by cell, moved by the lattice offset
        cent = triangle_centroids(out.vertices, out.triangles[out.prototypes])
        cent = cent.reshape(-1, self.nt, 2)[rank]
        cent += offset[:, None]
        out.centroids = cent.reshape(-1, 2)
        return out


@functools.lru_cache(maxsize=4)
def _template(cell: MembraneMesh, lo: tuple, n: int, beta: float, scale: float) -> _Tiling:
    """The tiling template of the cell mesh over the n x n lattice block
    with lower corner ``lo`` at ``scale``, the cells at lattice distance >=
    beta from the block's boundary keeping their membranes, built once per
    configuration and process (keyed by the cell mesh object, which
    ``build_cell_mesh`` builds once).  Its ``realize`` deforms the cell
    template into each lattice cell and stitches shared boundary nodes
    (bitwise-coincident because maps fix cell boundaries).  Its boundary
    nodes lie on the block's reference box, within 1e-12.

    Nodes are numbered in order of first appearance, cell by cell; a shared
    boundary node belongs to the first cell that carries it.  Cells without a
    membrane merge each MINUS interface node into its PLUS copy.
    """
    cells = _lattice(range(lo[0], lo[0] + n), range(lo[1], lo[1] + n))
    return _Tiling(cell, cells, _carries_membrane(cells - lo, n, beta), scale)


def _carries_membrane(cells: np.ndarray, n: int, beta: float) -> np.ndarray:
    """Mask of the cells of the n x n grid at reference distance >= beta from
    the boundary of [0,n]^2."""
    return np.minimum(cells, n - 1 - cells).min(axis=1) >= beta


def tile_domain_mesh(
    cell: MembraneMesh,
    dmap: DeformationMap,
    eps: float,
    spec: InterfaceSpec,
    membranes: bool = True,
) -> MembraneMesh:
    """Mesh of D = (0,1)^2 tiled from n = 1/eps deformed, rescaled cells.

    Cells closer than beta to the reference boundary lose their membranes
    (MINUS retagged PLUS, interface pairs merged): the cushion layer.  With
    ``membranes`` false no cell keeps one.
    """
    n = round(1.0 / eps)
    if abs(n * eps - 1.0) > 1e-12:
        raise ValueError(f"1/eps must be an integer, got eps={eps}")
    return _template(cell, (0, 0), n, spec.beta if membranes else math.inf, eps).realize(dmap)


def build_truncated_mesh(
    cell: MembraneMesh,
    dmap: DeformationMap,
    n: int,
    center: tuple[int, int] = (0, 0),
    membranes: bool = True,
) -> MembraneMesh:
    """Mesh of the deformed truncated cube Phi(center + (-n,n)^2): (2n)^2
    cells, all carrying membranes unless disabled, outer boundary tagged
    Dirichlet."""
    return truncated_template(cell, n, center, membranes).realize(dmap)


def truncated_template(
    cell: MembraneMesh, n: int, center: tuple[int, int] = (0, 0), membranes: bool = True
) -> _Tiling:
    """The tiling template of ``build_truncated_mesh`` with these arguments,
    built once per configuration and process: a process that builds it
    before forking workers shares it with them."""
    if n < 1:
        raise ValueError("half-width n must be >= 1")
    cx, cy = center
    return _template(cell, (cx - n, cy - n), 2 * n, 0.0 if membranes else math.inf, 1.0)


GRID_BLOCK = 16  # squares per side of a lattice cell of the uniform grid


def build_square_mesh(m: int) -> MembraneMesh:
    """Uniform right-triangle mesh of (0,1)^2 with m x m squares, no
    membranes.  Each block of GRID_BLOCK x GRID_BLOCK squares is one lattice
    cell; the blocks cut short at the upper edges make the kinds other than
    0, 2 * (short in x) + (short in y)."""
    blocks = -(-m // GRID_BLOCK)
    short = (_lattice(range(blocks), range(blocks)) + 1) * GRID_BLOCK > m
    t = np.linspace(0.0, 1.0, m + 1)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel()])
    # square (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1)
    a = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()
    b, c, d = a + m + 1, a + m + 2, a + 1
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3).astype(np.int64)
    on_bd = np.isin(verts, (0.0, 1.0)).any(axis=1)
    return MembraneMesh(
        vertices=verts,
        triangles=triangles,
        tri_region=np.full(len(triangles), PLUS, dtype=np.int8),
        tri_cell=np.repeat(_lattice(range(m), range(m)) // GRID_BLOCK, 2, axis=0),
        interface_pairs=np.zeros((0, 2), dtype=np.int64),
        boundary_nodes=np.flatnonzero(on_bd).astype(np.int64),
        cell_kind=2 * short[:, 0] + short[:, 1],
    )


@dataclass
class MeshReport:
    min_angle_deg: float
    max_aspect: float
    conforming: bool
    pairing_residual: float
    positive_areas: bool
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.conforming
            and self.positive_areas
            and self.min_angle_deg >= MIN_ANGLE_DEG
            and self.pairing_residual <= PAIRING_TOL
        )


def mesh_report(mesh: MembraneMesh) -> MeshReport:
    """Quality and conformity diagnostics; pure function of the mesh."""
    if mesh.num_triangles == 0 or mesh.num_vertices == 0:
        raise ValueError("empty mesh")
    issues: list[str] = []

    areas = mesh.areas
    positive = bool(areas.min() > 0.0)
    if not positive:
        issues.append(f"nonpositive triangle area {areas.min():.3e}")

    # aspect ratio: longest edge / (2 * inradius)
    v = mesh.vertices
    t = mesh.triangles
    e = np.stack(
        [
            np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1),
            np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1),
            np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1),
        ]
    )
    s = e.sum(axis=0) / 2.0
    inradius = np.abs(areas) / s
    max_aspect = float((e.max(axis=0) / (2.0 * inradius)).max())

    if len(mesh.interface_pairs):
        p = mesh.interface_pairs
        pairing = float(np.abs(v[p[:, 0]] - v[p[:, 1]]).max())
    else:
        pairing = 0.0
    if pairing > PAIRING_TOL:
        issues.append(f"interface pairing residual {pairing:.3e}")

    # conformity: every edge is shared by exactly 2 triangles of one region,
    # or is an interface / outer-boundary edge with exactly 1 triangle; edges
    # are keyed min*nv+max and reported in order of first appearance
    nv = mesh.num_vertices
    keys, first, inverse, count = np.unique(
        _edge_keys(t, nv)[2], return_index=True, return_inverse=True, return_counts=True
    )
    reg = np.repeat(mesh.tri_region, 3).astype(np.int64)
    lo, hi = keys // nv, keys % nv
    minus, plus, outer = (np.isin(np.arange(nv), nodes) for nodes in (
        mesh.interface_pairs[:, 1], mesh.interface_pairs[:, 0], mesh.boundary_nodes))
    lone_ok = (minus[lo] & minus[hi]) | (plus[lo] & plus[hi]) | (outer[lo] & outer[hi])
    mixed = (count == 2) & (np.bincount(inverse, weights=reg) != 2 * reg[first])
    bad = np.flatnonzero(mixed | ((count == 1) & ~lone_ok) | (count > 2))
    for k in bad[np.argsort(first[bad])]:
        edge = f"({lo[k]},{hi[k]})"
        if count[k] == 2:
            issues.append(f"edge {edge} shared across regions")
        elif count[k] == 1:
            issues.append(f"dangling edge {edge}")
        else:
            issues.append(f"edge {edge} in {count[k]} triangles")

    return MeshReport(
        min_angle_deg=mesh.min_angle_deg(),
        max_aspect=max_aspect,
        conforming=len(bad) == 0,
        pairing_residual=pairing,
        positive_areas=positive,
        issues=issues,
    )


def export_mesh(mesh: MembraneMesh, path) -> None:
    """Write the plain-text `membrane-mesh v1` format, coordinates by repr
    (so they read back bit-exact)."""
    lines = ["membrane-mesh v1"]
    lines.append(f"V {mesh.num_vertices}")
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"T {mesh.num_triangles}")
    for tri, reg, k in zip(mesh.triangles, mesh.tri_region, mesh.tri_cell):
        lines.append(f"{tri[0]} {tri[1]} {tri[2]} {reg} {k[0]} {k[1]}")
    lines.append(f"IE {len(mesh.interface_pairs)}")
    for p, m in mesh.interface_pairs:
        lines.append(f"{p} {m}")
    lines.append(f"B {len(mesh.boundary_nodes)}")
    for b in mesh.boundary_nodes:
        lines.append(f"{b}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
