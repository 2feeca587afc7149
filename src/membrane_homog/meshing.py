"""Conforming membrane meshes: reference cell, tiled domain, truncated cube.

The reference cell is meshed once with the circular interface resolved as a
polyline of mesh edges and with interface nodes duplicated (independent PLUS
and MINUS copies).  Tiling stitches the shared boundary nodes of the cell
template's lattice copies once, at reference positions; a realization then
deforms one cell per kind and moves it to the kind's other cells, which works
because every deformation map fixes cell boundaries and carries one
deformation on every cell it flags (``DeformationMap``).

So a tiling's numbering, stitch, cells and cell table, interface edges,
boundary, free nodes, skeleton, the links of each cell's matrix and the
symbolic factors (``Fronts``) of each cell's interior and of the Schur
complement on the skeleton depend only on the cell mesh, the lattice block, its
membrane mask and the scale: they are built once per process for each such
configuration (a small cache, as is the cell mesh for each interface and h)
and a realization only names the kind of each cell and moves the nodes to
their deformed positions.  Edges and links are tiled from the cell; ``fem``
builds no index set beyond the kinds' columns, and no global matrix on its
solve path.

Every mesh is a block of lattice cells, stated by its builder with each
triangle's cell and each cell's nodes, and names the kind of each cell: a
realization at most four (bumped or not, membrane or cushion), the square
grid one per shape of block.  The cells of one kind are translates of each
other (in a realization by construction), and the triangles of each kind's
first cell are the mesh's prototypes: their areas and basis gradients are
computed once and gathered per triangle where needed, and ``fem`` computes
its element matrices and loads on them.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MeshQualityFailure, StitchFailure
from .geometry import CENTER, DeformationMap, InterfaceSpec

PLUS = 1
MINUS = -1

MIN_ANGLE_DEG = 20.0
STITCH_TOL = 1e-12


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, sorted: one np.sort and the first of each run
    (np.unique without an inverse takes far longer on large arrays)."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])[:len(keys)]]


class Batch(NamedTuple):
    """Fronts of one level and one shape, g of them: ``rows`` (g, nJ), each
    front's pivots, the positions it eliminates; ``update`` (g, ns), the
    later positions its pivots couple to in the factor, sorted; ``lo`` and
    ``hi``, the slice of the factor's data that holds their row blocks, one
    after the other; and where each front's update matrix goes: the batch
    ``parent`` (-1 for none; nondecreasing) and the front ``at`` in it, at
    ``relative`` (g, ns), each update's place among that front's pivots and
    then its updates."""

    rows: np.ndarray
    update: np.ndarray
    lo: int
    hi: int
    parent: np.ndarray
    at: np.ndarray
    relative: np.ndarray


@dataclass(eq=False)
class Fronts:
    """The symbolic structure of a multifrontal Cholesky factor (Duff and
    Reid, "The multifrontal solution of indefinite sparse symmetric linear
    equations", ACM TOMS 1983) of a symmetric matrix in a nested-dissection
    order, built once and shared by every matrix of its pattern.

    ``nodes`` (m,) lists the caller's nodes in elimination order; a position
    is a place in it.  A front eliminates a run of positions, its pivots, and
    adds its update matrix to its parent, the front of its first update.
    The factor keeps each front's row block, its pivot rows over its pivots
    and then its updates, row-major, in one array of ``size`` entries, and
    ``slots`` is the place there of each summand the builder lists, ``size``
    for one in no row block (below the diagonal, in another front's
    columns).  ``batches`` groups the fronts by level and shape (``Batch``),
    deepest level first, so that a batch's fronts depend on earlier batches
    only."""

    nodes: np.ndarray
    size: int
    slots: np.ndarray
    batches: tuple


def _fronts(digits: list, level: np.ndarray, groups: np.ndarray) -> Fronts:
    """The ``Fronts`` of a symmetric matrix on m nodes (0..m-1) from a
    nested dissection: ``digits``, one int8 array per cut (0 left, 1 right,
    2 separator, 0 once numbered), orders the nodes, those of equal digits
    form a front, and ``level`` (m,) counts the cuts above each node's front.
    The matrix is a sum of dense blocks, one per row of ``groups`` (ng, k),
    over its nodes (m for none); the summands are the blocks' entries,
    block by block, row-major.  A front's updates are the later nodes of the
    groups its pivots are in and its children's updates past its pivots,
    found level by level, deepest first."""
    m, (ng, k) = len(level), groups.shape
    order = np.lexsort(digits[::-1]) if digits else np.arange(m)
    pos = np.full(m + 1, m, dtype=np.int64)  # each node's position; m for none
    pos[order] = np.arange(m)
    new = np.arange(m) == 0  # each front's first position
    if digits:
        d = np.stack(digits)[:, order]
        new[1:] = (d[:, 1:] != d[:, :-1]).any(axis=0)
    start = np.append(np.flatnonzero(new), m)  # front nf, none, starts and ends at m
    end = np.append(start[1:], m)
    front = np.append(np.cumsum(new) - 1, len(start) - 1)  # each position's front; nf for none
    nf, lev = len(start) - 1, level[order][start[:-1]]
    npiv = np.diff(start)
    # each (front, group) incidence, and the positions of the group
    P = pos[groups]
    pair, incidence = np.unique(front[P] * ng + np.arange(ng)[:, None], return_inverse=True)
    incidence = incidence.reshape(ng, k)
    pf, near = pair // ng, P[pair % ng]  # each incidence's front and its group's positions
    later = (near >= end[pf, None]) & (near < m)
    keys = _distinct((pf[:, None] * m + near)[later])  # (front, later position) of each coupling
    kl = lev[keys // m]
    parent, found, pending = np.full(nf + 1, -1), [], {}  # parent[-1] stands for none
    for t in np.flatnonzero(np.bincount(lev))[::-1]:
        u = _distinct(np.concatenate([keys[kl == t], *pending.pop(t, [])]))
        u = u[u % m >= end[u // m]]  # past the front's pivots
        found.append(u)
        f, p = u // m, u % m
        head = np.flatnonzero(np.diff(f, prepend=-1))  # each front's first update
        parent[f[head]] = front[p[head]]
        up, at = parent[f] * m + p, lev[parent[f]]
        for v in np.flatnonzero(np.bincount(at)):
            pending.setdefault(v, []).append(up[at == v])
    # the updates front by front: each front's are one sorted run of the levels' keys
    u = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
    f = u // m
    update_ptr = np.append(0, np.cumsum(np.bincount(f, minlength=nf)))
    head = np.flatnonzero(np.diff(f, prepend=-1))
    first = np.zeros(nf, dtype=np.int64)
    first[f[head]] = head
    u[update_ptr[f] + np.arange(len(u)) - first[f]] = u.copy()  # now sorted
    f, update = u // m, u % m
    nup = np.diff(update_ptr)
    q = parent[f]
    relative = np.where(update < end[q], update - start[q],
                        npiv[q] + np.searchsorted(u, q * m + update) - update_ptr[q])
    # the batches, and the row blocks laid out batch by batch
    group = np.lexsort((nup, npiv, -lev))
    shape = np.stack([lev, npiv, nup])[:, group]
    cut = np.append(np.flatnonzero(np.diff(shape, axis=1, prepend=-1).any(axis=0)), nf)
    batch, at = np.full(nf + 1, -1), np.zeros(nf + 1, dtype=np.intp)  # each front's batch and place
    batch[group] = np.repeat(np.arange(len(cut) - 1), np.diff(cut))
    group = np.lexsort((batch[parent[:-1]], batch[:-1]))  # in a batch, by the parent's batch
    at[group] = np.arange(nf) - np.repeat(cut[:-1], np.diff(cut))
    width = np.append(npiv + nup, 0)
    offset = np.zeros(nf + 1, dtype=np.int64)
    offset[group] = np.cumsum((npiv * width[:-1])[group]) - (npiv * width[:-1])[group]
    size = int((npiv * width[:-1]).sum())
    batches = []
    for i0, i1 in zip(cut[:-1], cut[1:]):
        fs = group[i0:i1]
        nj, ns = npiv[fs[0]], nup[fs[0]]
        ups = update_ptr[fs][:, None] + np.arange(ns)
        batches.append(Batch(start[fs][:, None] + np.arange(nj), update[ups], int(offset[fs[0]]),
                             int(offset[fs[0]] + len(fs) * nj * (nj + ns)), batch[parent[fs]],
                             at[parent[fs]], relative[ups]))
    # each summand's place: a pivot row of its row's front, at a pivot or an
    # update column of that front; -1 for a column before the front: dropped
    column = np.where(near < end[pf, None], near - start[pf, None], -1)
    column[later] = (np.append(npiv, 0)[pf, None] + np.searchsorted(u, pf[:, None] * m + near)
                     - update_ptr[pf, None])[later]
    F = front[P]
    row = offset[F] + (P - start[F]) * width[F]  # each (group, row)'s place in the data
    col = column[incidence]  # (group, row, column)
    slots = np.where((P < m)[:, :, None] & (col >= 0), row[:, :, None] + col, size).ravel()
    dtype = np.int32 if size < 2**31 else np.int64
    return Fronts(nodes=order, size=size, slots=slots.astype(dtype), batches=tuple(batches))


@dataclass(eq=False)
class CellLinks:
    """The links of the cells of one topology class, in the columns of their
    rows of the cell table: ``pairs`` (nl, 2), the (row, column) pairs of
    the form's cell matrix, in row-major order; ``tri`` (cell triangles, 9),
    the link of each entry of each triangle of the cell, in the cell's
    triangle order, row-major; ``edge`` (cell edges, 16), that of each entry
    of each interface edge of the cell, over (plus_a, plus_b, minus_a,
    minus_b); ``edge_columns`` (cell edges, 4), those edges' columns; and
    ``band`` (rows, longest row), the links of each row in turn, padded with
    nl.  Every array is int32.

    The cell's interior block is factored in ``interior``, the ``Fronts``
    of a coordinate bisection (``_bisection``) whose nodes are the interior
    columns in elimination order and whose slots take the pairs; ``outer``
    holds the skeleton columns in table order, and ``coupling`` the place of
    each pair in K_IB (interior rows in elimination order, outer columns,
    row-major) followed by K_BB (outer x outer), past both for a pair in
    neither."""

    pairs: np.ndarray
    tri: np.ndarray
    edge: np.ndarray
    edge_columns: np.ndarray
    band: np.ndarray
    outer: np.ndarray
    interior: Fronts
    coupling: np.ndarray


@dataclass(eq=False)
class MembraneMesh:
    """Triangulation with region tags and duplicated interface nodes.

    ``vertices`` are physical coordinates; ``ref_vertices`` are the matching
    reference-lattice coordinates: the vertices the mesh was built with, kept
    by the realizations of a tiling.  ``interface_pairs`` rows are (plus
    node, minus node) with coincident coordinates.

    The builder states the mesh's lattice cells: ``cells`` (nc, 2), each
    (kx, ky), ``tri_cell_index`` (nt,) each triangle's row of ``cells``,
    and the cell table ``cell_nodes`` (nc, w), each cell's nodes, -1 where
    one is absent, in columns that match between cells of one kind.  An
    index outside ``cells`` or a cell without a triangle raises ValueError.
    Every index array is stored as int32: the constructor converts
    ``triangles``, ``interface_pairs``, ``boundary_nodes``,
    ``tri_cell_index`` and ``cell_nodes`` given in another width, and the
    builders of large meshes (tilings, the square grid) build them so.

    The rest of the topology and the geometry are derived once, at
    construction: ``interface_edges`` holds rows (plus_a, plus_b, minus_a,
    minus_b), the edges of one MINUS triangle between MINUS interface nodes,
    as their triangle runs (counterclockwise around each membrane), sorted,
    and ``edge_cell_index`` the row of ``cells`` each edge belongs to.  Each
    kind's first cell gives its edges and its ``links`` (``CellLinks``: the
    node pairs of the form's cell matrix) in table columns, and the table
    maps them to every cell of the kind; ``cell_links`` (nc,) gives each
    cell's row of ``links``.  The kinds the mesh is built with are the
    topology classes of its cells, which every later set of kinds refines:
    a cell that is no copy of its kind's first cell raises ValueError, and
    so does a kind of ``with_kinds`` whose cells have other links.  The
    mesh stores no pattern of the global matrix.

    ``cell_kind`` (nc,) labels cells whose element matrices agree up to
    rounding, so that ``fem`` gives them one cell matrix (by default each
    cell is its own kind): cells of one kind have
    as many triangles, matched by ``tri_local`` (nt,), each triangle's rank
    among its cell's triangles.  ``prototypes`` are the triangles of each
    kind's first cell, in that cell's triangle order, whose geometry stands
    for the others: ``tri_prototype`` (nt,) gives each triangle's row of
    ``prototypes``, and ``proto_areas`` and ``proto_grads`` are the
    prototypes' areas and P1 basis gradients, which ``areas`` (nt,) and
    ``fem.p1_gradient`` gather on each use.  The mesh stores no other
    per-triangle floats: a reader of the centroids computes them
    (``triangle_centroids``).

    The skeleton is the nodes on a cell boundary: those on the mesh
    boundary, in no cell or in more than one; every other node is interior
    to one cell.  ``cell_skeleton`` (nc, w) marks the table's skeleton
    nodes, ``free_nodes`` every node off ``boundary_nodes``: the dofs of
    every system on the mesh.

    ``schur`` is the ``Fronts`` of the Schur complement S of the cells'
    matrices on the free skeleton nodes, in nested-dissection order along
    the lattice lines (``_dissection``): ``schur.nodes`` are those nodes in
    elimination order (int32), and its summands, which ``fem`` adds through
    ``schur.slots``, are the Schur block of each cell in turn over its
    skeleton nodes in table column order, padded to the widest cell's count
    of skeleton nodes, row-major; a summand in a boundary or padded row or
    column is dropped.

    The arrays are never mutated after construction; a realization of a
    tiling, and a copy with other kinds, shares them with the tiling's mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    interface_pairs: np.ndarray
    boundary_nodes: np.ndarray
    cells: np.ndarray = field(repr=False)
    tri_cell_index: np.ndarray = field(repr=False)
    cell_nodes: np.ndarray = field(repr=False)
    cell_kind: np.ndarray = field(default=None, repr=False)
    ref_vertices: np.ndarray = field(init=False, repr=False)
    tri_local: np.ndarray = field(init=False, repr=False)
    interface_edges: np.ndarray = field(init=False, repr=False)
    edge_cell_index: np.ndarray = field(init=False, repr=False)
    prototypes: np.ndarray = field(init=False, repr=False)
    tri_prototype: np.ndarray = field(init=False, repr=False)
    proto_areas: np.ndarray = field(init=False, repr=False)
    proto_grads: np.ndarray = field(init=False, repr=False)
    links: tuple = field(init=False, repr=False)
    cell_links: np.ndarray = field(init=False, repr=False)
    cell_skeleton: np.ndarray = field(init=False, repr=False)
    free_nodes: np.ndarray = field(init=False, repr=False)
    schur: Fronts = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("triangles", "interface_pairs", "boundary_nodes", "tri_cell_index",
                     "cell_nodes"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int32))
        index, nc = self.tri_cell_index, len(self.cells)
        if ((index < 0) | (index >= nc)).any():
            raise ValueError("tri_cell_index names a row outside cells")
        tri_count = np.bincount(index, minlength=nc)
        if not tri_count.all():
            raise ValueError("a row of cells has no triangle")
        tri_order = np.argsort(index, kind="stable")
        self.tri_local = np.empty(self.num_triangles, dtype=np.int32)
        self.tri_local[tri_order] = (
            np.arange(self.num_triangles) - np.repeat(np.cumsum(tri_count) - tri_count, tri_count))
        on = np.bincount(self.cell_nodes[self.cell_nodes >= 0], minlength=self.num_vertices) != 1
        on[self.boundary_nodes] = True  # the skeleton
        self.cell_skeleton = np.append(on, False)[self.cell_nodes]  # absent nodes (-1) read False
        self.free_nodes = np.delete(np.arange(self.num_vertices, dtype=np.int32),
                                    self.boundary_nodes)
        self.cell_kind = np.arange(nc) if self.cell_kind is None else self.cell_kind
        self._tile(on, tri_order, tri_count)
        self.schur = self._schur_fronts(on)
        self.ref_vertices = self.vertices
        self._take_prototypes(self.cell_kind)

    def _take_prototypes(self, kind: np.ndarray) -> None:
        """Make ``kind`` the cell kinds and the triangles of each kind's first
        cell the prototypes, with their geometry."""
        _, first, rank = np.unique(kind, return_index=True, return_inverse=True)
        if (self.cell_links != self.cell_links[first][rank]).any():
            raise ValueError("a kind holds cells of other links than its first cell's")
        self.cell_kind = kind
        on = np.flatnonzero(np.isin(self.tri_cell_index, first))  # the first cells' triangles
        self.prototypes = on[np.argsort(rank[self.tri_cell_index[on]], kind="stable")]
        kind_start = np.searchsorted(rank[self.tri_cell_index[self.prototypes]], rank)
        self.tri_prototype = kind_start.astype(np.int32)[self.tri_cell_index]
        self.tri_prototype += self.tri_local
        self.proto_areas, self.proto_grads = triangle_geometry(
            self.vertices, self.triangles[self.prototypes])

    @property
    def areas(self) -> np.ndarray:
        return np.take(self.proto_areas, self.tri_prototype)

    def with_kinds(self, kind: np.ndarray, vertices: np.ndarray = None) -> "MembraneMesh":
        """A copy sharing the topology, with cell kinds ``kind`` (and nodes at
        ``vertices``)."""
        out = copy.copy(self)
        out.vertices = self.vertices if vertices is None else vertices
        out._take_prototypes(kind)
        return out

    def _tile(self, on_skeleton: np.ndarray, tri_order: np.ndarray, count: np.ndarray) -> None:
        """Tile ``interface_edges`` and ``edge_cell_index`` from each kind's
        first cell and take its ``links`` (see the class docstring);
        ``on_skeleton`` marks the skeleton nodes, ``tri_order`` lists the
        triangles cell by cell."""
        table, tri, nv = self.cell_nodes, self.triangles, self.num_vertices
        w = table.shape[1]
        _, first, rank = np.unique(self.cell_kind, return_index=True, return_inverse=True)
        if (count != count[first][rank]).any():
            raise ValueError("a cell has other triangles than the first cell of its kind")
        partner = np.full(nv + 1, -1)  # each MINUS node's PLUS partner; the last entry reads -1
        partner[self.interface_pairs[:, 1]] = self.interface_pairs[:, 0]
        links, edges = [], [np.zeros((0, 5), dtype=np.int64)]
        for k, f in enumerate(first):
            members = np.flatnonzero(rank == k)
            tris = tri_order[(count.cumsum() - count)[members, None] + np.arange(count[f])]
            rows, row = table[members], table[f]
            valid, col = np.flatnonzero(row >= 0), np.full(nv + 1, -1)  # each node's column
            col[row[valid]] = valid
            tc, pc = col[tri[tris[0]]], col[partner[row]]  # corners' and partners' columns
            if not (np.array_equal(np.take(tri, tris, axis=0), np.take(rows, tc, axis=1))
                    and (np.take(self.tri_region, tris) == self.tri_region[tris[0]]).all()
                    and np.array_equal(partner[rows], np.where(pc >= 0, rows[:, pc], -1))):
                raise ValueError(f"a cell of kind {k} is no copy of cell {f} up to the numbering")
            # interface edges: edges of one MINUS triangle between nodes with PLUS partners
            minus = tc[self.tri_region[tris[0]] == MINUS]
            a, b = minus.ravel(), minus[:, [1, 2, 0]].ravel()
            _, inverse, n = np.unique(np.minimum(a, b) * w + np.maximum(a, b),
                                      return_inverse=True, return_counts=True)
            on = (n[inverse] == 1) & (pc[a] >= 0) & (pc[b] >= 0)
            ec = np.column_stack([pc[a[on]], pc[b[on]], a[on], b[on]])
            edges.append(np.dstack([rows[:, ec], members[:, None].repeat(len(ec), 1)]))
            # the links: the column pairs of the triangles' and the edges' entries
            i = np.concatenate([np.repeat(tc, 3, axis=1).ravel(), np.repeat(ec, 4, axis=1).ravel()])
            j = np.concatenate([np.tile(tc, 3).ravel(), np.tile(ec, 4).ravel()])
            keys, link = np.unique(i * w + j, return_inverse=True)
            link = link.astype(np.int32)
            r, c = keys // w, keys % w
            head = np.flatnonzero(np.diff(r, prepend=-1))  # each row's first link
            length = np.diff(np.append(head, len(r)))
            band = np.full((len(head), length.max(initial=0)), len(r))
            band[np.repeat(np.arange(len(head)), length), np.arange(len(r)) - np.repeat(head, length)] = \
                np.arange(len(r))
            # the interior columns, factored in their own fronts, and the skeleton ones
            skel = on_skeleton[row[valid]]
            inner, outer = valid[~skel], valid[skel]
            ni, nb = len(inner), len(outer)
            local = np.full(w, ni)  # each column's place among the interior ones; ni for none
            local[inner] = np.arange(ni)
            pairs = np.column_stack([local[r], local[c]])
            interior = _fronts(*_bisection(self.vertices[row[inner]], *pairs.T), pairs)
            interior.slots = interior.slots.reshape(-1, 2, 2)[:, 0, 1].copy()  # each pair's own entry
            elim = np.empty(ni + 1, dtype=np.int64)  # each interior column's elimination position
            elim[interior.nodes] = np.arange(ni)
            interior.nodes = inner[interior.nodes].astype(np.int32)
            ob = np.full(w, nb)  # each column's place among the skeleton ones; nb for none
            ob[outer] = np.arange(nb)
            coupling = np.full(len(keys), (ni + nb) * nb, dtype=np.int64)
            ib, bb = (local[r] < ni) & (ob[c] < nb), (ob[r] < nb) & (ob[c] < nb)
            coupling[ib] = elim[local[r[ib]]] * nb + ob[c[ib]]
            coupling[bb] = ni * nb + ob[r[bb]] * nb + ob[c[bb]]
            links.append(CellLinks(
                pairs=np.column_stack([r, c]).astype(np.int32),
                tri=link[:9 * len(tc)].reshape(-1, 9), edge=link[9 * len(tc):].reshape(-1, 16),
                edge_columns=ec.astype(np.int32), band=band.astype(np.int32),
                outer=outer.astype(np.int32),
                interior=interior, coupling=coupling.astype(np.int32)))
        self.links, self.cell_links = tuple(links), rank.astype(np.int32)

        e = np.concatenate([x.reshape(-1, 5) for x in edges])
        if (on_skeleton[e[:, 2]] & on_skeleton[e[:, 3]]).any():
            raise ValueError("an interface edge lies on the cell skeleton")
        order = np.lexsort(e[:, 3::-1].T)
        self.interface_edges = e[order, :4].astype(np.int32)
        self.edge_cell_index = e[order, 4].astype(np.int32)

    def _schur_fronts(self, on_skeleton: np.ndarray) -> Fronts:
        """The ``schur`` fronts of the free skeleton nodes (see the class
        docstring); ``on_skeleton`` marks the skeleton nodes."""
        table, on = self.cell_nodes, self.cell_skeleton
        nodes = np.setdiff1d(np.flatnonzero(on_skeleton), self.boundary_nodes, assume_unique=True)
        m = len(nodes)
        pos = np.full(self.num_vertices + 1, m, dtype=np.int64)
        pos[nodes] = np.arange(m)  # place among ``nodes``; m for the others and absent ones
        count = on.sum(axis=1)
        at = np.full((len(table), count.max(initial=0)), m, dtype=np.int64)  # m pads
        at[np.arange(at.shape[1]) < count[:, None]] = pos[table[on]]  # each cell's skeleton nodes
        fronts = _fronts(*_dissection(self.cells, table, on, pos, m), at)
        fronts.nodes = nodes[fronts.nodes].astype(np.int32)
        return fronts

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


def _dissection(cells: np.ndarray, table: np.ndarray, on: np.ndarray, pos: np.ndarray,
                m: int) -> tuple[list, np.ndarray]:
    """The nested dissection along the lattice lines (George, "Nested
    dissection of a regular finite element mesh", SIAM J. Numer. Anal. 1973)
    of the m nodes at ``pos`` (m for every other node), as ``_fronts`` takes
    it: the digits and levels.  Each node's box is the block of the
    ``cells`` whose rows of the cell ``table`` hold it at a column ``on``
    marks.  The block of all cells is cut at the middle of its longer side
    (x on a tie); the nodes whose box straddles the cut are its separator,
    numbered after those of both halves, and each half is cut the same way
    until it is one cell wide."""
    if not (m and len(cells)):
        return [], np.zeros(m, dtype=np.intp)
    rows, cols = np.nonzero(on)
    at, where = pos[table[rows, cols]], cells[rows]
    lo = np.full((m + 1, 2), np.iinfo(np.int64).max)  # each node's box; m takes the others
    hi = np.full((m + 1, 2), np.iinfo(np.int64).min)
    np.minimum.at(lo, at, where)
    np.maximum.at(hi, at, where)
    lo, hi, r = lo[:m], hi[:m], np.arange(m)
    b0 = np.repeat([cells.min(axis=0)], m, axis=0)  # each node's block: [b0, b1)
    b1 = np.repeat([cells.max(axis=0) + 1], m, axis=0)
    digits, cut = [], np.ones(m, dtype=bool)  # per cut: 0 left, 1 right, 2 separator
    level = np.zeros(m, dtype=np.intp)
    while True:
        size = b1 - b0
        axis = (size[:, 1] > size[:, 0]).astype(np.intp)
        half = size[r, axis] // 2
        cut &= half > 0
        if not cut.any():
            break
        mid = b0[r, axis] + half
        right = lo[r, axis] >= mid
        sep = ~right & (hi[r, axis] >= mid)
        digits.append((np.where(sep, 2, right) * cut).astype(np.int8))
        down, up = cut & right, cut & ~right & ~sep
        b0[r[down], axis[down]] = mid[down]
        b1[r[up], axis[up]] = mid[up]
        cut &= ~sep
        level += cut
    return digits, level


LEAF = 64  # nodes of a block that coordinate bisection cuts no further


def _bisection(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple[list, np.ndarray]:
    """The coordinate bisection of a graph on n nodes at ``points`` (n, 2)
    with the edges i-j (a node n stands for none), as ``_fronts`` takes it:
    the digits and levels.  A block of more than LEAF nodes is cut at the
    median of its nodes along its longer side (x on a tie); its separator is
    the nodes at or below the cut with a neighbour above it, numbered after
    both halves.  A block that no cut divides is a leaf."""
    n = len(points)
    valid = (i < n) & (j < n)
    i, j = i[valid], j[valid]
    block, level = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    digits, cut = [], np.ones(n, dtype=bool)
    while True:
        nb = block.max(initial=-1) + 1
        cut &= np.bincount(block[cut], minlength=nb)[block] > LEAF
        if not cut.any():
            break
        lo = np.full((nb, 2), np.inf)
        hi = np.full((nb, 2), -np.inf)
        np.minimum.at(lo, block[cut], points[cut])
        np.maximum.at(hi, block[cut], points[cut])
        x = points[np.arange(n), (hi - lo).argmax(axis=1)[block]]
        at = np.flatnonzero(cut)
        at = at[np.lexsort((x[at], block[at]))]  # each block's nodes by x
        count = np.bincount(block[at], minlength=nb)
        median = np.zeros(nb)
        median[count > 0] = x[at[(np.cumsum(count) - count + (count - 1) // 2)[count > 0]]]
        right = cut & (x > median[block])
        cut &= (np.bincount(block[right], minlength=nb) > 0)[block]  # else a leaf
        right &= cut
        e = cut[i] & cut[j] & (block[i] == block[j]) & (right[i] != right[j])
        sep = np.zeros(n, dtype=bool)
        sep[np.where(right[i[e]], j[e], i[e])] = True
        digit = (np.where(sep, 2, right) * cut).astype(np.int8)
        digits.append(digit)
        block = np.unique(block * 3 + digit, return_inverse=True)[1].reshape(n)
        cut &= ~sep
        level += cut
    return digits, level


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
    return (np.take(v, t[:, 0], axis=0) + np.take(v, t[:, 1], axis=0)
            + np.take(v, t[:, 2], axis=0)) / 3.0


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
    c = np.asarray(CENTER)
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
        round((0.5 - r) * np.log(q) / ((q - 1.0) * h_t)),
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
    triangles = np.array(tris, dtype=np.int32)
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
        interface_pairs=np.column_stack([plus_ids[0], minus_interface]),
        boundary_nodes=plus_ids[-1],
        cells=np.zeros((1, 2), dtype=np.int64),  # one cell: every triangle and node
        tri_cell_index=np.zeros(len(triangles), dtype=np.int32),
        cell_nodes=np.arange(len(vertices), dtype=np.int32)[None],
    )
    angle = mesh.min_angle_deg()
    if angle < MIN_ANGLE_DEG:
        raise MeshQualityFailure(f"min angle {angle:.2f} deg < {MIN_ANGLE_DEG}")
    return mesh


def first_coincident(points: np.ndarray) -> np.ndarray:
    """For each point (rows of ``points``), the index of the first point at
    the same position after rounding to 1e-10."""
    keys = np.round(points * 1e10)  # whole numbers, exact in float64
    _, first, group = np.unique(keys[:, 0] + 1j * keys[:, 1], return_index=True,
                                return_inverse=True)
    return first[group]


def _lattice(xs, ys) -> np.ndarray:
    """Integer cells (kx, ky) for kx in xs, ky in ys, kx varying slowest."""
    kx, ky = np.meshgrid(np.asarray(xs), np.asarray(ys), indexing="ij")
    return np.column_stack([kx.ravel(), ky.ravel()]).astype(np.int64)


class _Tiling:
    """What tiling a cell mesh over a lattice block fixes before any map is
    applied: the cell mesh, the entries (cell, local node) that start a node,
    and the tiled mesh at the reference positions.  Raises StitchFailure
    where two shared boundary entries that round to one node lie apart (more
    than STITCH_TOL) in the reference cell."""

    def __init__(self, cell: MembraneMesh, cells: np.ndarray, membrane: np.ndarray, scale: float):
        nc, nv, nt = len(cells), cell.num_vertices, cell.num_triangles
        plus, minus = cell.interface_pairs[:, 0], cell.interface_pairs[:, 1]
        self.cell, self.scale = cell, scale
        ref = (cell.vertices[None, :, :] + cells[:, None, :].astype(float)).reshape(-1, 2)

        # entries (cell, local node) in cell-major order; merged MINUS nodes drop out
        keep = np.ones((nc, nv), dtype=bool)
        keep[np.ix_(~membrane, minus)] = False
        on_boundary = np.zeros(nv, dtype=bool)
        on_boundary[cell.boundary_nodes] = True
        shared = np.flatnonzero(keep & on_boundary)
        owner = shared[first_coincident(ref[shared])]
        gap = np.abs(ref[owner] - ref[shared]).max(axis=1)
        if (gap > STITCH_TOL).any():
            i, j = owner[gap.argmax()], shared[gap.argmax()]
            k = tuple(int(x) for x in cells[j // nv])
            raise StitchFailure(f"boundary node mismatch at cell {k}: {ref[i]} vs {ref[j]}")

        self.new = keep.reshape(-1)  # entries that start a node: all but non-owner shared ones
        self.new[shared] = owner == shared
        gid = np.full(nc * nv, -1, dtype=np.int32)
        gid[self.new] = np.arange(np.count_nonzero(self.new))
        gid[shared] = gid[owner]
        gid = gid.reshape(nc, nv)  # the cell table: -1 at the merged MINUS nodes
        merged = gid.copy()
        merged[np.ix_(~membrane, minus)] = gid[np.ix_(~membrane, plus)]

        self.membrane = membrane
        pairs = np.stack([gid[membrane][:, plus], gid[membrane][:, minus]], axis=-1)
        ref = np.compress(self.new, ref, axis=0)  # as ref[self.new], but faster
        box = np.stack([cells.min(axis=0), cells.max(axis=0) + 1])  # lower and upper corner
        on_box = (np.abs(ref - box[0]) < 1e-12) | (np.abs(ref - box[1]) < 1e-12)
        self.mesh = MembraneMesh(
            vertices=ref,
            triangles=np.take(merged, cell.triangles, axis=1).reshape(-1, 3),
            tri_region=np.where(membrane[:, None], cell.tri_region, PLUS).reshape(-1).astype(np.int8),
            interface_pairs=pairs.reshape(-1, 2),
            boundary_nodes=np.flatnonzero(on_box[:, 0] | on_box[:, 1]).astype(np.int32),
            cells=cells,
            tri_cell_index=np.repeat(np.arange(nc, dtype=np.int32), nt),
            cell_nodes=gid,
            cell_kind=membrane.astype(np.int64),
        )

    def realize(self, dmap: DeformationMap) -> MembraneMesh:
        """The tiled mesh at the nodes' deformed, rescaled positions, each
        cell of the kind 2 * bumped + membrane, with the triangles of each
        kind's first cell as its prototypes.  The map is applied to the nodes
        of each kind's first cell only, and every other cell is that cell
        moved by the lattice offset, as the ``DeformationMap`` contract
        allows.  Raises StitchFailure where the map moves a boundary node of
        a first cell (more than STITCH_TOL): such a map cannot tile."""
        cells = self.mesh.cells
        kind = 2 * dmap.bumped(cells) + self.membrane
        _, first, rank = np.unique(kind, return_index=True, return_inverse=True)
        lead = cells[first]  # each kind's first cell
        ref = self.cell.vertices[None, :, :] + lead[:, None, :].astype(float)
        moved = dmap.apply(ref.reshape(-1, 2)).reshape(ref.shape)
        bnd = self.cell.boundary_nodes
        gap = np.abs(moved[:, bnd] - ref[:, bnd]).max(axis=(1, 2))
        if (gap > STITCH_TOL).any():
            k = tuple(int(x) for x in lead[gap.argmax()])
            raise StitchFailure(f"the map moves a boundary node of cell {k} by {gap.max():.3g}")
        at = (self.scale * moved)[rank]
        at += (self.scale * (cells - lead[rank]).astype(float))[:, None]  # the lattice offsets
        return self.mesh.with_kinds(kind, np.compress(self.new, at.reshape(-1, 2), axis=0))


@functools.lru_cache(maxsize=4)
def _template(cell: MembraneMesh, lo: tuple, n: int, beta: float, scale: float) -> _Tiling:
    """The tiling template of the cell mesh over the n x n lattice block
    with lower corner ``lo`` at ``scale``, the cells at lattice distance >=
    beta from the block's boundary keeping their membranes, built once per
    configuration and process (keyed by the cell mesh object, which
    ``build_cell_mesh`` builds once).  Shared boundary nodes are stitched
    here, at reference positions; its ``realize`` deforms each kind's first
    cell and places the other cells by their lattice offsets.  Its boundary
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
    cells = _lattice(range(blocks), range(blocks))
    lo = cells * GRID_BLOCK  # each block's first row and column of nodes
    size = np.minimum(m - lo, GRID_BLOCK) + 1  # its rows and columns of nodes
    short = size <= GRID_BLOCK
    # each block's table: its rectangle of nodes in node order, -1 after
    at = np.arange((min(m, GRID_BLOCK) + 1) ** 2)
    table = (lo[:, :1] + at // size[:, 1:]) * (m + 1) + lo[:, 1:] + at % size[:, 1:]
    block = np.arange(m, dtype=np.int32) // GRID_BLOCK  # the block of each row (column) of squares
    t = np.linspace(0.0, 1.0, m + 1)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel()])
    # square (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1)
    a = (np.arange(m, dtype=np.int32)[:, None] * (m + 1) + np.arange(m, dtype=np.int32)).ravel()
    b, c, d = a + m + 1, a + m + 2, a + 1
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    on_bd = ((verts == 0.0) | (verts == 1.0)).any(axis=1)
    return MembraneMesh(
        vertices=verts,
        triangles=triangles,
        tri_region=np.full(len(triangles), PLUS, dtype=np.int8),
        interface_pairs=np.zeros((0, 2), dtype=np.int32),
        boundary_nodes=np.flatnonzero(on_bd).astype(np.int32),
        cells=cells,
        tri_cell_index=np.repeat((block[:, None] * blocks + block).ravel(), 2),
        cell_nodes=np.where(at < size.prod(axis=1, keepdims=True), table, -1),
        cell_kind=2 * short[:, 0] + short[:, 1],
    )


def export_mesh(mesh: MembraneMesh, path) -> None:
    """Write the plain-text `membrane-mesh v1` format, coordinates by repr
    (so they read back bit-exact)."""
    lines = ["membrane-mesh v1"]
    lines.append(f"V {mesh.num_vertices}")
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"T {mesh.num_triangles}")
    for tri, reg, k in zip(mesh.triangles, mesh.tri_region, mesh.cells[mesh.tri_cell_index]):
        lines.append(f"{tri[0]} {tri[1]} {tri[2]} {reg} {k[0]} {k[1]}")
    lines.append(f"IE {len(mesh.interface_pairs)}")
    for p, m in mesh.interface_pairs:
        lines.append(f"{p} {m}")
    lines.append(f"B {len(mesh.boundary_nodes)}")
    for b in mesh.boundary_nodes:
        lines.append(f"{b}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
