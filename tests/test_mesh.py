import math
import re

import numpy as np
import pytest

import membrane_homog.meshing as meshing
from membrane_homog.errors import MeshQualityFailure, StitchFailure
from membrane_homog.fem import BilinearFormSpec, assemble
from membrane_homog.geometry import (
    BernoulliCellwiseMap,
    BumpMap,
    IdentityMap,
    InterfaceSpec,
    ScalingMap,
)
from membrane_homog.meshing import (
    MINUS,
    PLUS,
    MembraneMesh,
    build_cell_mesh,
    build_square_mesh,
    build_truncated_mesh,
    export_mesh,
    first_coincident,
    interface_node_count,
    tile_domain_mesh,
    triangle_centroids,
)
from helpers import cellwise, flat_triangles

SPEC = InterfaceSpec()
# the index arrays a mesh stores as int32
INDEX_ARRAYS = ("prototypes", "cell_nodes", "free_nodes", "boundary_nodes", "interface_pairs",
                "interface_edges", "edge_cell_index", "cell_links")


def cell_tables(tri_cell, triangles, num_vertices):
    """The ``cells``, ``tri_cell_index`` and ``cell_nodes`` of the mesh whose
    triangles lie in the lattice cells ``tri_cell`` (nt, 2), derived by sorts:
    the distinct cells in lexicographic order, each triangle's row of them,
    and each cell's nodes, those of its triangles in increasing order, padded
    with -1."""
    lo = tri_cell.min(axis=0, initial=0)
    x, y = tri_cell[:, 0] - lo[0], tri_cell[:, 1] - lo[1]
    ny = y.max(initial=0) + 1
    keys, inverse = np.unique(x * ny + y, return_inverse=True)
    nv = num_vertices
    corners = np.sort(np.repeat(inverse * nv, 3) + triangles.ravel())
    corners = corners[np.diff(corners, prepend=-1) != 0]
    cell = corners // nv
    count = np.bincount(cell, minlength=len(keys))
    table = np.full((len(keys), count.max(initial=0)), -1, dtype=np.int32)
    table[cell, np.arange(len(corners)) - (np.cumsum(count) - count)[cell]] = corners - cell * nv
    return {"cells": np.column_stack([keys // ny, keys % ny]) + lo,
            "tri_cell_index": inverse.reshape(-1).astype(np.int32), "cell_nodes": table}


def mesh_from_tri_cell(tri_cell, **arrays):
    """The MembraneMesh of ``arrays`` with its cell arrays derived from each
    triangle's lattice cell by ``cell_tables``; a cell array among ``arrays``
    replaces the derived one."""
    cells = cell_tables(tri_cell, arrays["triangles"], len(arrays["vertices"]))
    return MembraneMesh(**{**cells, **arrays})


def sorted_rows(table):
    """Each row's nodes in increasing order, -1 after, less the columns
    that are -1 in every row."""
    absent = np.iinfo(table.dtype).max
    rows = np.sort(np.where(table < 0, absent, table), axis=1)
    rows = rows[:, :(rows < absent).sum(axis=1).max(initial=0)]
    return np.where(rows == absent, -1, rows)


def assert_cells_match_oracle(mesh, tri_cell, tiled=False):
    """The cell arrays the builder stated equal those ``cell_tables`` derives
    from ``tri_cell``, each triangle's cell from a source other than the
    mesh, dtype included.  A tiling's table lists each cell's nodes in the
    columns of its cell mesh's nodes, so there each row's nodes are compared."""
    flat = flat_triangles(mesh)
    for name, want in cell_tables(tri_cell, flat.triangles, mesh.num_vertices).items():
        got = flat.cell if name == "tri_cell_index" else getattr(mesh, name)
        if name == "cell_nodes" and tiled:
            got = sorted_rows(got)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def grid_tri_cell(m):
    """Each triangle's cell in ``build_square_mesh(m)``, in the order of
    ``flat_triangles``: square (i, j), the triangles 2 * (i * m + j) and the
    next as the builder lists them, lies in (i // 16, j // 16), and the
    cells' triangles come cell by cell in lattice order, each cell's in the
    builder's order."""
    i, j = np.divmod(np.arange(m * m), m)
    cells = np.repeat(np.column_stack([i, j]) // meshing.GRID_BLOCK, 2, axis=0)
    return cells[np.lexsort(cells.T[::-1])]


def block_tri_cell(cell, xs, ys):
    """Each triangle's cell in a tiling of ``cell`` over the lattice block
    xs x ys, by ``looped_tiling``."""
    cells = [(kx, ky) for kx in xs for ky in ys]
    return looped_tiling(cell, IdentityMap(), cells, [True] * len(cells), 1.0)["tri_cell"]


def scanned_topology(mesh, tri_cell):
    """Reference topology by a plain scan over the triangles, each in its
    lattice cell of ``tri_cell``: sorted distinct cells, each triangle's cell
    row, and the interface edges (boundary edges of the MINUS region between
    MINUS interface nodes, oriented by their MINUS triangle, sorted) with
    their cells."""
    cells = sorted(set(map(tuple, tri_cell.tolist())))
    row = {k: i for i, k in enumerate(cells)}
    tri_index = [row[tuple(k)] for k in tri_cell.tolist()]
    m2p = {m: p for p, m in mesh.interface_pairs.tolist()}
    count, oriented, flat = {}, {}, flat_triangles(mesh)
    for tri, reg, k in zip(flat.triangles.tolist(), flat.region, tri_cell.tolist()):
        if reg != MINUS:
            continue
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            count[key] = count.get(key, 0) + 1
            oriented[key] = (a, b, k)
    rows = sorted(
        (m2p[a], m2p[b], a, b, *k)
        for key, (a, b, k) in oriented.items()
        if count[key] == 1 and a in m2p and b in m2p
    )
    rows = np.array(rows, dtype=np.int64).reshape(-1, 6)
    return np.array(cells).reshape(-1, 2), np.array(tri_index), rows[:, :4], rows[:, 4:]


def looped_tiling(cell, dmap, cells, membrane, scale):
    """Reference tiling by a loop over the nodes of each cell: nodes numbered
    in order of first appearance, shared boundary nodes matched by rounded
    coordinates, MINUS nodes of membrane-less cells merged into their PLUS
    copies."""
    boundary, flat = set(cell.boundary_nodes.tolist()), flat_triangles(cell)
    m2p = {m: p for p, m in cell.interface_pairs.tolist()}
    verts, refs, shared, tris, regions, tri_cells, pairs = [], [], {}, [], [], [], []
    for k, has in zip(cells, membrane):
        ref = cell.vertices + np.array(k, dtype=float)
        phys = scale * dmap.apply(ref)
        gid = {}
        for v in range(cell.num_vertices):
            if not has and v in m2p:
                continue
            if v in boundary:
                key = (int(round(phys[v, 0] * 1e10)), int(round(phys[v, 1] * 1e10)))
                if key in shared:
                    gid[v] = shared[key]
                    continue
                shared[key] = len(verts)
            gid[v] = len(verts)
            verts.append(phys[v])
            refs.append(ref[v])
        for m, p in m2p.items():
            gid.setdefault(m, gid[p])
        for tri, reg in zip(flat.triangles.tolist(), flat.region.tolist()):
            tris.append([gid[a] for a in tri])
            regions.append(reg if has else PLUS)
            tri_cells.append(k)
        if has:
            pairs += [(gid[p], gid[m]) for p, m in cell.interface_pairs.tolist()]
    return {
        "vertices": np.array(verts), "ref_vertices": np.array(refs),
        "triangles": np.array(tris), "tri_region": np.array(regions),
        "tri_cell": np.array(tri_cells), "interface_pairs": np.array(pairs).reshape(-1, 2),
    }


ULPS = 2  # how far a realization may put a node from the map applied to it, in ulps


def ulps_apart(got, want):
    """The largest distance between ``got`` and ``want``, in units of the
    spacing of ``want``'s largest coordinate."""
    return float(np.abs(got - want).max() / np.spacing(np.abs(want).max()))


def realize_ulps(mesh, cell, dmap, scale):
    """How far ``mesh``, a realization of the tiling of ``cell`` at ``scale``
    under ``dmap``, puts the node of each entry (cell k, local node) it keeps
    from ``scale * dmap.apply(cell.vertices + k)``, in ulps (``ulps_apart``)."""
    kept = mesh.cell_nodes >= 0
    ref = cell.vertices[None, :, :] + mesh.cells[:, None, :].astype(float)
    return ulps_apart(mesh.vertices[mesh.cell_nodes[kept]], scale * dmap.apply(ref[kept]))


def assert_tiling_matches_loop(mesh, reference):
    """Every array bitwise the loop's, but the vertices: those within ULPS,
    as the loop maps every node and a realization every kind's first cell."""
    flat = flat_triangles(mesh)
    stated = {"tri_cell": mesh.cells[flat.cell], "triangles": flat.triangles,
              "tri_region": flat.region}
    for name, want in reference.items():
        got = stated[name] if name in stated else getattr(mesh, name)
        assert got.shape == want.shape, name
        if name == "vertices":
            assert ulps_apart(got, want) <= ULPS
        else:
            assert np.array_equal(got, want), name


def assert_topology_matches_scan(mesh, tri_cell):
    cells, tri_index, edges, edge_cells = scanned_topology(mesh, tri_cell)
    assert np.array_equal(mesh.cells, cells)
    assert np.array_equal(flat_triangles(mesh).cell, tri_index)
    assert np.array_equal(mesh.interface_edges, edges)
    stored_edges, stored_cells = mesh.interface_edges_with_cells()
    assert np.array_equal(stored_edges, edges)
    assert np.array_equal(stored_cells, edge_cells)
    assert np.array_equal(mesh.cells[mesh.edge_cell_index], edge_cells)


def looped_conformity(mesh):
    """Reference conformity check by a loop over the triangles with a
    tuple-keyed edge dict: (conforming, issues in order of first appearance)."""
    minus_iface = set(mesh.interface_pairs[:, 1].tolist())
    plus_iface = set(mesh.interface_pairs[:, 0].tolist())
    boundary = set(mesh.boundary_nodes.tolist())
    edges, flat = {}, flat_triangles(mesh)
    for tri, reg in zip(flat.triangles, flat.region):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            edges.setdefault(key, []).append(int(reg))
    issues = []
    for (a, b), regs in edges.items():
        if len(regs) == 2:
            if regs[0] != regs[1]:
                issues.append(f"edge ({a},{b}) shared across regions")
        elif len(regs) == 1:
            iface = (a in minus_iface and b in minus_iface) or (
                a in plus_iface and b in plus_iface
            )
            outer = a in boundary and b in boundary
            if not (iface or outer):
                issues.append(f"dangling edge ({a},{b})")
        else:
            issues.append(f"edge ({a},{b}) in {len(regs)} triangles")
    return not issues, issues


def pairing_gap(mesh):
    """The largest coordinate difference between the two nodes of an
    interface pair, 0 without pairs."""
    p = mesh.interface_pairs
    return float(np.abs(mesh.vertices[p[:, 0]] - mesh.vertices[p[:, 1]]).max(initial=0.0))


def quality_report(mesh):
    """The faults of a nonempty mesh, none for a good one: the issues of
    ``looped_conformity``, a nonpositive triangle area, an angle below
    ``meshing.MIN_ANGLE_DEG`` and an interface pair more than 1e-12 apart.
    An empty mesh raises ValueError."""
    if mesh.num_triangles == 0:
        raise ValueError("empty mesh")
    issues, areas = looped_conformity(mesh)[1], flat_triangles(mesh).areas
    if areas.min() <= 0.0:
        issues.append(f"nonpositive triangle area {areas.min():.3e}")
    if mesh.min_angle_deg() < meshing.MIN_ANGLE_DEG:
        issues.append(f"min angle {mesh.min_angle_deg():.2f} deg")
    if pairing_gap(mesh) > 1e-12:
        issues.append(f"interface pairing gap {pairing_gap(mesh):.3e}")
    return issues


def rebuilt(mesh, tri_cell=None, **changes):
    """A mesh built afresh from the given mesh's arrays, some replaced by
    ``changes``, its cell arrays derived from ``tri_cell`` (by default each
    triangle's cell in ``mesh``): unless ``changes`` name them, with its own
    cell table and every cell its own kind."""
    flat = flat_triangles(mesh)
    args = {name: getattr(mesh, name) for name in ("vertices", "interface_pairs", "boundary_nodes")}
    args.update(triangles=flat.triangles, tri_region=flat.region)
    return mesh_from_tri_cell(mesh.cells[flat.cell] if tri_cell is None else tri_cell,
                              **{**args, **changes})


@pytest.fixture(scope="module")
def cell_h01():
    return build_cell_mesh(SPEC, 0.1)


class TestCellMesh:
    @pytest.mark.parametrize("h", [0.25, 0.1, 0.05, 0.0125])
    def test_quality_and_conformity(self, h):
        mesh = build_cell_mesh(SPEC, h)
        assert quality_report(mesh) == []
        assert mesh.min_angle_deg() >= 20.0
        assert pairing_gap(mesh) == 0.0

    @pytest.mark.parametrize("h", [0.25, 0.1, 0.05])
    def test_total_area_is_one(self, h):
        mesh = build_cell_mesh(SPEC, h)
        assert abs(flat_triangles(mesh).areas.sum() - 1.0) < 1e-12

    def test_minus_area_approximates_disk(self):
        mesh = build_cell_mesh(SPEC, 0.05)
        flat = flat_triangles(mesh)
        a_minus = flat.areas[flat.region == MINUS].sum()
        assert abs(a_minus - np.pi * SPEC.radius**2) < 2e-3

    def test_interface_edge_count_matches_node_count(self, cell_h01):
        edges = cell_h01.interface_edges
        assert len(edges) == len(cell_h01.interface_pairs)
        # closed polyline: each minus node appears once as source, once as target
        assert sorted(edges[:, 2]) == sorted(edges[:, 3])

    def test_interface_nodes_lie_on_circle(self, cell_h01):
        for col in (0, 1):
            pts = cell_h01.vertices[cell_h01.interface_pairs[:, col]]
            rad = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
            assert np.abs(rad - SPEC.radius).max() < 1e-12

    def test_boundary_nodes_on_unit_square(self, cell_h01):
        pts = cell_h01.vertices[cell_h01.boundary_nodes]
        on_edge = (
            (pts[:, 0] == 0.0) | (pts[:, 0] == 1.0) | (pts[:, 1] == 0.0) | (pts[:, 1] == 1.0)
        )
        assert on_edge.all()

    def test_boundary_is_mirror_symmetric(self, cell_h01):
        """Opposite cell edges carry bitwise-identical node coordinates, the
        property that makes node-to-node tiling possible."""
        pts = cell_h01.vertices[cell_h01.boundary_nodes]
        left = np.sort(pts[pts[:, 0] == 0.0][:, 1])
        right = np.sort(pts[pts[:, 0] == 1.0][:, 1])
        bottom = np.sort(pts[pts[:, 1] == 0.0][:, 0])
        top = np.sort(pts[pts[:, 1] == 1.0][:, 0])
        assert np.array_equal(left, right)
        assert np.array_equal(bottom, top)
        assert np.array_equal(left, bottom)

    def test_h_outside_range_rejected(self):
        # the config's range of h; 0.25 is the coarsest size that meshes
        for h in (0.7, 0.25 + 1e-12, 0.0, -0.05):
            with pytest.raises(ValueError, match=re.escape(f"h must be in (0, 0.25], got {h}")):
                build_cell_mesh(SPEC, h)

    def test_interface_node_count_multiple_of_eight(self):
        for h in (0.25, 0.17, 0.1, 0.06, 0.05, 0.02, 0.0125):
            n = interface_node_count(SPEC.radius, h)
            assert n % 8 == 0
            assert n >= np.ceil(2 * np.pi * SPEC.radius / h)

    @pytest.mark.parametrize("radius, h", [(0.4, 0.05), (0.3, 0.05), (0.25, 0.03)])
    def test_unhalvable_rings_end_in_quality_failure(self, radius, h, monkeypatch):
        """The disk rings stop halving at a count that is not a multiple of 8,
        so every ring keeps a count that is a multiple of 4 and these sizes
        end in a quality verdict, not a failed assertion."""
        counts = []
        real = meshing._symmetric_directions

        def recorded(n):
            counts.append(n)
            return real(n)

        monkeypatch.setattr(meshing, "_symmetric_directions", recorded)
        with pytest.raises(MeshQualityFailure):
            build_cell_mesh(InterfaceSpec(radius=radius), h)
        assert counts and all(n % 4 == 0 for n in counts)


def membrane_cells(n, beta):
    """Cells of the n x n grid that tiling gives a membrane, in lattice order."""
    cells = meshing._lattice(range(n), range(n))
    return [tuple(k) for k in cells[meshing._carries_membrane(cells, n, beta)].tolist()]


class TestMembraneCells:
    def test_quarter_eps_keeps_center_four(self):
        assert membrane_cells(4, SPEC.beta) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_half_eps_keeps_none(self):
        assert membrane_cells(2, SPEC.beta) == []

    def test_interior_count(self):
        assert len(membrane_cells(10, SPEC.beta)) == 64


class TestTiledDomain:
    def test_identity_quarter_eps(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, IdentityMap(), 0.25, SPEC)
        assert quality_report(mesh) == []
        flat = flat_triangles(mesh)
        assert abs(flat.areas.sum() - 1.0) < 1e-12
        cells = set(map(tuple, mesh.cells[flat.cell[flat.region == MINUS]].tolist()))
        assert cells == {(1, 1), (1, 2), (2, 1), (2, 2)}
        n_if = len(cell_h01.interface_pairs)
        assert len(mesh.interface_pairs) == 4 * n_if

    def test_half_eps_has_no_membranes(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, IdentityMap(), 0.5, SPEC)
        assert len(mesh.interface_pairs) == 0
        flat = flat_triangles(mesh)
        assert (flat.region == PLUS).all()
        assert abs(flat.areas.sum() - 1.0) < 1e-12

    def test_deformed_tiling_conforms(self, cell_h01):
        dmap = BernoulliCellwiseMap(seed=42)
        mesh = tile_domain_mesh(cell_h01, dmap, 0.125, SPEC)
        assert quality_report(mesh) == []
        assert abs(flat_triangles(mesh).areas.sum() - 1.0) < 1e-10

    def test_membranes_off(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, IdentityMap(), 0.25, SPEC, membranes=False)
        assert len(mesh.interface_pairs) == 0
        assert (flat_triangles(mesh).region == PLUS).all()

    def test_seed_changes_only_flipped_cells(self, cell_h01):
        a = tile_domain_mesh(cell_h01, BernoulliCellwiseMap(seed=1), 0.125, SPEC)
        b = tile_domain_mesh(cell_h01, BernoulliCellwiseMap(seed=2), 0.125, SPEC)
        bits_a = BernoulliCellwiseMap(seed=1).field
        bits_b = BernoulliCellwiseMap(seed=2).field
        fa, fb = flat_triangles(a), flat_triangles(b)
        kx, ky = a.cells[fa.cell].T
        same = bits_a.bits(kx, ky) == bits_b.bits(kx, ky)
        # triangle connectivity is shared; vertex positions agree within ULPS
        # on cells whose Bernoulli bits agree (each seed places them from its
        # own first cell of their kind)
        assert np.array_equal(fa.triangles, fb.triangles)
        nodes = fa.triangles[same]
        assert ulps_apart(b.vertices[nodes], a.vertices[nodes]) <= ULPS
        assert not np.array_equal(a.vertices[fa.triangles[~same]], b.vertices[fb.triangles[~same]])

    def test_rejects_non_integer_reciprocal_eps(self, cell_h01):
        with pytest.raises(ValueError):
            tile_domain_mesh(cell_h01, IdentityMap(), 0.3, SPEC)

    def test_stitch_failure_on_perturbed_template(self, cell_h01):
        vertices = cell_h01.vertices.copy()
        left = [v for v in cell_h01.boundary_nodes if vertices[v, 0] == 0.0]
        target = next(v for v in left if 0.2 < vertices[v, 1] < 0.8)
        vertices[target, 1] += 5e-12  # below the key grid, above tolerance
        bad = rebuilt(cell_h01, vertices=vertices)
        with pytest.raises(StitchFailure):
            tile_domain_mesh(bad, IdentityMap(), 0.25, SPEC)


class TestTruncatedMesh:
    def test_single_cell_halfwidth(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, IdentityMap(), 1)
        flat = flat_triangles(mesh)
        cells = set(map(tuple, mesh.cells[flat.cell].tolist()))
        assert cells == {(-1, -1), (-1, 0), (0, -1), (0, 0)}
        assert len(mesh.interface_pairs) == 4 * len(cell_h01.interface_pairs)
        assert abs(flat.areas.sum() - 4.0) < 1e-12

    def test_deformed_area_preserved(self, cell_h01):
        """Each cell maps onto itself, so mesh area equals the cube area."""
        mesh = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=7), 4)
        assert abs(flat_triangles(mesh).areas.sum() - 64.0) < 1e-10
        assert quality_report(mesh) == []

    def test_all_cells_carry_membranes(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, IdentityMap(), 2)
        flat = flat_triangles(mesh)
        cells = set(map(tuple, mesh.cells[flat.cell[flat.region == MINUS]].tolist()))
        assert len(cells) == 16

    def test_boundary_nodes_on_cube(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=3), 2)
        pts = mesh.ref_vertices[mesh.boundary_nodes]
        on_edge = (np.abs(np.abs(pts[:, 0]) - 2.0) < 1e-12) | (
            np.abs(np.abs(pts[:, 1]) - 2.0) < 1e-12
        )
        assert on_edge.all()

    def test_reference_vertices_track_lattice(self, cell_h01):
        dmap = BernoulliCellwiseMap(seed=11)
        mesh = build_truncated_mesh(cell_h01, dmap, 1)
        phys = dmap.apply(mesh.ref_vertices)
        assert np.abs(phys - mesh.vertices).max() < 1e-14


class TestTilingTemplate:
    """A tiling's topology and matrix pattern are built once per
    configuration; a realization only moves the nodes."""

    CASES = {
        "truncated": lambda cell, seed: build_truncated_mesh(cell, BernoulliCellwiseMap(seed), 2),
        "tiled": lambda cell, seed: tile_domain_mesh(cell, BernoulliCellwiseMap(seed), 0.25, SPEC),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_warm_realization_equals_cold(self, cell_h01, case):
        build = self.CASES[case]
        form = BilinearFormSpec(jump_weight=4.0, mass_weight=1e-3)
        meshing._template.cache_clear()
        cold = build(cell_h01, 3)
        cold_matrix = assemble(cold, form).matrix
        build(cell_h01, 4)
        warm = build(cell_h01, 3)
        for name in vars(cold):
            got, want = getattr(warm, name), getattr(cold, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            elif name == "kinds":
                assert len(got) == len(want) and all(
                    g.cells.tobytes() == w.cells.tobytes() and g.links is w.links
                    and g.protos == w.protos for g, w in zip(got, want))
            else:
                assert got == want, name
        assert assemble(warm, form).matrix.data.tobytes() == cold_matrix.data.tobytes()

    def test_second_realization_searches_no_coincident_nodes(self, cell_h01, monkeypatch):
        calls = []

        def counted(points):
            calls.append(len(points))
            return first_coincident(points)

        monkeypatch.setattr(meshing, "first_coincident", counted)
        meshing._template.cache_clear()
        build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=1), 2)
        assert len(calls) == 1
        build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=2), 2)
        assert len(calls) == 1

    def test_realization_shares_the_template_topology(self, cell_h01):
        a = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=1), 2)
        b = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=2), 2)
        assert b.links is a.links  # every class's triangles and links
        assert b.ref_vertices is a.ref_vertices
        assert b.cell_nodes is a.cell_nodes
        assert b.cell_skeleton is a.cell_skeleton and b.free_nodes is a.free_nodes
        assert b.schur is a.schur and cellwise(b).schur is a.schur
        for array in INDEX_ARRAYS:
            if array != "prototypes":  # each set of kinds takes its own prototypes
                assert getattr(b, array) is getattr(a, array), array
                assert getattr(cellwise(a), array) is getattr(a, array), array
        assert not np.array_equal(a.vertices, b.vertices)
        # each realization names its own kinds, 2 * bumped + membrane
        for seed, mesh in ((1, a), (2, b)):
            bumped = BernoulliCellwiseMap(seed=seed).bumped(mesh.cells)
            assert np.array_equal(mesh.cell_kind, 2 * bumped + 1)


class TestPrototypes:
    """Every mesh takes its prototypes from its kinds: the triangles of each
    kind's first cell.  A realization's geometry is theirs, moved by the
    lattice offset."""

    @pytest.mark.parametrize("build", [
        lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(seed=5), 2),
        lambda cell: tile_domain_mesh(cell, BernoulliCellwiseMap(seed=8), 0.125, SPEC),
    ], ids=["truncated", "tiled"])
    def test_first_cell_of_each_kind(self, cell_h01, build):
        mesh = build(cell_h01)
        flat = flat_triangles(mesh)
        nt = cell_h01.num_triangles
        _, first = np.unique(mesh.cell_kind, return_index=True)
        at = (first[:, None] * nt + np.arange(nt)).ravel()  # the first cells' triangles
        assert np.array_equal(mesh.prototypes, flat.triangles[at])
        # each triangle's prototype is the same local triangle of a cell of its kind
        proto = at[flat.prototype]
        assert np.array_equal(proto % nt, np.arange(mesh.num_triangles) % nt)
        assert np.array_equal(mesh.cell_kind[flat.cell[proto]], mesh.cell_kind[flat.cell])
        areas, grads = meshing.triangle_geometry(mesh.vertices, flat.triangles)
        assert np.array_equal(flat.areas, mesh.proto_areas[flat.prototype])
        assert np.abs(flat.areas - areas).max() <= 1e-13 * np.abs(areas).max()
        gathered = mesh.proto_grads[flat.prototype]
        assert np.abs(gathered - grads).max() <= 1e-13 * np.abs(grads).max()

    @pytest.mark.parametrize("build, tol", [
        (lambda cell: cell, 0.0),
        (lambda cell: build_square_mesh(128), 0.0),
        (lambda cell: build_square_mesh(100), 1e-13),
        (lambda cell: meshing.truncated_template(cell, 2).mesh, 1e-13),
        (lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(seed=5), 2), 1e-13),
        (lambda cell: cellwise(build_truncated_mesh(cell, BernoulliCellwiseMap(seed=5), 2)), 0.0),
    ], ids=["cell", "square128", "square100", "template", "realization", "cellwise"])
    def test_prototypes_are_each_kinds_first_cell(self, cell_h01, build, tol):
        mesh = build(cell_h01)
        flat = flat_triangles(mesh)
        # the triangles of each kind's first cell, kinds in label order, in triangle order
        _, first = np.unique(mesh.cell_kind, return_index=True)
        expect = np.concatenate([np.flatnonzero(flat.cell == c) for c in first])
        assert np.array_equal(mesh.prototypes, flat.triangles[expect])
        # each triangle's prototype is the triangle of the same rank in its kind's first cell
        proto = expect[flat.prototype]
        kind = mesh.cell_kind[flat.cell]
        assert np.array_equal(mesh.cell_kind[flat.cell[proto]], kind)
        assert np.array_equal(flat.local[proto], flat.local)
        for c in range(len(mesh.cells)):
            assert np.array_equal(flat.local[flat.cell == c],
                                  np.arange(np.count_nonzero(flat.cell == c)))
        # the gathered geometry: the prototypes', within tol of every triangle's own
        areas, grads = meshing.triangle_geometry(mesh.vertices, flat.triangles)
        assert np.array_equal(flat.areas, mesh.proto_areas[flat.prototype])
        assert np.abs(flat.areas - areas).max() <= tol * np.abs(areas).max()
        gathered = mesh.proto_grads[flat.prototype]
        assert np.abs(gathered - grads).max() <= tol * np.abs(grads).max()

    def test_square_grid_has_a_prototype_per_block_shape(self):
        assert len(build_square_mesh(128).prototypes) == 2 * meshing.GRID_BLOCK**2
        mesh = build_square_mesh(100)  # blocks of 16, 16, ..., 4 squares a side
        assert len(np.unique(mesh.cell_kind)) == 4
        assert len(mesh.prototypes) == 2 * (16 * 16 + 16 * 4 + 4 * 16 + 4 * 4)


class TestRealizationContract:
    """A realization maps each kind's first cell and moves it to the other
    cells of the kind, which the ``DeformationMap`` contract allows: for
    every map class that can tile, each node lies within ULPS of the map
    applied to it, in each cell that carries it."""

    MAPS = {
        "identity": lambda: IdentityMap(),
        "bump": lambda: BumpMap(0.1),
        "bernoulli3": lambda: BernoulliCellwiseMap(seed=3),
        "bernoulli11": lambda: BernoulliCellwiseMap(seed=11),
    }
    BUILDS = {
        "truncated": (lambda cell, dmap: build_truncated_mesh(cell, dmap, 2, center=(1, -1)), 1.0),
        "truncated-no-membranes": (lambda cell, dmap: build_truncated_mesh(
            cell, dmap, 2, center=(1, -1), membranes=False), 1.0),
        "tiled-eps8": (lambda cell, dmap: tile_domain_mesh(cell, dmap, 1 / 8, SPEC), 1 / 8),
        "tiled-eps3": (lambda cell, dmap: tile_domain_mesh(cell, dmap, 1 / 3, SPEC), 1 / 3),
    }

    @pytest.mark.parametrize("build", sorted(BUILDS))
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_nodes_are_the_map_applied(self, cell_h01, name, build):
        dmap, (make, scale) = self.MAPS[name](), self.BUILDS[build]
        assert realize_ulps(make(cell_h01, dmap), cell_h01, dmap, scale) <= ULPS

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_map_moving_cell_boundaries_fails(self, cell_h01, build):
        with pytest.raises(StitchFailure, match=r"boundary node of cell \(-?\d+, -?\d+\)"):
            self.BUILDS[build][0](cell_h01, ScalingMap(2.0))


class TestSquareMesh:
    def test_counts_and_area(self):
        mesh = build_square_mesh(8)
        assert mesh.num_triangles == 128
        assert mesh.num_vertices == 81
        assert abs(flat_triangles(mesh).areas.sum() - 1.0) < 1e-14
        assert len(mesh.boundary_nodes) == 32
        assert quality_report(mesh) == []
        assert len(mesh.cells) == 1  # one block: GRID_BLOCK = 16 squares a side


class TestTriangleCentroids:
    """The three-term centroid is bitwise the mean over the triangle, for
    points and for nodal values."""

    @pytest.mark.parametrize("build", [
        lambda: build_truncated_mesh(build_cell_mesh(SPEC, 0.05), BernoulliCellwiseMap(seed=0), 8),
        lambda: build_square_mesh(128),
    ], ids=["cube_n8_h005", "grid_128"])
    def test_equals_mean(self, build):
        mesh = build()
        values = np.random.default_rng(0).standard_normal(mesh.num_vertices)
        tri = flat_triangles(mesh).triangles
        for v in (mesh.vertices, mesh.ref_vertices, values):
            assert np.array_equal(triangle_centroids(v, tri), v[tri].mean(axis=1))


class TestTilingMatchesLoop:
    """The vectorized tiling gives bitwise the mesh of a per-node loop."""

    def test_tiled_domain_with_cushion_cells(self, cell_h01):
        dmap = BernoulliCellwiseMap(seed=8)
        cells = [(kx, ky) for kx in range(8) for ky in range(8)]
        carriers = {(kx, ky) for kx, ky in cells if min(kx, ky, 7 - kx, 7 - ky) >= SPEC.beta}
        reference = looped_tiling(cell_h01, dmap, cells, [k in carriers for k in cells], 0.125)
        assert_tiling_matches_loop(tile_domain_mesh(cell_h01, dmap, 0.125, SPEC), reference)

    def test_truncated_cube_without_membranes(self, cell_h01):
        dmap = BernoulliCellwiseMap(seed=2)
        cells = [(kx, ky) for kx in range(-1, 3) for ky in range(-3, 1)]
        reference = looped_tiling(cell_h01, dmap, cells, [False] * len(cells), 1.0)
        mesh = build_truncated_mesh(cell_h01, dmap, 2, center=(1, -1), membranes=False)
        assert_tiling_matches_loop(mesh, reference)


NONCONFORMING = ("retargeted_vertex", "flipped_region", "doubled_triangles")
REPORT_MESHES = ("cell", "cell_h025", "tiled_identity", "tiled_bernoulli", "tiled_no_membranes",
                 "truncated_bernoulli", "square", *NONCONFORMING)


@pytest.fixture(scope="module")
def report_meshes(cell_h01):
    """The meshes the tests build, conforming and not."""
    cell, flat = cell_h01, flat_triangles(cell_h01)
    plus = np.flatnonzero(flat.region == PLUS)
    retargeted = flat.triangles.copy()
    retargeted[plus[-1], 0] = flat.triangles[plus[-1] - 2, 0]
    flipped = flat.region.copy()
    flipped[plus[len(plus) // 2]] = MINUS
    doubled = np.concatenate([flat.triangles, flat.triangles[:3]])
    return {
        "cell": cell,
        "cell_h025": build_cell_mesh(SPEC, 0.25),
        "tiled_identity": tile_domain_mesh(cell, IdentityMap(), 0.25, SPEC),
        "tiled_bernoulli": tile_domain_mesh(cell, BernoulliCellwiseMap(seed=42), 0.125, SPEC),
        "tiled_no_membranes": tile_domain_mesh(cell, IdentityMap(), 0.25, SPEC, membranes=False),
        "truncated_bernoulli": build_truncated_mesh(cell, BernoulliCellwiseMap(seed=7), 4),
        "square": build_square_mesh(8),
        "retargeted_vertex": rebuilt(cell, triangles=retargeted),
        "flipped_region": rebuilt(cell, tri_region=flipped),
        "doubled_triangles": rebuilt(
            cell, triangles=doubled, tri_region=np.concatenate([flat.region, flat.region[:3]]),
            tri_cell=np.zeros((len(doubled), 2), dtype=np.int64),
        ),
    }


class TestReportMatchesLoop:
    """``quality_report`` passes every mesh the builders make and flags
    exactly the nonconforming ones, with the loop's conformity issues."""

    @pytest.mark.parametrize("name", REPORT_MESHES)
    def test_conformity_matches_loop(self, report_meshes, name):
        mesh = report_meshes[name]
        conforming, issues = looped_conformity(mesh)
        report = quality_report(mesh)
        assert conforming == (not report) == (name not in NONCONFORMING)
        assert [i for i in report if i.startswith(("edge ", "dangling "))] == issues

    def test_faulty_meshes_cover_every_kind_of_issue(self, report_meshes):
        text = " ".join(" ".join(quality_report(report_meshes[n])) for n in NONCONFORMING)
        for kind in ("shared across regions", "dangling edge", "in 3 triangles"):
            assert kind in text


class TestStoredTopology:
    """The topology computed at construction equals a plain triangle scan."""

    def test_bernoulli_truncated_cube(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=4), 2, center=(1, -1))
        assert len(mesh.interface_edges) == 16 * len(cell_h01.interface_pairs)
        assert_topology_matches_scan(mesh, block_tri_cell(cell_h01, range(-1, 3), range(-3, 1)))

    def test_tiled_domain_with_cushion_cells(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, BernoulliCellwiseMap(seed=8), 0.125, SPEC)
        assert len(mesh.cells) == 64
        assert len(mesh.interface_edges) == 36 * len(cell_h01.interface_pairs)
        assert_topology_matches_scan(mesh, block_tri_cell(cell_h01, range(8), range(8)))

    def test_membranes_off(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, IdentityMap(), 0.25, SPEC, membranes=False)
        assert mesh.interface_edges.shape == (0, 4)
        assert_topology_matches_scan(mesh, block_tri_cell(cell_h01, range(4), range(4)))


class TestExportImport:
    def test_rebuild_is_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            cell = build_cell_mesh(SPEC, 0.1)
            mesh = tile_domain_mesh(cell, BernoulliCellwiseMap(seed=9), 0.125, SPEC)
            p = tmp_path / f"m{i}.txt"
            export_mesh(mesh, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("build, tri_cell", [
        (lambda cell: tile_domain_mesh(cell, BernoulliCellwiseMap(seed=9), 0.125, SPEC),
         lambda cell: block_tri_cell(cell, range(8), range(8))),
        (lambda cell: build_square_mesh(20), lambda cell: grid_tri_cell(20)),
    ], ids=["tiled", "square20"])
    def test_triangle_rows_name_their_cells(self, cell_h01, tmp_path, build, tri_cell):
        mesh = build(cell_h01)
        export_mesh(mesh, tmp_path / "mesh.txt")
        lines = (tmp_path / "mesh.txt").read_text().splitlines()
        start = lines.index(f"T {mesh.num_triangles}") + 1
        rows = np.array([line.split() for line in lines[start:start + mesh.num_triangles]],
                        dtype=np.int64)
        flat = flat_triangles(mesh)
        assert np.array_equal(rows[:, :3], flat.triangles)
        assert np.array_equal(rows[:, 3], flat.region)
        assert np.array_equal(rows[:, 4:], mesh.cells[flat.cell])
        assert np.array_equal(rows[:, 4:], tri_cell(cell_h01))


class TestReportFaultDetection:
    """``quality_report`` flags each fault of a mesh."""

    def test_flags_broken_pairing(self, cell_h01):
        vertices = cell_h01.vertices.copy()
        vertices[cell_h01.interface_pairs[0, 1]] += 1e-6
        mesh = rebuilt(cell_h01, vertices=vertices)
        assert any(i.startswith("interface pairing gap") for i in quality_report(mesh))
        assert pairing_gap(mesh) > 1e-7

    def test_flags_nonconforming_triangle(self, cell_h01):
        flat = flat_triangles(cell_h01)
        tris = flat.triangles.copy()
        # retarget one vertex of an interior PLUS triangle, leaving a hole
        idx = int(np.flatnonzero(flat.region == PLUS)[-1])
        tris[idx, 0] = flat.triangles[idx - 2, 0]
        mesh = rebuilt(cell_h01, triangles=tris)
        assert quality_report(mesh)
        assert not looped_conformity(mesh)[0] or flat_triangles(mesh).areas.min() <= 0.0

    def test_rejects_empty_mesh(self):
        empty = mesh_from_tri_cell(
            np.zeros((0, 2), dtype=np.int64),
            vertices=np.zeros((0, 2)),
            triangles=np.zeros((0, 3), dtype=np.int64),
            tri_region=np.zeros(0, dtype=np.int8),
            interface_pairs=np.zeros((0, 2), dtype=np.int64),
            boundary_nodes=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            quality_report(empty)


def domain_boundary_rule(mesh):
    """The boundary test tile_domain_mesh applied after tiling: physical
    vertices on the boundary of (0,1)^2 within 1e-12."""
    v = mesh.vertices
    on_bd = (
        (np.abs(v[:, 0]) < 1e-12)
        | (np.abs(v[:, 0] - 1.0) < 1e-12)
        | (np.abs(v[:, 1]) < 1e-12)
        | (np.abs(v[:, 1] - 1.0) < 1e-12)
    )
    return np.flatnonzero(on_bd).astype(np.int64)


def truncated_boundary_rule(mesh, n, center):
    """The boundary test build_truncated_mesh applied after tiling: reference
    vertices on the boundary of center + (-n,n)^2 within 1e-12."""
    cx, cy = center
    v = mesh.ref_vertices
    on_bd = (
        (np.abs(v[:, 0] - (cx - n)) < 1e-12)
        | (np.abs(v[:, 0] - (cx + n)) < 1e-12)
        | (np.abs(v[:, 1] - (cy - n)) < 1e-12)
        | (np.abs(v[:, 1] - (cy + n)) < 1e-12)
    )
    return np.flatnonzero(on_bd).astype(np.int64)


class TestTilersTagTheirBoundary:
    """The boundary the tiling tags is bitwise that of the per-mesher rules."""

    @pytest.mark.parametrize("name", ["tiled_identity", "tiled_bernoulli", "tiled_no_membranes"])
    def test_tiled_domain(self, report_meshes, name):
        mesh = report_meshes[name]
        assert np.array_equal(mesh.boundary_nodes, domain_boundary_rule(mesh))

    def test_truncated_cube(self, report_meshes):
        mesh = report_meshes["truncated_bernoulli"]
        assert np.array_equal(mesh.boundary_nodes, truncated_boundary_rule(mesh, 4, (0, 0)))

    def test_truncated_cube_off_center(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=5), 2, center=(1, -1))
        assert np.array_equal(mesh.boundary_nodes, truncated_boundary_rule(mesh, 2, (1, -1)))
        assert len(mesh.boundary_nodes) == 16 * (len(cell_h01.boundary_nodes) // 4)


class TestFirstCoincident:
    def test_groups_within_rounding(self):
        pts = np.array(
            [[0.5, 0.25], [0.1, 0.2], [0.5 + 1e-12, 0.25], [0.1, 0.2 - 1e-12], [0.3, 0.3]]
        )
        assert first_coincident(pts).tolist() == [0, 1, 0, 1, 4]

    def test_separates_beyond_rounding(self):
        pts = np.array([[0.5, 0.25], [0.5 + 1e-9, 0.25], [0.5, 0.25 - 1e-9], [0.5, 0.25]])
        assert first_coincident(pts).tolist() == [0, 1, 2, 0]


def edge_keys(triangles, nv):
    """Per-triangle edge ends a -> b (edge k of triangle t at 3t+k) and the
    undirected edge key min*nv+max."""
    a = triangles.reshape(-1).astype(np.int64)
    b = triangles[:, [1, 2, 0]].reshape(-1).astype(np.int64)
    return a, b, np.minimum(a, b) * nv + np.maximum(a, b)


def oracle_interface_edges(mesh):
    """Interface edges and their cells by a sort over the whole mesh: the
    boundary edges of the MINUS region (edges of exactly one MINUS triangle)
    whose ends are both MINUS interface nodes, oriented as their MINUS
    triangle traverses them, sorted."""
    flat, nv = flat_triangles(mesh), mesh.num_vertices
    minus_tri = np.flatnonzero(flat.region == MINUS)
    a, b, keys = edge_keys(flat.triangles[minus_tri], nv)
    _, inverse, count = np.unique(keys, return_inverse=True, return_counts=True)
    m2p = np.full(nv, -1, dtype=np.int64)
    m2p[mesh.interface_pairs[:, 1]] = mesh.interface_pairs[:, 0]
    on = np.flatnonzero((count[inverse] == 1) & (m2p[a] >= 0) & (m2p[b] >= 0))
    rows = np.column_stack([m2p[a[on]], m2p[b[on]], a[on], b[on]]).astype(np.int32)
    order = np.lexsort(rows.T[::-1])
    return rows[order], flat.cell[minus_tri[on // 3][order]].astype(np.int32)


def oracle_pattern(mesh, edges):
    """CSR ``indptr`` and ``indices`` of the node pairs that share a triangle
    or an interface edge, and of each node with itself, by a sort of the
    pairs."""
    nv = mesh.num_vertices
    t, e = flat_triangles(mesh).triangles.astype(np.int64), edges.astype(np.int64)  # keys past 32 bits
    links = np.concatenate([edge_keys(t, nv)[2], *(
        np.minimum(e[:, i], e[:, j]) * nv + np.maximum(e[:, i], e[:, j])
        for i in range(4) for j in range(i + 1, 4))])
    links = np.unique(links)
    lo, hi, diag = links // nv, links % nv, np.arange(nv)
    keys = np.unique(np.concatenate([lo * nv + hi, hi * nv + lo, diag * nv + diag]))
    indptr = np.searchsorted(keys, np.arange(nv + 1) * nv)
    return indptr.astype(np.int32), (keys % nv).astype(np.int32)


def entry_pairs(nodes):
    """The (row, column) node pairs of the entries of each element's matrix
    over ``nodes`` (..., k), row-major: (..., k * k, 2)."""
    k = nodes.shape[-1]
    return np.stack([np.repeat(nodes, k, axis=-1), np.tile(nodes, k)], axis=-1)


def assert_links_match_oracle(mesh, edges, edge_cells):
    """Each cell's links, read through its row of the cell table, are the
    node pairs of its own triangles' and interface edges' entries, one link
    per distinct pair, and each entry's link is its pair: checked against
    the cells' triangles in their order and the whole-mesh interface edges
    ``edges`` of the cells ``edge_cells``."""
    table, tri_cell = mesh.cell_nodes, flat_triangles(mesh).cell
    order = np.argsort(tri_cell, kind="stable")  # each cell's triangles in turn
    start = np.cumsum(np.bincount(tri_cell, minlength=len(table))) - np.bincount(tri_cell)
    assert len(mesh.cell_links) == len(table) and len(mesh.links) == len(np.unique(mesh.cell_links))
    got_edges, got_cells = [np.zeros((0, 4), dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for k, links in enumerate(mesh.links):
        pairs, w = links.pairs.astype(np.int64), table.shape[1]
        assert all(a.dtype == (np.int8 if name == "region" else np.int32)
                   for name, a in vars(links).items() if isinstance(a, np.ndarray))
        assert (np.diff(pairs[:, 0] * w + pairs[:, 1]) > 0).all()  # distinct, row-major
        used = np.concatenate([links.tri.ravel(), links.edge.ravel()])
        assert np.array_equal(np.unique(used), np.arange(len(pairs)))  # every link an entry's
        cells = np.flatnonzero(mesh.cell_links == k)
        rows = table[cells]
        tris = order[start[cells][:, None] + np.arange(len(links.tri))]
        assert (np.bincount(tri_cell, minlength=len(table))[cells] == len(links.tri)).all()
        assert np.array_equal(rows[:, pairs[links.tri]], entry_pairs(flat_triangles(mesh).triangles[tris]))
        ends = rows[:, links.edge_columns]  # (cells, edges, 4): each cell's edges
        assert np.array_equal(rows[:, pairs[links.edge]], entry_pairs(ends))
        got_edges.append(ends.reshape(-1, 4))
        # the interior and skeleton columns, the interior's fronts, K_IB and K_BB, the band
        first = table[cells[0]]
        skel = np.flatnonzero(mesh.cell_skeleton[cells[0]])
        inner = links.interior.nodes
        assert np.array_equal(links.outer, skel)
        assert np.array_equal(np.sort(np.concatenate([inner, skel])), np.flatnonzero(first >= 0))
        assert_fronts_match_oracle(links.interior, pairs[:, 0], pairs[:, 1])
        ni, nb = len(inner), len(skel)
        ip, op = np.full(w, -1), np.full(w, -1)
        ip[inner], op[skel] = np.arange(ni), np.arange(nb)
        r, c = pairs.T
        want = np.where((ip[r] >= 0) & (op[c] >= 0), ip[r] * nb + op[c], (ni + nb) * nb)
        want = np.where((op[r] >= 0) & (op[c] >= 0), ni * nb + op[r] * nb + op[c], want)
        assert np.array_equal(links.coupling, want)
        band = links.band
        assert np.array_equal(np.sort(band[band < len(pairs)]), np.arange(len(pairs)))
        valid = band < len(pairs)
        assert (valid[:, :-1] >= valid[:, 1:]).all()  # padded at the end
        assert ((np.diff(band, axis=1) == 1) | ~valid[:, 1:]).all()  # each row's links in turn
        head = pairs[band[:, 0], 0]
        assert np.array_equal(head, np.unique(pairs[:, 0]))
        assert ((band == len(pairs)) | (np.append(pairs[:, 0], -1)[band] == head[:, None])).all()
        got_cells.append(np.repeat(cells, len(links.edge_columns)).astype(np.int32))
    got_edges, got_cells = np.concatenate(got_edges), np.concatenate(got_cells)
    at = np.lexsort(got_edges.T[::-1])
    assert np.array_equal(got_edges[at], edges) and np.array_equal(got_cells[at], edge_cells)


def assert_fronts_match_oracle(fronts, rows, cols):
    """``fronts`` against a dense boolean elimination of its summands' graph
    in its node order: the fronts' pivots are runs that partition the
    positions; each front's updates are the later positions its pivots'
    columns of the filled matrix reach; each front sends its update matrix
    to the front of its first update, at the places of its updates there,
    and depends only on earlier batches; and each summand's slot is its
    (row, column) place in its row's front's row block, ``size`` for one
    below the diagonal in another front's columns.  ``rows`` and ``cols``
    list the summands by node, -1 for none."""
    nodes, size = fronts.nodes, fronts.size
    m = len(nodes)
    assert fronts.slots.dtype == (np.int32 if size < 2**31 else np.int64)
    pos = np.full(max(nodes.max(initial=0), rows.max(initial=0), cols.max(initial=0)) + 2, -1)
    pos[nodes] = np.arange(m)  # pos[-1] reads -1
    a, b = pos[rows], pos[cols]
    on = (a >= 0) & (b >= 0)
    fill = np.zeros((m, m), dtype=bool)
    fill[a[on], b[on]] = True
    fill |= fill.T
    for k in range(m):  # eliminating k joins its later neighbours
        later = k + 1 + np.flatnonzero(fill[k, k + 1:])
        fill[np.ix_(later, later)] = True
    batch_of, front_of = np.full(m, -1), np.full(m, -1)
    place = np.full((size, 2), -1)  # each data entry's (row, column) position
    for i, batch in enumerate(fronts.batches):
        (g, nj), ns = batch.rows.shape, batch.update.shape[1]
        assert (np.diff(batch.rows, axis=1) == 1).all() and (batch_of[batch.rows] < 0).all()
        batch_of[batch.rows], front_of[batch.rows] = i, np.arange(g)[:, None]
        assert batch.hi - batch.lo == g * nj * (nj + ns)
        columns = np.concatenate([batch.rows, batch.update], axis=1)
        place[batch.lo:batch.hi] = np.stack(np.broadcast_arrays(
            batch.rows[:, :, None], columns[:, None, :]), axis=-1).reshape(-1, 2)
        for J, update in zip(batch.rows, batch.update):
            want = np.flatnonzero(fill[J].any(axis=0))
            assert np.array_equal(update, want[want > J[-1]])
    assert (batch_of >= 0).all() and (place >= 0).all()
    for i, batch in enumerate(fronts.batches):
        for update, parent, at, relative in zip(batch.update, batch.parent, batch.at, batch.relative):
            assert (batch_of[update] > i).all()
            if len(update):
                up = fronts.batches[parent]
                assert (parent, at) == (batch_of[update[0]], front_of[update[0]])
                assert np.array_equal(np.concatenate([up.rows[at], up.update[at]])[relative], update)
            else:
                assert parent == -1
    kept = on.copy()
    kept[on] = (front_of[a[on]] == front_of[b[on]]) & (batch_of[a[on]] == batch_of[b[on]]) | (a[on] < b[on])
    assert (fronts.slots[~kept] == size).all()
    assert np.array_equal(place[fronts.slots[kept]], np.column_stack([a[kept], b[kept]]))


def assert_topology_matches_oracle(mesh):
    """The interface edges, the cells' links and the fronts of the skeleton
    the per-kind tiling builds equal the whole-mesh oracle's, dtype
    included."""
    edges, edge_cells = oracle_interface_edges(mesh)
    for name, a in (("interface_edges", edges), ("edge_cell_index", edge_cells)):
        got = getattr(mesh, name)
        assert got.dtype == a.dtype and np.array_equal(got, a), name
    assert_links_match_oracle(mesh, edges, edge_cells)
    # the skeleton's summands: each cell's Schur block over its skeleton
    # nodes in table column order, padded to the widest, row-major
    table, on = mesh.cell_nodes, mesh.cell_skeleton
    width = on.sum(axis=1).max(initial=0)
    at = np.full((len(table), width), -1)
    for c in range(len(table)):
        skel = table[c][on[c]]
        at[c, :len(skel)] = skel
    assert mesh.schur.nodes.dtype == np.int32  # the stored order, checked on its own by TestSkeletonOrder
    assert_fronts_match_oracle(mesh.schur, np.repeat(at, width, axis=1).ravel(), np.tile(at, width).ravel())


def folded_cell(h):
    """The unit cell with opposite boundary nodes identified, as
    ``periodic_cell_solve`` folds it: one cell of every node, node 0 its one
    boundary node."""
    from membrane_homog.corrector import periodic_representatives

    mesh = build_cell_mesh(SPEC, h)
    reps, inv = np.unique(periodic_representatives(mesh), return_inverse=True)
    flat = flat_triangles(mesh)
    return MembraneMesh(
        vertices=mesh.vertices[reps], triangles=inv[flat.triangles], tri_region=flat.region,
        interface_pairs=inv[mesh.interface_pairs], boundary_nodes=np.zeros(1, dtype=np.int64),
        cells=mesh.cells, tri_cell_index=flat.cell, cell_nodes=np.arange(len(reps))[None])


class TestTopologyMatchesOracle:
    """The topology tiled from each kind's first cell is the whole-mesh
    sort-and-search's, array for array, and the cells each builder states
    are those the sorts of ``cell_tables`` derive."""

    MESHES = {
        "cell_h01": lambda cell: cell,
        "cell_h005": lambda cell: build_cell_mesh(SPEC, 0.05),
        "tiled_quarter": lambda cell: tile_domain_mesh(cell, BernoulliCellwiseMap(seed=3), 0.25, SPEC),
        "tiled_eighth": lambda cell: tile_domain_mesh(cell, BernoulliCellwiseMap(seed=8), 0.125, SPEC),
        "cube": lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(seed=4), 2),
        "cube_no_membranes": lambda cell: build_truncated_mesh(
            cell, BernoulliCellwiseMap(seed=4), 2, membranes=False),
        "square20": lambda cell: build_square_mesh(20),
        "square256": lambda cell: build_square_mesh(256),  # 66,049 nodes: keys past uint32
        "folded_cell": lambda cell: folded_cell(0.1),
        "own_kinds": lambda cell: rebuilt(tile_domain_mesh(cell, IdentityMap(), 0.25, SPEC)),
        "stray_node": lambda cell: rebuilt(cell, vertices=np.vstack([cell.vertices, [[2.0, 2.0]]])),
    }
    TILINGS = {"tiled_quarter", "tiled_eighth", "cube", "cube_no_membranes"}
    # each mesh's triangle cells, from a source other than the mesh; the others have one cell
    TRI_CELLS = {
        "tiled_quarter": lambda cell: block_tri_cell(cell, range(4), range(4)),
        "tiled_eighth": lambda cell: block_tri_cell(cell, range(8), range(8)),
        "cube": lambda cell: block_tri_cell(cell, range(-2, 2), range(-2, 2)),
        "cube_no_membranes": lambda cell: block_tri_cell(cell, range(-2, 2), range(-2, 2)),
        "square20": lambda cell: grid_tri_cell(20),
        "square256": lambda cell: grid_tri_cell(256),
        "own_kinds": lambda cell: block_tri_cell(cell, range(4), range(4)),
    }

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_arrays_equal(self, cell_h01, name):
        mesh = self.MESHES[name](cell_h01)
        assert_topology_matches_oracle(mesh)
        tri_cell = self.TRI_CELLS[name](cell_h01) if name in self.TRI_CELLS else (
            np.zeros((mesh.num_triangles, 2), dtype=np.int64))
        assert_cells_match_oracle(mesh, tri_cell, tiled=name in self.TILINGS)

    @pytest.mark.parametrize("m", [2, 15, 16, 17, 20, 33, 128, 255])
    def test_square_grid_cells_equal(self, m):
        """Each block's table is its rectangle of grid nodes, short blocks
        packed first."""
        assert_cells_match_oracle(build_square_mesh(m), grid_tri_cell(m))

    def test_triangle_outside_cells_raises(self, cell_h01):
        for index in (-1, 1):
            with pytest.raises(ValueError, match="outside cells"):
                rebuilt(cell_h01, tri_cell_index=np.full(cell_h01.num_triangles, index))

    def test_cell_without_triangles_raises(self, cell_h01):
        with pytest.raises(ValueError, match="no triangle"):
            rebuilt(cell_h01, cells=np.array([[0, 0], [1, 0]]),
                    cell_nodes=np.vstack([cell_h01.cell_nodes, np.full_like(cell_h01.cell_nodes, -1)]))

    def test_own_kinds_mesh_has_a_kind_per_cell(self, cell_h01):
        mesh = self.MESHES["own_kinds"](cell_h01)
        assert len(np.unique(mesh.cell_kind)) == len(mesh.cells) == 16

    def test_kinds_the_topology_breaks_raise(self, cell_h01):
        """Membrane and cushion cells named one kind: the cushion cells'
        triangles do not take the membrane cell's MINUS nodes."""
        template = meshing._template(cell_h01, (0, 0), 4, SPEC.beta, 0.25).mesh
        rebuilt(template, cell_nodes=template.cell_nodes, cell_kind=template.cell_kind)  # valid
        with pytest.raises(ValueError):
            rebuilt(template, cell_nodes=template.cell_nodes,
                    cell_kind=np.zeros(len(template.cells), dtype=np.int64))

    def test_kinds_of_other_links_raise(self, cell_h01):
        """A later set of kinds may refine the topology classes, not merge
        them: one kind of membrane and cushion cells raises."""
        mesh = tile_domain_mesh(cell_h01, BernoulliCellwiseMap(seed=3), 0.25, SPEC)
        assert len(mesh.links) == 2 and len(cellwise(mesh).links) == 2
        with pytest.raises(ValueError, match="other links"):
            mesh.with_kinds(np.zeros(len(mesh.cells), dtype=np.int64))

    def test_other_triangle_counts_raise(self):
        """Two cells named one kind, the second with two triangles more
        after a translate of the first's two: the corners of those agree,
        the counts do not."""
        vertices = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                             [4, 0], [5, 0], [5, 1], [4, 1], [6, 0], [6, 1]], dtype=float)
        args = dict(
            vertices=vertices,
            triangles=np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7], [5, 8, 9], [5, 9, 6]]),
            tri_region=np.full(6, PLUS, dtype=np.int8),
            interface_pairs=np.zeros((0, 2), dtype=np.int64),
            boundary_nodes=np.array([0, 4]))
        tri_cell = np.array([[0, 0]] * 2 + [[1, 0]] * 4)
        mesh_from_tri_cell(tri_cell, **args)  # valid: each cell its own kind
        with pytest.raises(ValueError, match="other triangles"):
            mesh_from_tri_cell(tri_cell, **args, cell_kind=np.zeros(2, dtype=np.int64))

    def test_corners_out_of_turn_raise(self, cell_h01):
        """One cell of a kind lists its triangles' corners in another turn:
        the same nodes, regions and partners, but not its first cell's
        triangles."""
        template = meshing._template(cell_h01, (0, 0), 2, math.inf, 0.5).mesh
        flat = flat_triangles(template)
        triangles, last = flat.triangles.copy(), flat.cell == len(template.cells) - 1
        triangles[last] = triangles[last][:, [1, 2, 0]]
        with pytest.raises(ValueError):
            rebuilt(template, triangles=triangles, cell_nodes=template.cell_nodes,
                    cell_kind=template.cell_kind)
