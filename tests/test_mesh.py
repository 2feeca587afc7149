import numpy as np
import pytest

import membrane_homog.meshing as meshing
from membrane_homog.errors import MeshQualityFailure, StitchFailure
from membrane_homog.fem import BilinearFormSpec, assemble
from membrane_homog.geometry import BernoulliCellwiseMap, IdentityMap, InterfaceSpec
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
    mesh_report,
    tile_domain_mesh,
    triangle_centroids,
)

SPEC = InterfaceSpec()


def scanned_topology(mesh):
    """Reference topology by a plain scan over the triangles: sorted distinct
    cells, each triangle's cell row, and the interface edges (boundary edges
    of the MINUS region between MINUS interface nodes, oriented by their MINUS
    triangle, sorted) with their cells."""
    cells = sorted(set(map(tuple, mesh.tri_cell.tolist())))
    row = {k: i for i, k in enumerate(cells)}
    tri_index = [row[tuple(k)] for k in mesh.tri_cell.tolist()]
    m2p = {m: p for p, m in mesh.interface_pairs.tolist()}
    count, oriented = {}, {}
    for tri, reg, k in zip(mesh.triangles.tolist(), mesh.tri_region, mesh.tri_cell.tolist()):
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
    boundary = set(cell.boundary_nodes.tolist())
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
        for tri, reg in zip(cell.triangles.tolist(), cell.tri_region.tolist()):
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


def assert_tiling_matches_loop(mesh, reference):
    for name, want in reference.items():
        got = getattr(mesh, name)
        assert got.shape == want.shape and np.array_equal(got, want), name


def assert_topology_matches_scan(mesh):
    cells, tri_index, edges, edge_cells = scanned_topology(mesh)
    assert np.array_equal(mesh.cells, cells)
    assert np.array_equal(mesh.tri_cell_index, tri_index)
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
    edges = {}
    for tri, reg in zip(mesh.triangles, mesh.tri_region):
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


def remeshed(mesh, triangles=None, tri_region=None, tri_cell=None):
    """The mesh with some of its triangle arrays replaced."""
    return MembraneMesh(
        vertices=mesh.vertices,
        triangles=mesh.triangles if triangles is None else triangles,
        tri_region=mesh.tri_region if tri_region is None else tri_region,
        tri_cell=mesh.tri_cell if tri_cell is None else tri_cell,
        interface_pairs=mesh.interface_pairs,
        boundary_nodes=mesh.boundary_nodes,
    )


@pytest.fixture(scope="module")
def cell_h01():
    return build_cell_mesh(SPEC, 0.1)


class TestCellMesh:
    @pytest.mark.parametrize("h", [0.25, 0.1, 0.05, 0.0125])
    def test_quality_and_conformity(self, h):
        mesh = build_cell_mesh(SPEC, h)
        rep = mesh_report(mesh)
        assert rep.ok, rep.issues
        assert rep.min_angle_deg >= 20.0
        assert rep.pairing_residual == 0.0

    @pytest.mark.parametrize("h", [0.25, 0.1, 0.05])
    def test_total_area_is_one(self, h):
        mesh = build_cell_mesh(SPEC, h)
        assert abs(mesh.areas.sum() - 1.0) < 1e-12

    def test_minus_area_approximates_disk(self):
        mesh = build_cell_mesh(SPEC, 0.05)
        a_minus = mesh.areas[mesh.tri_region == MINUS].sum()
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

    def test_coarse_h_clamped(self):
        a = build_cell_mesh(SPEC, 0.7)
        b = build_cell_mesh(SPEC, 0.25)
        assert np.array_equal(a.vertices, b.vertices)

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

    def test_bad_grading_raises_quality_failure(self, monkeypatch):
        monkeypatch.setattr(meshing, "RING_GRADING", 0.2)
        build_cell_mesh.cache_clear()
        with pytest.raises(MeshQualityFailure):
            build_cell_mesh(SPEC, 0.05)


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
        rep = mesh_report(mesh)
        assert rep.ok, rep.issues
        assert abs(mesh.areas.sum() - 1.0) < 1e-12
        cells = set(map(tuple, mesh.tri_cell[mesh.tri_region == MINUS].tolist()))
        assert cells == {(1, 1), (1, 2), (2, 1), (2, 2)}
        n_if = len(cell_h01.interface_pairs)
        assert len(mesh.interface_pairs) == 4 * n_if

    def test_half_eps_has_no_membranes(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, IdentityMap(), 0.5, SPEC)
        assert len(mesh.interface_pairs) == 0
        assert (mesh.tri_region == PLUS).all()
        assert abs(mesh.areas.sum() - 1.0) < 1e-12

    def test_deformed_tiling_conforms(self, cell_h01):
        dmap = BernoulliCellwiseMap(seed=42)
        mesh = tile_domain_mesh(cell_h01, dmap, 0.125, SPEC)
        rep = mesh_report(mesh)
        assert rep.ok, rep.issues
        assert abs(mesh.areas.sum() - 1.0) < 1e-10

    def test_membranes_off(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, IdentityMap(), 0.25, SPEC, membranes=False)
        assert len(mesh.interface_pairs) == 0
        assert (mesh.tri_region == PLUS).all()

    def test_seed_changes_only_flipped_cells(self, cell_h01):
        a = tile_domain_mesh(cell_h01, BernoulliCellwiseMap(seed=1), 0.125, SPEC)
        b = tile_domain_mesh(cell_h01, BernoulliCellwiseMap(seed=2), 0.125, SPEC)
        bits_a = BernoulliCellwiseMap(seed=1).field
        bits_b = BernoulliCellwiseMap(seed=2).field
        kx, ky = a.tri_cell.T
        same = bits_a.bits(kx, ky) == bits_b.bits(kx, ky)
        # triangle connectivity is shared; vertex positions agree exactly on
        # cells whose Bernoulli bits agree
        assert np.array_equal(a.triangles, b.triangles)
        for tri_a, tri_b, keep in zip(a.triangles, b.triangles, same):
            if keep:
                assert np.array_equal(a.vertices[tri_a], b.vertices[tri_b])

    def test_rejects_non_integer_reciprocal_eps(self, cell_h01):
        with pytest.raises(ValueError):
            tile_domain_mesh(cell_h01, IdentityMap(), 0.3, SPEC)

    def test_stitch_failure_on_perturbed_template(self, cell_h01):
        vertices = cell_h01.vertices.copy()
        left = [v for v in cell_h01.boundary_nodes if vertices[v, 0] == 0.0]
        target = next(v for v in left if 0.2 < vertices[v, 1] < 0.8)
        vertices[target, 1] += 5e-12  # below the key grid, above tolerance
        bad = MembraneMesh(
            vertices=vertices,
            triangles=cell_h01.triangles,
            tri_region=cell_h01.tri_region,
            tri_cell=cell_h01.tri_cell,
            interface_pairs=cell_h01.interface_pairs,
            boundary_nodes=cell_h01.boundary_nodes,
        )
        with pytest.raises(StitchFailure):
            tile_domain_mesh(bad, IdentityMap(), 0.25, SPEC)


class TestTruncatedMesh:
    def test_single_cell_halfwidth(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, IdentityMap(), 1)
        cells = set(map(tuple, mesh.tri_cell.tolist()))
        assert cells == {(-1, -1), (-1, 0), (0, -1), (0, 0)}
        assert len(mesh.interface_pairs) == 4 * len(cell_h01.interface_pairs)
        assert abs(mesh.areas.sum() - 4.0) < 1e-12

    def test_deformed_area_preserved(self, cell_h01):
        """Each cell maps onto itself, so mesh area equals the cube area."""
        mesh = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=7), 4)
        assert abs(mesh.areas.sum() - 64.0) < 1e-10
        assert mesh_report(mesh).ok

    def test_all_cells_carry_membranes(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, IdentityMap(), 2)
        cells = set(map(tuple, mesh.tri_cell[mesh.tri_region == MINUS].tolist()))
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
        assert b.triangles is a.triangles and b.slots is a.slots
        assert b.ref_vertices is a.ref_vertices
        assert b.cell_nodes is a.cell_nodes and b.skeleton is a.skeleton
        assert b.cell_skeleton is a.cell_skeleton and b.free_nodes is a.free_nodes
        assert b.schur is a.schur and b.cellwise().schur is a.schur
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
        nt = cell_h01.num_triangles
        _, first = np.unique(mesh.cell_kind, return_index=True)
        assert np.array_equal(mesh.prototypes, (first[:, None] * nt + np.arange(nt)).ravel())
        # each triangle's prototype is the same local triangle of a cell of its kind
        proto = mesh.prototypes[mesh.tri_prototype]
        assert np.array_equal(proto % nt, np.arange(mesh.num_triangles) % nt)
        assert np.array_equal(mesh.cell_kind[mesh.tri_cell_index[proto]],
                              mesh.cell_kind[mesh.tri_cell_index])
        areas, grads = meshing.triangle_geometry(mesh.vertices, mesh.triangles)
        assert np.array_equal(mesh.areas, mesh.proto_areas[mesh.tri_prototype])
        assert np.abs(mesh.areas - areas).max() <= 1e-13 * np.abs(areas).max()
        assert np.abs(mesh.grads - grads).max() <= 1e-13 * np.abs(grads).max()
        cent = triangle_centroids(mesh.vertices, mesh.triangles)
        assert np.abs(mesh.centroids - cent).max() <= 1e-14

    @pytest.mark.parametrize("build, tol", [
        (lambda cell: cell, 0.0),
        (lambda cell: build_square_mesh(128), 0.0),
        (lambda cell: build_square_mesh(100), 1e-13),
        (lambda cell: meshing.truncated_template(cell, 2).mesh, 1e-13),
        (lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(seed=5), 2), 1e-13),
        (lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(seed=5), 2).cellwise(), 0.0),
    ], ids=["cell", "square128", "square100", "template", "realization", "cellwise"])
    def test_prototypes_are_each_kinds_first_cell(self, cell_h01, build, tol):
        mesh = build(cell_h01)
        # the triangles of each kind's first cell, kinds in label order, in triangle order
        _, first = np.unique(mesh.cell_kind, return_index=True)
        expect = np.concatenate([np.flatnonzero(mesh.tri_cell_index == c) for c in first])
        assert np.array_equal(mesh.prototypes, expect)
        # each triangle's prototype is the triangle of the same rank in its kind's first cell
        proto = mesh.prototypes[mesh.tri_prototype]
        kind = mesh.cell_kind[mesh.tri_cell_index]
        assert np.array_equal(mesh.cell_kind[mesh.tri_cell_index[proto]], kind)
        assert np.array_equal(mesh.tri_local[proto], mesh.tri_local)
        for c in range(len(mesh.cells)):
            assert np.array_equal(mesh.tri_local[mesh.tri_cell_index == c],
                                  np.arange(np.count_nonzero(mesh.tri_cell_index == c)))
        # the gathered geometry: the prototypes', within tol of every triangle's own
        areas, grads = meshing.triangle_geometry(mesh.vertices, mesh.triangles)
        assert np.array_equal(mesh.areas, mesh.proto_areas[mesh.tri_prototype])
        assert np.array_equal(mesh.grads, mesh.proto_grads[mesh.tri_prototype])
        assert np.abs(mesh.areas - areas).max() <= tol * np.abs(areas).max()
        assert np.abs(mesh.grads - grads).max() <= tol * np.abs(grads).max()

    def test_square_grid_has_a_prototype_per_block_shape(self):
        assert len(build_square_mesh(128).prototypes) == 2 * meshing.GRID_BLOCK**2
        mesh = build_square_mesh(100)  # blocks of 16, 16, ..., 4 squares a side
        assert len(np.unique(mesh.cell_kind)) == 4
        assert len(mesh.prototypes) == 2 * (16 * 16 + 16 * 4 + 4 * 16 + 4 * 4)

    def test_bumped_disagreeing_with_apply_fails(self, cell_h01):
        """A map that deforms the Bernoulli cells but names every cell
        unbumped puts deformed and undeformed cells in one kind."""

        class Mislabelled(BernoulliCellwiseMap):
            def bumped(self, k):
                return np.zeros(len(k), dtype=bool)

            def apply(self, y):
                return BernoulliCellwiseMap(self.seed).apply(y)

        dmap = Mislabelled(seed=5)
        with pytest.raises(StitchFailure, match="no translate"):
            build_truncated_mesh(cell_h01, dmap, 2)
        with pytest.raises(StitchFailure, match="no translate"):
            tile_domain_mesh(cell_h01, dmap, 0.125, SPEC)


class TestSquareMesh:
    def test_counts_and_area(self):
        mesh = build_square_mesh(8)
        assert mesh.num_triangles == 128
        assert mesh.num_vertices == 81
        assert abs(mesh.areas.sum() - 1.0) < 1e-14
        assert len(mesh.boundary_nodes) == 32
        assert mesh_report(mesh).ok
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
        for v in (mesh.vertices, mesh.ref_vertices, values):
            assert np.array_equal(triangle_centroids(v, mesh.triangles),
                                  v[mesh.triangles].mean(axis=1))


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
    cell = cell_h01
    plus = np.flatnonzero(cell.tri_region == PLUS)
    retargeted = cell.triangles.copy()
    retargeted[plus[-1], 0] = cell.triangles[plus[-1] - 2, 0]
    flipped = cell.tri_region.copy()
    flipped[plus[len(plus) // 2]] = MINUS
    doubled = np.concatenate([cell.triangles, cell.triangles[:3]])
    return {
        "cell": cell,
        "cell_h025": build_cell_mesh(SPEC, 0.25),
        "tiled_identity": tile_domain_mesh(cell, IdentityMap(), 0.25, SPEC),
        "tiled_bernoulli": tile_domain_mesh(cell, BernoulliCellwiseMap(seed=42), 0.125, SPEC),
        "tiled_no_membranes": tile_domain_mesh(cell, IdentityMap(), 0.25, SPEC, membranes=False),
        "truncated_bernoulli": build_truncated_mesh(cell, BernoulliCellwiseMap(seed=7), 4),
        "square": build_square_mesh(8),
        "retargeted_vertex": remeshed(cell, triangles=retargeted),
        "flipped_region": remeshed(cell, tri_region=flipped),
        "doubled_triangles": remeshed(
            cell, triangles=doubled, tri_region=np.concatenate([cell.tri_region, cell.tri_region[:3]]),
            tri_cell=np.concatenate([cell.tri_cell, cell.tri_cell[:3]]),
        ),
    }


class TestReportMatchesLoop:
    """mesh_report's vectorized conformity check against the loop it replaced."""

    @pytest.mark.parametrize("name", REPORT_MESHES)
    def test_conformity_matches_loop(self, report_meshes, name):
        mesh = report_meshes[name]
        conforming, issues = looped_conformity(mesh)
        rep = mesh_report(mesh)
        assert rep.conforming == conforming == (name not in NONCONFORMING)
        assert [i for i in rep.issues if i.startswith(("edge ", "dangling "))] == issues

    def test_faulty_meshes_cover_every_kind_of_issue(self, report_meshes):
        text = " ".join(" ".join(mesh_report(report_meshes[n]).issues) for n in NONCONFORMING)
        for kind in ("shared across regions", "dangling edge", "in 3 triangles"):
            assert kind in text


class TestStoredTopology:
    """The topology computed at construction equals a plain triangle scan."""

    def test_bernoulli_truncated_cube(self, cell_h01):
        mesh = build_truncated_mesh(cell_h01, BernoulliCellwiseMap(seed=4), 2, center=(1, -1))
        assert len(mesh.interface_edges) == 16 * len(cell_h01.interface_pairs)
        assert_topology_matches_scan(mesh)

    def test_tiled_domain_with_cushion_cells(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, BernoulliCellwiseMap(seed=8), 0.125, SPEC)
        assert len(mesh.cells) == 64
        assert len(mesh.interface_edges) == 36 * len(cell_h01.interface_pairs)
        assert_topology_matches_scan(mesh)

    def test_membranes_off(self, cell_h01):
        mesh = tile_domain_mesh(cell_h01, IdentityMap(), 0.25, SPEC, membranes=False)
        assert mesh.interface_edges.shape == (0, 4)
        assert_topology_matches_scan(mesh)

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


class TestReportFaultDetection:
    def test_flags_broken_pairing(self, cell_h01):
        vertices = cell_h01.vertices.copy()
        vertices[cell_h01.interface_pairs[0, 1]] += 1e-6
        mesh = MembraneMesh(
            vertices=vertices,
            triangles=cell_h01.triangles,
            tri_region=cell_h01.tri_region,
            tri_cell=cell_h01.tri_cell,
            interface_pairs=cell_h01.interface_pairs,
            boundary_nodes=cell_h01.boundary_nodes,
        )
        rep = mesh_report(mesh)
        assert not rep.ok
        assert rep.pairing_residual > 1e-7

    def test_flags_nonconforming_triangle(self, cell_h01):
        tris = cell_h01.triangles.copy()
        # retarget one vertex of an interior PLUS triangle, leaving a hole
        idx = int(np.flatnonzero(cell_h01.tri_region == PLUS)[-1])
        tris[idx, 0] = cell_h01.triangles[idx - 2, 0]
        mesh = MembraneMesh(
            vertices=cell_h01.vertices,
            triangles=tris,
            tri_region=cell_h01.tri_region,
            tri_cell=cell_h01.tri_cell,
            interface_pairs=cell_h01.interface_pairs,
            boundary_nodes=cell_h01.boundary_nodes,
        )
        rep = mesh_report(mesh)
        assert not rep.ok
        assert not rep.conforming or not rep.positive_areas

    def test_rejects_empty_mesh(self):
        empty = MembraneMesh(
            vertices=np.zeros((0, 2)),
            triangles=np.zeros((0, 3), dtype=np.int64),
            tri_region=np.zeros(0, dtype=np.int8),
            tri_cell=np.zeros((0, 2), dtype=np.int64),
            interface_pairs=np.zeros((0, 2), dtype=np.int64),
            boundary_nodes=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            mesh_report(empty)


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
