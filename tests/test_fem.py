from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import membrane_homog.corrector as corrector
import membrane_homog.fem as fem
import membrane_homog.meshing as meshing
from membrane_homog.corrector import periodic_cell_solve, periodic_representatives
from membrane_homog.errors import NonEllipticField, SolverDivergence
from membrane_homog.fem import (
    CONDUCTIVITY_PRESETS,
    RTOL,
    BilinearFormSpec,
    aniso_field,
    assemble,
    flux_pairing,
    gradient_load,
    identity_field,
    norms,
    solve,
    sym2_eigenvalues,
    volume_load,
)
from membrane_homog.geometry import BernoulliCellwiseMap, BumpMap, IdentityMap, InterfaceSpec
from membrane_homog.homogenize import constant_field, hetero_form
from membrane_homog.meshing import (
    MembraneMesh,
    build_cell_mesh,
    build_square_mesh,
    build_truncated_mesh,
    tile_domain_mesh,
    triangle_centroids,
    triangle_geometry,
)
from helpers import (cellwise, factored, flat_gradient, flat_runs, flat_triangles, form_tensor,
                     fronts_matrix, skeleton, skeleton_fills)
from test_mesh import (INDEX_ARRAYS, folded_cell, mesh_from_tri_cell, oracle_interface_edges,
                       oracle_pattern)

SPEC = InterfaceSpec()


def single_triangle():
    return mesh_from_tri_cell(
        np.zeros((1, 2), dtype=np.int64),
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int64),
        tri_region=np.array([1], dtype=np.int8),
        interface_pairs=np.zeros((0, 2), dtype=np.int64),
        boundary_nodes=np.array([0, 1, 2], dtype=np.int64),
    )


def membrane_strip(length=1.0):
    """Two triangles with a duplicated-node interface edge of given length."""
    L = length
    return mesh_from_tri_cell(
        np.zeros((2, 2), dtype=np.int64),
        vertices=np.array(
            [[0.0, 0.0], [L, 0.0], [0.5 * L, 0.5 * L],
             [0.0, 0.0], [L, 0.0], [0.5 * L, -0.5 * L]]
        ),
        triangles=np.array([[0, 1, 2], [3, 5, 4]], dtype=np.int64),
        tri_region=np.array([1, -1], dtype=np.int8),
        interface_pairs=np.array([[0, 3], [1, 4]], dtype=np.int64),
        boundary_nodes=np.array([2, 5], dtype=np.int64),
    )


def scatter(mesh, tri_mats=0.0, edge_mats=0.0):
    """The matrix of the element matrices over the triangles (nt, 3, 3) and
    the interface edges (ne, 4, 4), summed entry by entry from their node
    pairs (``sp.coo_matrix``); a scalar is broadcast to every element."""
    nt, ne, n = mesh.num_triangles, len(mesh.interface_edges), mesh.num_vertices
    rows, cols, vals = [], [], []
    for dofs, mats in ((flat_triangles(mesh).triangles, np.broadcast_to(tri_mats, (nt, 3, 3))),
                       (mesh.interface_edges, np.broadcast_to(edge_mats, (ne, 4, 4)))):
        k = dofs.shape[1]
        rows.append(np.repeat(dofs, k, axis=1).ravel())
        cols.append(np.tile(dofs, (1, k)).ravel())
        vals.append(mats.ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def assemble_stiffness(mesh, tensor):
    flat = flat_triangles(mesh)
    return scatter(mesh, fem.stiffness_elements(mesh.proto_grads[flat.prototype], flat.areas, tensor))


def assemble_mass(mesh):
    return scatter(mesh, flat_triangles(mesh).areas[:, None, None] * fem._MASS_BASE)


def assemble_jump(mesh):
    return scatter(mesh, edge_mats=fem.jump_element_matrices(mesh.vertices, mesh.interface_edges))


@pytest.fixture(scope="module")
def cell_h01():
    return build_cell_mesh(SPEC, 0.1)


class TestAssembly:
    def test_unit_right_triangle_stiffness(self):
        mesh = single_triangle()
        K = assemble_stiffness(mesh, identity_field(np.zeros((1, 2)))).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.abs(K - expected).max() < 1e-14

    def test_mass_matrix_row_sums(self):
        mesh = single_triangle()
        M = assemble_mass(mesh).toarray()
        assert abs(M.sum() - 0.5) < 1e-14
        assert np.abs(M - M.T).max() == 0.0

    @pytest.mark.parametrize("length", [1.0, 0.3])
    def test_constant_jump_energy(self, length):
        mesh = membrane_strip(length)
        J = assemble_jump(mesh)
        u = np.zeros(mesh.num_vertices)
        u[[0, 1, 2]] = 1.0  # u+ = 1, u- = 0
        assert abs(5.0 * (u @ (J @ u)) - 5.0 * length) < 1e-14

    def test_zero_direction_gives_zero_load(self, cell_h01):
        tensor = identity_field(np.zeros((cell_h01.num_triangles, 2)))
        b = gradient_load(cell_h01, tensor, np.zeros(2))
        assert np.abs(b).max() == 0.0

    def test_matrix_symmetric(self, cell_h01):
        spec = BilinearFormSpec(jump_weight=4.0, mass_weight=1e-3)
        K = assemble(cell_h01, spec).matrix
        assert np.abs(K - K.T).max() <= 1e-12

    def test_gradient_load_against_quadrature(self, cell_h01):
        # for v with zero boundary trace, b . v = -int A p . grad(v)
        spec = BilinearFormSpec()
        tensor = form_tensor(spec, cell_h01)
        p = np.array([0.7, -0.2])
        b = gradient_load(cell_h01, tensor, p)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(cell_h01.num_vertices)
        g = flat_gradient(cell_h01, v)
        direct = -np.einsum("t,tij,j,ti->", flat_triangles(cell_h01).areas, tensor, p, g)
        assert abs(b @ v - direct) < 1e-12

    def test_rejects_nonelliptic_field(self, cell_h01):
        def bad(points):
            out = identity_field(points)
            out[:, 0, 0] = -1.0
            return out

        with pytest.raises(NonEllipticField):
            assemble(cell_h01, BilinearFormSpec(conductivity=bad))

    def test_rejects_nonsymmetric_field(self, cell_h01):
        def skew(points):
            out = identity_field(points)
            out[:, 0, 1] = 0.1
            return out

        with pytest.raises(NonEllipticField):
            assemble(cell_h01, BilinearFormSpec(conductivity=skew))

    def test_rejects_off_diagonal_past_upper_bound(self, cell_h01):
        # diagonal 1.25 inside [1, 1.5]; off-diagonal 0.3 gives eigenvalues 0.95, 1.55
        def coupled(points):
            out = 1.25 * identity_field(points)
            out[:, 0, 1] = out[:, 1, 0] = 0.3
            return out

        with pytest.raises(NonEllipticField, match="0.95, 1.55"):
            assemble(cell_h01, BilinearFormSpec(conductivity=coupled))


def element_reference(mesh, spec):
    """The form's matrix summed element by element (``scatter``) from
    element matrices computed apart from assemble: einsum stiffness on the
    prototypes' geometry, P1 mass, and each interface edge's jump at its own
    length."""
    tensor, flat = form_tensor(spec, mesh), flat_triangles(mesh)
    grads = mesh.proto_grads[flat.prototype]
    Ke = np.einsum("t,tid,tdj,tkj->tik", flat.areas, grads, tensor, grads)
    Me = flat.areas[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    Je = fem.jump_element_matrices(mesh.vertices, mesh.interface_edges)
    return scatter(mesh, Ke + spec.mass_weight * Me, spec.jump_weight * Je)


def folded_system(monkeypatch, h, conductivity=identity_field):
    """The unit cell's mesh and the folded system ``periodic_cell_solve``
    hands to the solve."""
    systems = []
    monkeypatch.setattr(corrector, "solve", lambda system: systems.append(system) or solve(system))
    periodic_cell_solve([1.0, 0.0], SPEC, conductivity, h=h)
    return build_cell_mesh(SPEC, h), systems[0]


class TestPatternScatter:
    """The system's matrix, the cells' matrices scattered through the cell
    table, is the element-by-element sum: the same values within rounding,
    and the pattern of every node pair of a triangle or an interface edge,
    with each node's diagonal."""

    SPEC_ = BilinearFormSpec(conductivity=aniso_field, jump_weight=3.0, mass_weight=0.02)

    @pytest.fixture(scope="class")
    def meshes(self):
        cell = build_cell_mesh(SPEC, 0.1)
        return {
            "truncated_bernoulli": build_truncated_mesh(cell, BernoulliCellwiseMap(5), 2),
            "tiled_quarter": tile_domain_mesh(cell, BernoulliCellwiseMap(5), 0.25, SPEC),
            "square": build_square_mesh(12),
            "square128": build_square_mesh(128),
            "square255": build_square_mesh(255),  # short blocks: four kinds
            "cell": cell,
        }

    @staticmethod
    def assert_matches(K, ref, mesh):
        indptr, indices = oracle_pattern(mesh, oracle_interface_edges(mesh)[0])
        assert K.nnz == len(indices) and K.has_canonical_format
        assert np.array_equal(K.indptr, indptr) and np.array_equal(K.indices, indices)
        assert abs(K - ref).max() <= 1e-15 * abs(ref).max()

    @pytest.mark.parametrize("name", ["truncated_bernoulli", "tiled_quarter", "square",
                                      "square128", "square255", "cell"])
    def test_matches_dense_add_at(self, meshes, name):
        mesh = meshes[name]
        self.assert_matches(assemble(mesh, self.SPEC_).matrix, element_reference(mesh, self.SPEC_),
                            mesh)

    def test_folded_cell_matches_the_folded_sum(self, monkeypatch):
        # the periodic solve's matrix is the unit cell's element sum folded onto
        # the representatives, in the pattern of the folded mesh
        cell, system = folded_system(monkeypatch, 0.1, aniso_field)
        reps, inv = np.unique(periodic_representatives(cell), return_inverse=True)
        fold = sp.csr_matrix((np.ones(len(inv)), (np.arange(len(inv)), inv)))
        form = BilinearFormSpec(conductivity=aniso_field, jump_weight=1.0)
        ref = (fold.T @ element_reference(cell, form) @ fold).tocsr()
        self.assert_matches(system.matrix, ref, system.mesh)

    def test_pattern_holds_exactly_the_coupled_pairs(self, meshes):
        mesh = meshes["truncated_bernoulli"]
        spec = BilinearFormSpec(jump_weight=1.0, mass_weight=1.0)  # no entry cancels
        ref = element_reference(mesh, spec).toarray()
        K = assemble(mesh, spec).matrix
        pattern = sp.csr_matrix((np.ones(K.nnz), K.indices, K.indptr), shape=K.shape)
        assert np.array_equal(pattern.toarray() != 0, ref != 0)

    @pytest.mark.parametrize("name", ["truncated_bernoulli", "square", "tiled_sixteenth"])
    def test_sums_in_bincount_order(self, meshes, name):
        # the residual's runs add each cell's product, kind by kind and cell
        # by cell, as one np.bincount over all the cells' entries does, bit
        # for bit; each product is the kind's band of entries times the
        # cell's values, row by row
        if name == "tiled_sixteenth":  # 256 cells: many runs per kind
            mesh = tile_domain_mesh(build_cell_mesh(SPEC, 0.05), BernoulliCellwiseMap(0), 1 / 16,
                                    SPEC)
        else:
            mesh = meshes[name]
        system = assemble(mesh, self.SPEC_)
        solver = fem._Condensed(system.cell_matrices, mesh)
        if name == "tiled_sixteenth":  # a kind of more than one run
            assert max(nodes.size for nodes, *_ in solver.kinds) > fem.RUN
        x = np.random.default_rng(2).standard_normal(len(mesh.free_nodes))
        u = np.zeros(mesh.num_vertices)
        u[mesh.free_nodes] = x
        nodes, products = [], []  # each kind's cells' row nodes and products
        for cells, _, rows, cols, values, *_ in solver.kinds:
            nodes.append(cells[:, rows])
            products.append(np.einsum("rk,crk->cr", values, u[cells][:, cols]))
        want = np.bincount(np.concatenate([a.ravel() for a in nodes]),
                           weights=np.concatenate([a.ravel() for a in products]),
                           minlength=mesh.num_vertices)
        got = -solver.residual(x, np.zeros(len(x)))
        assert got.tobytes() == want[mesh.free_nodes].tobytes()


class TestSymmetricEigenvalues:
    """The closed-form 2x2 eigenvalues the ellipticity check uses."""

    def test_random_symmetric_stacks(self):
        rng = np.random.default_rng(9)
        for scale in (1e-3, 1.0, 1e3):
            A = scale * rng.standard_normal((5000, 2, 2))
            A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
            A[:10, 0, 1] = A[:10, 1, 0] = 0.0  # diagonal
            A[10:20, 1, 1] = A[10:20, 0, 0]  # equal diagonal
            lower, upper = sym2_eigenvalues(A)
            eig = np.linalg.eigvalsh(A)
            assert np.abs(lower - eig[:, 0]).max() <= 1e-12 * max(scale, 1.0)
            assert np.abs(upper - eig[:, 1]).max() <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("name", sorted(CONDUCTIVITY_PRESETS))
    def test_presets(self, cell_h01, name):
        A = form_tensor(BilinearFormSpec(conductivity=CONDUCTIVITY_PRESETS[name]), cell_h01)
        lower, upper = sym2_eigenvalues(A)
        eig = np.linalg.eigvalsh(A)
        assert np.abs(lower - eig[:, 0]).max() <= 1e-12
        assert np.abs(upper - eig[:, 1]).max() <= 1e-12


def add_at_load(mesh, contrib):
    """Reference scatter of per-triangle corner loads (nt, 3), rows of
    ``flat_triangles``: one np.add.at pass per corner, run by run in the
    readers' order (``flat_runs``)."""
    b, tri = np.zeros(mesh.num_vertices), flat_triangles(mesh).triangles
    for at in flat_runs(mesh):
        for i in range(3):
            np.add.at(b, tri[at, i].ravel(), contrib[at, i].ravel())
    return b


def cell_by_cell_load(mesh, contrib):
    """Reference scatter of per-triangle corner loads (nt, 3), rows of
    ``flat_triangles``, summed per cell first: each cell's corner loads node
    by node, one corner at a time, then added to its nodes cell by cell,
    run by run in the readers' order (``flat_runs``)."""
    b, tri = np.zeros(mesh.num_vertices), flat_triangles(mesh).triangles
    for at in flat_runs(mesh):
        for rows in at:  # one cell's triangles
            nodes, place = np.unique(tri[rows], return_inverse=True)
            load = np.zeros(len(nodes))
            np.add.at(load, place.reshape(-1, 3).T.ravel(), contrib[rows].T.ravel())
            b[nodes] += load
    return b


class TestLoadScatter:
    """The loads are bitwise a per-corner np.add.at of corner loads computed
    on the prototypes (areas, gradients, conductivity) and gathered per
    triangle of the flat list, in the readers' order: the volume load run
    by run, the gradient load summed per cell first (one cell load per kind,
    added through the cell table)."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return build_truncated_mesh(build_cell_mesh(SPEC, 0.1), BernoulliCellwiseMap(3), 4)

    @pytest.mark.parametrize(
        "f", [2.5, lambda pts: 1.0 + pts[:, 0] * pts[:, 1]], ids=["constant", "callable"]
    )
    def test_volume_load_bitwise(self, mesh, f):
        # f at the centroid of each triangle's own nodes
        flat = flat_triangles(mesh)
        cent = triangle_centroids(mesh.vertices, flat.triangles)
        fc = f(cent) if callable(f) else np.full(mesh.num_triangles, f)
        contrib = np.repeat((flat.areas * fc / 3.0)[:, None], 3, axis=1)
        assert volume_load(mesh, f).tobytes() == add_at_load(mesh, contrib).tobytes()

    def test_volume_load_at_the_nodes_of_a_copy(self, mesh):
        # a copy with its nodes moved evaluates f at its own centroids, run by run
        moved, seen = 1.5 * mesh.vertices, []
        copy = mesh.with_kinds(mesh.cell_kind, moved)
        volume_load(copy, lambda pts: seen.append(pts) or pts[:, 0])
        order = np.concatenate([at.ravel() for at in flat_runs(mesh)])
        want = triangle_centroids(moved, flat_triangles(mesh).triangles[order])
        assert np.array_equal(np.concatenate(seen), want)

    def test_gradient_load_bitwise(self, mesh):
        assert len(mesh.prototypes) < mesh.num_triangles
        tensor = BilinearFormSpec(conductivity=aniso_field).proto_tensor(mesh)
        p = np.array([0.7, -0.2])
        Ap = np.einsum("tij,j->ti", tensor, p)
        contrib = -np.einsum("t,ti,tji->tj", mesh.proto_areas, Ap, mesh.proto_grads)
        assert (gradient_load(mesh, tensor, p).tobytes()
                == cell_by_cell_load(mesh, contrib[flat_triangles(mesh).prototype]).tobytes())

    def test_loads_bitwise_on_a_tiling(self):
        # most triangles of a tiling differ from their prototypes in the last
        # bits of their areas, so a load from each triangle's own geometry fails
        mesh = tile_domain_mesh(build_cell_mesh(SPEC, 0.1), BernoulliCellwiseMap(3), 1 / 16, SPEC)
        flat = flat_triangles(mesh)
        assert (triangle_geometry(mesh.vertices, flat.triangles)[0] != flat.areas).mean() > 0.5
        self.test_volume_load_bitwise(mesh, lambda pts: 1.0 + pts[:, 0] * pts[:, 1])
        self.test_gradient_load_bitwise(mesh)


def per_triangle_reference(mesh, spec, f, p):
    """The form's matrix, the volume load of f and the gradient load of p,
    from the geometry and the conductivity of every triangle on its own."""
    tri = flat_triangles(mesh).triangles
    areas, grads = triangle_geometry(mesh.vertices, tri)
    tensor = spec.conductivity(triangle_centroids(mesh.ref_vertices, tri))
    Ke = np.einsum("t,tid,tdj,tkj->tik", areas, grads, tensor, grads)
    Ke += spec.mass_weight * areas[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    Je = spec.jump_weight * fem.jump_element_matrices(mesh.vertices, mesh.interface_edges)
    n = mesh.num_vertices
    fc = f(triangle_centroids(mesh.vertices, tri))
    b_f = np.bincount(tri.ravel(), weights=np.repeat(areas * fc / 3.0, 3), minlength=n)
    contrib = -np.einsum("t,tij,j,tki->tk", areas, tensor, p, grads)
    b_p = np.bincount(tri.ravel(), weights=contrib.ravel(), minlength=n)
    return scatter(mesh, Ke, Je), b_f, b_p


class TestPerKindAssembly:
    """Element matrices and loads computed once per prototype match those of
    every triangle on its own, for the conductivities of the contract (``fem``
    module docstring): every preset on every tiling, a constant tensor on the
    square grid."""

    @pytest.fixture(scope="class")
    def meshes(self):
        cell = build_cell_mesh(SPEC, 0.1)
        return {
            "truncated_bernoulli": build_truncated_mesh(cell, BernoulliCellwiseMap(5), 2),
            "truncated_bump": build_truncated_mesh(cell, BumpMap(0.2), 2),
            "truncated_identity": build_truncated_mesh(cell, IdentityMap(), 2),
            "truncated_no_membranes": build_truncated_mesh(cell, BernoulliCellwiseMap(5), 2,
                                                           membranes=False),
            "tiled_cushion": tile_domain_mesh(cell, BernoulliCellwiseMap(5), 0.125, SPEC),
            "tiled_no_membranes": tile_domain_mesh(cell, BernoulliCellwiseMap(5), 0.125, SPEC,
                                                   membranes=False),
        }

    def check(self, mesh, conductivity):
        spec = BilinearFormSpec(conductivity=conductivity, jump_weight=3.0, mass_weight=0.02,
                                lam=0.5)
        f = lambda pts: 1.0 + pts[:, 0] * pts[:, 1]
        p = np.array([0.7, -0.2])
        system = assemble(mesh, spec, f=f, p=p)
        K_ref, b_f, b_p = per_triangle_reference(mesh, spec, f, p)
        assert abs(system.matrix - K_ref).max() <= 1e-13 * abs(K_ref).max()
        b_ref = b_f + b_p
        assert np.abs(system.load - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
        g = gradient_load(system.mesh, system.proto_tensor, p)
        assert np.abs(g - b_p).max() <= 1e-13 * np.abs(b_p).max()
        assert system.mesh is mesh
        return system

    @pytest.mark.parametrize("conductivity", sorted(CONDUCTIVITY_PRESETS))
    @pytest.mark.parametrize("name", [
        "truncated_bernoulli", "truncated_bump", "truncated_identity", "truncated_no_membranes",
        "tiled_cushion", "tiled_no_membranes",
    ])
    def test_matches_per_triangle(self, meshes, name, conductivity):
        mesh = meshes[name]
        kinds = len(np.unique(mesh.cell_kind))
        assert len(mesh.prototypes) == kinds * mesh.num_triangles // len(mesh.cells)
        assert kinds < len(mesh.cells)
        self.check(mesh, CONDUCTIVITY_PRESETS[conductivity])

    @pytest.mark.parametrize("m", [40, 128])
    @pytest.mark.parametrize("conductivity", [
        identity_field, constant_field([[1.2, 0.3], [0.3, 0.9]]),
    ], ids=["identity", "constant"])
    def test_square_grid_matches_per_triangle(self, m, conductivity):
        """The grid's cells are blocks of GRID_BLOCK squares, not unit cells:
        the contract holds for a constant conductivity, here a non-diagonal
        one."""
        mesh = build_square_mesh(m)
        assert len(mesh.prototypes) < mesh.num_triangles
        self.check(mesh, conductivity)


class TestStoredArrays:
    """A mesh and a system keep per-triangle data only as int32 index arrays
    and per-prototype values: they store no per-triangle float array."""

    BUILDERS = {
        "cell": lambda cell: cell,
        "folded_cell": lambda cell: folded_cell(0.1),
        "tiled": lambda cell: tile_domain_mesh(cell, BernoulliCellwiseMap(5), 0.125, SPEC),
        "truncated": lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(5), 2),
        "square": lambda cell: build_square_mesh(40),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_index_arrays_int32_and_floats_per_prototype(self, name):
        mesh = self.BUILDERS[name](build_cell_mesh(SPEC, 0.1))
        if name not in ("cell", "folded_cell"):  # one cell: each triangle is a prototype
            assert len(mesh.prototypes) < mesh.num_triangles
        system = assemble(mesh, BilinearFormSpec(jump_weight=1.0))
        assert system.mesh is mesh
        for array in INDEX_ARRAYS:
            assert getattr(mesh, array).dtype == np.int32, array
        assert all(links.corners.dtype == np.int32 for links in mesh.links)
        for owner in (mesh, system):
            for key, value in vars(owner).items():
                if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    assert len(value) in (mesh.num_vertices, len(mesh.prototypes)), key
        assert system.proto_tensor.shape == (len(mesh.prototypes), 2, 2)
        assert np.array_equal(form_tensor(BilinearFormSpec(jump_weight=1.0), mesh),
                              np.take(system.proto_tensor, flat_triangles(mesh).prototype, axis=0))


class TestSolve:
    def fourier_reference(self, x, y, modes=199):
        m = np.arange(1, modes + 1, 2)
        mm, nn = np.meshgrid(m, m, indexing="ij")
        coef = 16.0 / (np.pi**4 * mm * nn * (mm**2 + nn**2))
        return float(np.sum(coef * np.sin(mm * np.pi * x) * np.sin(nn * np.pi * y)))

    def test_laplace_matches_fourier_series(self):
        mesh = build_square_mesh(64)
        sol = solve(assemble(mesh, BilinearFormSpec(), f=1.0))
        idx = int(np.argmin(np.abs(mesh.vertices - 0.5).sum(axis=1)))
        assert abs(sol.values[idx] - self.fourier_reference(0.5, 0.5)) < 1e-3

    def test_zero_source_gives_zero(self, cell_h01):
        spec = BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)
        sol = solve(assemble(cell_h01, spec, f=0.0))
        assert np.abs(sol.values).max() == 0.0

    def test_linearity(self):
        mesh = build_square_mesh(16)
        spec = BilinearFormSpec()
        f1 = lambda pts: np.sin(np.pi * pts[:, 0])
        f2 = lambda pts: pts[:, 1] ** 2
        s1 = solve(assemble(mesh, spec, f=f1)).values
        s2 = solve(assemble(mesh, spec, f=f2)).values
        s12 = solve(assemble(mesh, spec, f=lambda p: f1(p) + f2(p))).values
        assert np.abs(s12 - (s1 + s2)).max() < 1e-9

    def test_linear_patch(self):
        # x1 is discretely harmonic: K x1 vanishes on the free dofs
        mesh = build_square_mesh(8)
        sys = assemble(mesh, BilinearFormSpec(), f=0.0)
        assert np.abs((sys.matrix @ mesh.vertices[:, 0])[sys.free]).max() <= 1e-12

    def test_residual_small(self, cell_h01):
        spec = BilinearFormSpec(jump_weight=8.0)
        sys = assemble(cell_h01, spec, f=1.0)
        sol = solve(sys)
        free = sys.free
        r = sys.matrix @ sol.values - sys.load
        assert np.linalg.norm(r[free]) <= 1e-9 * max(np.linalg.norm(sys.load[free]), 1.0)


def jacobi_cg(system, rtol=1e-12):
    """Plain Jacobi-preconditioned CG on the free dofs, the reference for the
    two-level solve: the nodal values and the iteration count."""
    u = np.zeros(len(system.load))
    u[system.fixed] = system.fixed_values
    free, K = system.free, system.matrix
    Kff = K[free][:, free]
    b = system.load[free] - K[free][:, system.fixed] @ system.fixed_values
    iterations = []
    u[free], info = spla.cg(
        Kff, b, rtol=rtol, maxiter=20 * len(b), M=sp.diags(1.0 / Kff.diagonal()),
        callback=iterations.append,
    )
    assert info == 0
    return u, len(iterations)


def splu_values(system):
    """The nodal values of a direct sparse LU solve on the free dofs."""
    u = np.zeros(len(system.load))
    u[system.fixed] = system.fixed_values
    free, K = system.free, system.matrix
    b = system.load[free] - K[free][:, system.fixed] @ system.fixed_values
    u[free] = spla.splu(K[free][:, free].tocsc()).solve(b)
    return u


def corrector_systems(dmap):
    """The e1 and e2 corrector systems on the truncated cube of half-width 8,
    h=0.05 (jump weight 1, delta = 1e-3), as `solve_truncated` builds them."""
    mesh = build_truncated_mesh(build_cell_mesh(SPEC, 0.05), dmap, 8)
    form = BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)
    system = assemble(mesh, form)
    return [
        replace(system, load=system.load + gradient_load(system.mesh, system.proto_tensor, p))
        for p in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ]


@pytest.fixture(scope="module")
def bernoulli_systems():
    return corrector_systems(BernoulliCellwiseMap(0))


def assert_matches_jacobi(system):
    """The solve matches Jacobi-CG, stops within 3 applications of the
    condensed inverse and records a true relative residual within RTOL."""
    sol = solve(system)
    ref, jacobi_iterations = jacobi_cg(system)
    assert np.abs(sol.values - ref).max() <= 1e-8 * np.abs(ref).max()
    assert 1 <= sol.iterations <= 3
    assert sol.residual <= RTOL
    return sol.iterations, jacobi_iterations


class TestTwoLevelCG:
    """The two-level solve (cell interiors condensed per kind, the skeleton
    factored, refined with the true residual) against plain Jacobi-CG and a
    direct solve."""

    @pytest.mark.parametrize("load", [0, 1], ids=["e1", "e2"])
    def test_bernoulli_corrector(self, bernoulli_systems, load):
        iterations, jacobi_iterations = assert_matches_jacobi(bernoulli_systems[load])
        assert iterations <= 3 < jacobi_iterations

    def test_identity_corrector(self):
        assert_matches_jacobi(corrector_systems(IdentityMap())[0])

    def test_heterogeneous_solve(self):
        eps = 1.0 / 16.0
        mesh = tile_domain_mesh(build_cell_mesh(SPEC, 0.05), BernoulliCellwiseMap(0), eps, SPEC)
        assert set(mesh.cell_kind) == {0, 1, 2, 3}  # bumped or not, membrane or cushion
        assert_matches_jacobi(assemble(mesh, hetero_form(eps), f=1.0))

    def test_grid_solve(self):
        mesh = build_square_mesh(128)
        assert_matches_jacobi(assemble(mesh, BilinearFormSpec(), f=1.0))

    def test_periodic_cell_residual(self):
        sol = periodic_cell_solve([1.0, 0.3], SPEC, aniso_field, h=0.05).sol
        assert 1 <= sol.iterations <= 3 and sol.residual <= RTOL

    @pytest.mark.parametrize("case", ["corrector", "hetero", "periodic"])
    def test_solves_without_the_global_matrix(self, bernoulli_systems, monkeypatch, case):
        # the same values, bit for bit, when reading the system's matrix raises
        def run():
            if case == "corrector":
                return solve(replace(bernoulli_systems[1])).values
            if case == "periodic":
                return periodic_cell_solve([1.0, 0.3], SPEC, aniso_field, h=0.1).sol.values
            eps = 0.25
            mesh = tile_domain_mesh(build_cell_mesh(SPEC, 0.1), BernoulliCellwiseMap(2), eps, SPEC)
            return solve(assemble(mesh, hetero_form(eps), f=1.0)).values

        want = run()

        def refused(system):
            raise AssertionError("the solve read the global matrix")

        monkeypatch.setattr(fem.DiscreteSystem, "matrix", property(refused))
        assert run().tobytes() == want.tobytes()

    def test_residual_is_relative_to_the_free_load(self, bernoulli_systems):
        system = bernoulli_systems[0]
        sol = solve(system)
        free = system.free
        b = system.load[free]
        r = b - (system.matrix @ sol.values)[free]
        assert sol.residual == pytest.approx(np.linalg.norm(r) / np.linalg.norm(b), rel=1e-6)

    def test_cell_tables_partition_free_dofs(self, bernoulli_systems):
        system = bernoulli_systems[0]
        mesh = system.mesh
        table = mesh.cell_nodes
        on_skeleton = np.zeros(mesh.num_vertices, dtype=bool)
        on_skeleton[skeleton(mesh)] = True
        assert 0 < on_skeleton.sum() < mesh.num_vertices
        # each free dof is on the skeleton or interior to exactly one cell
        inside = (table >= 0) & ~on_skeleton[np.maximum(table, 0)]
        count = np.bincount(table[inside], minlength=mesh.num_vertices)
        free = system.free
        assert count.max() == 1
        assert np.all(on_skeleton[free] ^ (count[free] == 1))
        # every triangle of an interior node lies in that node's cell
        owner = np.full(mesh.num_vertices, -1)
        owner[table[inside]] = np.nonzero(inside)[0]
        flat = flat_triangles(mesh)
        tri_owner = owner[flat.triangles]
        tri_cell = np.broadcast_to(flat.cell[:, None], tri_owner.shape)
        corner = tri_owner >= 0
        assert np.array_equal(tri_owner[corner], tri_cell[corner])

    def test_schur_pattern_once_per_template(self):
        # built with the template, before any solve, and shared by its
        # realizations and their cellwise copies
        meshing._template.cache_clear()
        cell = build_cell_mesh(SPEC, 0.1)
        template = meshing.truncated_template(cell, 2).mesh
        pattern = template.schur
        assert pattern.nodes.dtype == pattern.slots.dtype == np.int32
        meshes = [build_truncated_mesh(cell, BernoulliCellwiseMap(seed), 2) for seed in (0, 1)]
        assert not np.array_equal(meshes[0].cell_kind, meshes[1].cell_kind)
        # the skeleton's fronts and each topology class's interior fronts
        assert all(mesh.schur is pattern and mesh.links is template.links
                   for mesh in (*meshes, cellwise(meshes[0])))
        form = BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)
        for mesh in meshes:
            assert solve(assemble(mesh, form, p=[1.0, 0.0])).iterations == 1
        nodes = pattern.nodes
        assert len(nodes) and not np.isin(nodes, template.boundary_nodes).any()
        off = np.setdiff1d(np.arange(template.num_vertices), template.boundary_nodes)
        assert np.array_equal(template.free_nodes, off)
        # in the stored nested-dissection order, a permutation of the free skeleton
        free = np.setdiff1d(skeleton(template), template.boundary_nodes)
        assert np.array_equal(np.sort(nodes), free)

    SCHUR_CASES = {
        "bernoulli": (lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(0), 2),
                      BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)),
        "cushions": (lambda cell: tile_domain_mesh(cell, BernoulliCellwiseMap(3), 0.25, SPEC),
                     hetero_form(0.25)),
        "grid": (lambda cell: build_square_mesh(20), BilinearFormSpec()),
    }

    @pytest.mark.parametrize("per_cell", [False, True], ids=["assembled", "cellwise"])
    @pytest.mark.parametrize("case", sorted(SCHUR_CASES))
    def test_schur_complement(self, cell_h01, case, per_cell):
        # the S the set-up factors is K_BB - K_BI K_II^-1 K_IB on the free
        # skeleton dofs B, I the other free dofs
        build, form = self.SCHUR_CASES[case]
        system = assemble(build(cell_h01), form)
        if case == "cushions":  # cells with and without membranes, bumped or not
            assert set(system.mesh.cell_kind) == {0, 1, 2, 3}
        if per_cell:
            system = assemble(cellwise(system.mesh), form)
        mesh = system.mesh
        S = fronts_matrix(*factored(system)[-1]).toarray()  # S is factored last
        B = mesh.schur.nodes
        I = np.setdiff1d(mesh.free_nodes, B)
        K = system.matrix.toarray()
        ref = K[np.ix_(B, B)] - K[np.ix_(B, I)] @ np.linalg.solve(K[np.ix_(I, I)], K[np.ix_(I, B)])
        assert 0 < len(B) < len(mesh.free_nodes)
        assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_cells_without_skeleton_nodes(self, cell_h01):
        # the unit cell with no boundary nodes: one cell, every node interior
        # to it, so the Schur blocks have width 0 and S is empty
        flat = flat_triangles(cell_h01)
        mesh = MembraneMesh(**{name: getattr(cell_h01, name) for name in (
            "vertices", "interface_pairs", "cells", "cell_nodes")}, triangles=flat.triangles,
            tri_region=flat.region, tri_cell_index=flat.cell,
            boundary_nodes=np.zeros(0, dtype=np.int32))
        assert not mesh.cell_skeleton.any() and len(mesh.schur.nodes) == 0
        system = assemble(mesh, BilinearFormSpec(jump_weight=1.0, mass_weight=1.0), f=1.0)
        sol = solve(system)
        assert sol.iterations == 1 and sol.residual <= RTOL
        assert np.abs(sol.values - splu_values(system)).max() <= 1e-12

    def test_folded_periodic_cell_has_empty_schur_complement(self, monkeypatch):
        calls, cholesky = [], fem._cholesky
        monkeypatch.setattr(fem, "_cholesky",
                            lambda fronts, data: calls.append(fronts) or cholesky(fronts, data))
        periodic_cell_solve([1.0, 0.0], SPEC, h=0.1)
        interior, S = calls  # the one cell's interior, then S
        assert len(S.nodes) == S.size == 0 and len(interior.nodes) > 0

    @staticmethod
    def scaled_inverse(monkeypatch, factor):
        """Make the condensed inverse off by ``factor``; the list of its calls."""
        calls, inverse = [], fem._Condensed.inverse

        def scaled(self, r):
            calls.append(r)
            return factor * inverse(self, r)

        monkeypatch.setattr(fem._Condensed, "inverse", scaled)
        return calls

    def test_iterations_counted(self, cell_h01, monkeypatch):
        # an inverse off by 1e-6 leaves a residual near 1e-6: one refinement
        system = assemble(cell_h01, BilinearFormSpec(jump_weight=1.0), f=1.0)
        calls = self.scaled_inverse(monkeypatch, 1.0 + 1e-6)
        sol = solve(system)
        assert sol.iterations == len(calls) == 2
        assert sol.residual <= RTOL
        assert np.abs(sol.values - splu_values(system)).max() <= 1e-8 * np.abs(sol.values).max()

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_singular_system_raises_solver_divergence(self, h):
        # jump weight 0 and no mass: each membrane's disk floats, so K is
        # singular; the solve raises SolverDivergence, from the factor or from
        # the residual check, never numpy's LinAlgError or a RuntimeWarning
        # (which this suite turns into errors)
        cell = build_cell_mesh(SPEC, h)
        for mesh in (cell, build_truncated_mesh(cell, BernoulliCellwiseMap(0), 2),
                     tile_domain_mesh(cell, BernoulliCellwiseMap(0), 0.25, SPEC)):
            with pytest.raises(SolverDivergence, match="not positive definite|after 3 applications"):
                solve(assemble(mesh, BilinearFormSpec(), f=1.0))

    @pytest.mark.parametrize("case", ["interior", "skeleton"])
    def test_indefinite_pivot_block_raises_solver_divergence(self, monkeypatch, case):
        # a negative mass below minus the lowest Dirichlet eigenvalue of one
        # cell (about 2 pi^2 / 0.4^2 = 123 for the grid's 16 / 40 wide cells)
        # makes the interior blocks indefinite; one between that and minus
        # the square's (2 pi^2 = 19.7) leaves them definite and S indefinite
        calls, cholesky = [], fem._cholesky
        monkeypatch.setattr(fem, "_cholesky",
                            lambda fronts, data: calls.append(fronts) or cholesky(fronts, data))
        mass = {"interior": -2e3, "skeleton": -50.0}[case]
        system = assemble(build_square_mesh(40), BilinearFormSpec(mass_weight=mass), f=1.0)
        with pytest.raises(SolverDivergence, match="pivot block of the factor is not positive definite"):
            solve(system)
        assert (calls[-1] is system.mesh.schur) == (case == "skeleton")

    def test_rounding_floor_past_rtol_accepted_by_backward_error(self, cell_h01, monkeypatch):
        # an RTOL below the rounding floor of the residual: the applications
        # run out above it, and the answer is accepted by its cell-wise
        # backward error, which the solution records
        system = assemble(cell_h01, BilinearFormSpec(jump_weight=1.0), f=1.0)
        want = solve(replace(system))
        assert want.residual <= RTOL and want.backward_error is None
        monkeypatch.setattr(fem, "RTOL", 1e-20)
        sol = solve(replace(system))
        assert sol.iterations == fem.APPLICATIONS and sol.residual > fem.RTOL
        assert 0.0 < sol.backward_error <= fem.BACKWARD == 64 * 2.0**-53
        assert np.abs(sol.values - want.values).max() <= 1e-12 * np.abs(want.values).max()

    def test_backward_error_reads_the_cells_absolute_matrices(self):
        # the second residual pass sums |K_c| |x| over the cell matrices K_c:
        # sum_c |K_c| exceeds |K| where neighbouring cells add entries of
        # opposite sign (here a mass of 100 against the stiffness across some
        # cell sides), so the error is the cell-wise one, not Oettli-Prager's
        mesh = build_truncated_mesh(build_cell_mesh(SPEC, 0.1), BernoulliCellwiseMap(3), 2)
        system = assemble(mesh, BilinearFormSpec(jump_weight=1.0, mass_weight=100.0), f=1.0)
        rows, cols, data = [], [], []
        for kind, K in zip(mesh.kinds, system.cell_matrices):
            nodes = mesh.cell_nodes[kind.cells]
            rows.append(nodes[:, kind.links.pairs[:, 0]].ravel())
            cols.append(nodes[:, kind.links.pairs[:, 1]].ravel())
            data.append(np.tile(np.abs(K), len(nodes)))
        nv, free = mesh.num_vertices, system.free
        cell_sum = sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                                 shape=(nv, nv))[free][:, free]
        x = np.random.default_rng(0).random(len(free))
        want = cell_sum @ x
        got = -system.solver.residual(x, np.zeros(len(free)), absolute=True)
        assert np.abs(got - want).max() <= 1e-13 * want.max()
        assert (want > (1.0 + 1e-9) * (abs(system.matrix)[free][:, free] @ x)).any()

    def test_wrong_inverse_raises_past_rtol(self, cell_h01, monkeypatch):
        # half the inverse in the first application and nothing after: x stops
        # changing at half the answer, so its backward error alone rejects it
        system = assemble(cell_h01, BilinearFormSpec(jump_weight=1.0), f=1.0)
        calls, inverse = [], fem._Condensed.inverse

        def wrong(self, r):
            calls.append(r)
            return 0.5 * inverse(self, r) if len(calls) == 1 else np.zeros_like(r)

        monkeypatch.setattr(fem._Condensed, "inverse", wrong)
        with pytest.raises(SolverDivergence, match=r"backward error 0\.\d+ .* last change of x 0 "):
            solve(system)
        assert len(calls) == fem.APPLICATIONS

    def test_diverges_after_three_applications(self, cell_h01, monkeypatch):
        # half the inverse halves the residual per application: 1/8 after 3
        system = assemble(cell_h01, BilinearFormSpec(jump_weight=1.0), f=1.0)
        calls = self.scaled_inverse(monkeypatch, 0.5)
        with pytest.raises(SolverDivergence, match="residual 0.125 .* after 3 applications"):
            solve(system)
        assert len(calls) == fem.APPLICATIONS == 3


class TestSkeletonOrder:
    """The mesh stores its free skeleton nodes in nested-dissection order
    along the lattice lines, the order of the skeleton's fronts; the solves
    leave the stored fronts as they found them."""

    @pytest.mark.parametrize("name", ["cube", "eighth", "grid", "cell", "folded", "empty"])
    def test_nodes_permute_the_free_skeleton(self, cell_h01, name):
        mesh = {
            "cube": lambda: build_truncated_mesh(cell_h01, BernoulliCellwiseMap(0), 2),
            "eighth": lambda: tile_domain_mesh(cell_h01, BernoulliCellwiseMap(0), 0.125, SPEC),
            "grid": lambda: build_square_mesh(40),
            "cell": lambda: cell_h01,
            "folded": lambda: folded_cell(0.1),
            "empty": lambda: mesh_from_tri_cell(
                np.zeros((0, 2), dtype=np.int64), vertices=np.zeros((0, 2)),
                triangles=np.zeros((0, 3), dtype=np.int64), tri_region=np.zeros(0, dtype=np.int8),
                interface_pairs=np.zeros((0, 2), dtype=np.int64),
                boundary_nodes=np.zeros(0, dtype=np.int64)),
        }[name]()
        nodes, free = mesh.schur.nodes, np.setdiff1d(skeleton(mesh), mesh.boundary_nodes)
        assert nodes.dtype == np.int32 and np.array_equal(np.sort(nodes), free)
        assert (len(nodes) > 0) == (name in ("cube", "eighth", "grid"))

    def test_separators_come_last(self):
        # the 32 x 32 grid is 2 x 2 cells: the first cut, x = 16, splits it
        # into two columns of cells, each cut at y = 16; the halves of
        # y = 16 come before x = 16, left before right
        mesh = build_square_mesh(32)
        x, y = (mesh.vertices[mesh.schur.nodes] * 32).T
        assert (y[:30] == 16).all() and (x[30:] == 16).all() and len(x) == 61
        assert (x[:15] < 16).all() and (x[15:30] > 16).all()

    @pytest.mark.parametrize("case", ["cube2", "cube4", "eighth", "grid128"])
    def test_fill_at_most_minimum_degree(self, cell_h01, case):
        mesh, form = {
            "cube2": lambda: (build_truncated_mesh(cell_h01, BernoulliCellwiseMap(0), 2),
                              BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)),
            "cube4": lambda: (build_truncated_mesh(cell_h01, BernoulliCellwiseMap(0), 4),
                              BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)),
            "eighth": lambda: (tile_domain_mesh(cell_h01, BernoulliCellwiseMap(0), 0.125, SPEC),
                               hetero_form(0.125)),
            "grid128": lambda: (build_square_mesh(128), BilinearFormSpec()),
        }[case]()
        fills = skeleton_fills(assemble(mesh, form))
        stored, mmd = fills["stored"][0], fills["mmd"][0]
        # the factor's stored lower entries against SuperLU's minimum-degree L;
        # the grid's S keeps the entries that cancel to zero: at most 3 % more fill
        assert stored <= (1.03 if case == "grid128" else 1.0) * mmd, (stored, mmd)

    @pytest.mark.parametrize("case", ["grid", "tiling"])
    def test_solves_leave_the_pattern_intact(self, cell_h01, case):
        # the grid's S has entries that cancel to zero exactly
        mesh, form = {
            "grid": lambda: (build_square_mesh(20), BilinearFormSpec()),
            "tiling": lambda: (tile_domain_mesh(cell_h01, BernoulliCellwiseMap(1), 0.25, SPEC),
                               hetero_form(0.25)),
        }[case]()
        def arrays():
            fronts = [mesh.schur, *(links.interior for links in mesh.links)]
            return [a.copy() for f in fronts for a in (f.nodes, f.slots, *(x for b in f.batches
                                                                          for x in b[:2] + b[4:]))]

        before = arrays()
        first, second = (solve(assemble(mesh, form, f=1.0)) for _ in range(2))
        assert first.values.tobytes() == second.values.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(arrays(), before))


class TestNorms:
    def test_constant_field(self, cell_h01):
        sol = fem.FemSolution(values=np.ones(cell_h01.num_vertices), mesh=cell_h01)
        rec = norms(sol)
        assert rec["grad_plus_L2"] < 1e-13
        assert rec["grad_minus_L2"] < 1e-13
        assert rec["jump_L2_on_interface"] < 1e-13

    def test_linear_field(self, cell_h01):
        sol = fem.FemSolution(values=cell_h01.vertices[:, 0].copy(), mesh=cell_h01)
        rec = norms(sol)
        flat = flat_triangles(cell_h01)
        a_plus = flat.areas[flat.region == 1].sum()
        a_minus = flat.areas[flat.region == -1].sum()
        assert abs(rec["grad_plus_L2"] - np.sqrt(a_plus)) < 1e-12
        assert abs(rec["grad_minus_L2"] - np.sqrt(a_minus)) < 1e-12
        assert rec["jump_L2_on_interface"] < 1e-13

    def test_random_field_matches_independent_quadrature(self, cell_h01):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(cell_h01.num_vertices)
        rec = norms(fem.FemSolution(values=u, mesh=cell_h01))
        # per-triangle gradient recomputed through an explicit 2x2 solve
        total = {1: 0.0, -1: 0.0}
        v = cell_h01.vertices
        flat = flat_triangles(cell_h01)
        for tri, reg in zip(flat.triangles, flat.region):
            B = np.array([v[tri[1]] - v[tri[0]], v[tri[2]] - v[tri[0]]])
            rhs = np.array([u[tri[1]] - u[tri[0]], u[tri[2]] - u[tri[0]]])
            g = np.linalg.solve(B, rhs)
            area = 0.5 * abs(np.linalg.det(B))
            total[int(reg)] += area * (g @ g)
        assert abs(rec["grad_plus_L2"] - np.sqrt(total[1])) < 1e-10
        assert abs(rec["grad_minus_L2"] - np.sqrt(total[-1])) < 1e-10


class TestEnergyAndCoercivity:
    def test_energy_identity(self, cell_h01):
        gamma, delta = 3.0, 0.02
        spec = BilinearFormSpec(jump_weight=gamma, mass_weight=delta)
        K = assemble(cell_h01, spec).matrix
        tensor = form_tensor(spec, cell_h01)
        Ks = assemble_stiffness(cell_h01, tensor)
        M = assemble_mass(cell_h01)
        J = assemble_jump(cell_h01)
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.standard_normal(cell_h01.num_vertices)
            lhs = v @ (K @ v)
            rhs = v @ (Ks @ v) + delta * (v @ (M @ v)) + gamma * (v @ (J @ v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_coercivity_witness(self, cell_h01):
        gamma, delta = 2.0, 1e-3
        spec = BilinearFormSpec(jump_weight=gamma, mass_weight=delta)
        sys = assemble(cell_h01, spec)
        K = sys.matrix
        M = assemble_mass(cell_h01)
        J = assemble_jump(cell_h01)
        tensor_id = identity_field(np.zeros((cell_h01.num_triangles, 2)))
        Ks = assemble_stiffness(cell_h01, tensor_id)
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.standard_normal(cell_h01.num_vertices)
            v[sys.fixed] = 0.0
            wnorm2 = v @ (Ks @ v) + gamma * (v @ (J @ v)) + delta * (v @ (M @ v))
            assert v @ (K @ v) >= min(spec.lam, 1.0) * wnorm2 - 1e-9


class TestPairings:
    def test_zero_solution(self, cell_h01):
        sol = fem.FemSolution(values=np.zeros(cell_h01.num_vertices), mesh=cell_h01)
        tensor = BilinearFormSpec().proto_tensor(cell_h01)
        psi = lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))])
        val = flux_pairing(sol, tensor, [psi])[0]
        assert val == 0.0

    def test_unit_gradient_unit_domain(self):
        mesh = build_square_mesh(8)
        sol = fem.FemSolution(values=mesh.vertices[:, 0].copy(), mesh=mesh)
        psi = lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))])
        assert abs(flux_pairing(sol, BilinearFormSpec().proto_tensor(mesh), [psi])[0] - 1.0) < 1e-12

    def test_linear_test_field_exact(self, cell_h01):
        # u = x1, psi = (x2, x1): integrand is linear, centroid rule exact
        sol = fem.FemSolution(values=cell_h01.vertices[:, 0].copy(), mesh=cell_h01)
        psi = lambda p: p[:, ::-1]
        tensor = BilinearFormSpec().proto_tensor(cell_h01)
        assert abs(flux_pairing(sol, tensor, [psi])[0] - 0.5) < 1e-12
