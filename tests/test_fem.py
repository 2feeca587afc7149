from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import membrane_homog.fem as fem
import membrane_homog.meshing as meshing
from membrane_homog.corrector import periodic_cell_solve
from membrane_homog.errors import NonEllipticField, SolverDivergence
from membrane_homog.fem import (
    CG_RTOL,
    CONDUCTIVITY_PRESETS,
    BilinearFormSpec,
    aniso_field,
    assemble,
    flux_pairing,
    gradient_load,
    identity_field,
    norms,
    p1_gradient,
    solve,
    sym2_eigenvalues,
    volume_load,
)
from membrane_homog.geometry import BernoulliCellwiseMap, BumpMap, IdentityMap, InterfaceSpec
from membrane_homog.homogenize import hetero_form
from membrane_homog.meshing import (
    MembraneMesh,
    build_cell_mesh,
    build_square_mesh,
    build_truncated_mesh,
    tile_domain_mesh,
    triangle_centroids,
    triangle_geometry,
)

SPEC = InterfaceSpec()


def single_triangle():
    return MembraneMesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]], dtype=np.int64),
        tri_region=np.array([1], dtype=np.int8),
        tri_cell=np.zeros((1, 2), dtype=np.int64),
        interface_pairs=np.zeros((0, 2), dtype=np.int64),
        boundary_nodes=np.array([0, 1, 2], dtype=np.int64),
    )


def membrane_strip(length=1.0):
    """Two triangles with a duplicated-node interface edge of given length."""
    L = length
    return MembraneMesh(
        vertices=np.array(
            [[0.0, 0.0], [L, 0.0], [0.5 * L, 0.5 * L],
             [0.0, 0.0], [L, 0.0], [0.5 * L, -0.5 * L]]
        ),
        triangles=np.array([[0, 1, 2], [3, 5, 4]], dtype=np.int64),
        tri_region=np.array([1, -1], dtype=np.int8),
        tri_cell=np.zeros((2, 2), dtype=np.int64),
        interface_pairs=np.array([[0, 3], [1, 4]], dtype=np.int64),
        boundary_nodes=np.array([2, 5], dtype=np.int64),
    )


def scatter(mesh, tri_mats=0.0, edge_mats=0.0):
    """The matrix of the element matrices over the triangles (nt, 3, 3) and
    the interface edges (ne, 4, 4), through assemble's scatter; a scalar is
    broadcast to every element."""
    nt, ne = mesh.num_triangles, len(mesh.interface_edges)
    weights = np.concatenate([
        np.broadcast_to(tri_mats, (nt, 3, 3)).ravel(),
        np.broadcast_to(edge_mats, (ne, 4, 4)).ravel(),
    ])
    return fem._scatter(mesh, weights)


def assemble_stiffness(mesh, tensor):
    return scatter(mesh, fem.stiffness_elements(mesh.grads, mesh.areas, tensor))


def assemble_mass(mesh):
    return scatter(mesh, mesh.areas[:, None, None] * fem._MASS_BASE)


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
        tensor = spec.tensor(cell_h01)
        p = np.array([0.7, -0.2])
        b = gradient_load(cell_h01, tensor, p)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(cell_h01.num_vertices)
        g = p1_gradient(cell_h01, v)
        direct = -np.einsum("t,tij,j,ti->", cell_h01.areas, tensor, p, g)
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


def dense_reference(mesh, spec):
    """The form's matrix summed densely with np.add.at from element matrices
    computed apart from assemble: einsum stiffness, P1 mass, edge jump."""
    tensor = spec.tensor(mesh)
    Ke = np.einsum("t,tid,tdj,tkj->tik", mesh.areas, mesh.grads, tensor, mesh.grads)
    Me = mesh.areas[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    edges = mesh.interface_edges
    Je = fem.jump_element_matrices(mesh.vertices, edges)
    K = np.zeros((mesh.num_vertices, mesh.num_vertices))
    for dofs, mats in ((mesh.triangles, Ke + spec.mass_weight * Me),
                       (edges, spec.jump_weight * Je)):
        k = dofs.shape[1]
        np.add.at(K, (np.repeat(dofs, k, axis=1), np.tile(dofs, (1, k))), mats.reshape(-1, k * k))
    return K


class TestPatternScatter:
    """assemble sums the element matrices into the mesh's stored pattern."""

    @pytest.fixture(scope="class")
    def meshes(self):
        cell = build_cell_mesh(SPEC, 0.1)
        return {
            "truncated_bernoulli": build_truncated_mesh(cell, BernoulliCellwiseMap(5), 2),
            "tiled_quarter": tile_domain_mesh(cell, BernoulliCellwiseMap(5), 0.25, SPEC),
            "square": build_square_mesh(12),
        }

    @pytest.mark.parametrize("name", ["truncated_bernoulli", "tiled_quarter", "square"])
    def test_matches_dense_add_at(self, meshes, name):
        mesh = meshes[name]
        spec = BilinearFormSpec(conductivity=aniso_field, jump_weight=3.0, mass_weight=0.02)
        K = assemble(mesh, spec).matrix
        ref = dense_reference(mesh, spec)
        assert np.abs(K.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()
        assert K.nnz == len(mesh.indices) and K.has_sorted_indices

    def test_pattern_holds_exactly_the_coupled_pairs(self, meshes):
        mesh = meshes["truncated_bernoulli"]
        ref = dense_reference(mesh, BilinearFormSpec(jump_weight=1.0, mass_weight=1.0))
        pattern = sp.csr_matrix((np.ones(len(mesh.indices)), mesh.indices, mesh.indptr))
        assert np.array_equal(pattern.toarray() != 0, ref != 0)

    @pytest.mark.parametrize("name", ["truncated_bernoulli", "square"])
    def test_sums_in_bincount_order(self, meshes, name):
        # the scatter's sums are np.bincount's, bit for bit
        mesh = meshes[name]
        weights = np.random.default_rng(2).standard_normal(len(mesh.slots))
        want = np.bincount(mesh.slots, weights=weights, minlength=len(mesh.indices))
        assert fem._scatter(mesh, weights).data.tobytes() == want.tobytes()


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
        A = BilinearFormSpec(conductivity=CONDUCTIVITY_PRESETS[name]).tensor(cell_h01)
        lower, upper = sym2_eigenvalues(A)
        eig = np.linalg.eigvalsh(A)
        assert np.abs(lower - eig[:, 0]).max() <= 1e-12
        assert np.abs(upper - eig[:, 1]).max() <= 1e-12


def add_at_load(mesh, contrib):
    """Reference scatter of per-triangle corner loads (nt, 3): one np.add.at
    pass per corner."""
    b = np.zeros(mesh.num_vertices)
    for i in range(3):
        np.add.at(b, mesh.triangles[:, i], contrib[:, i])
    return b


class TestLoadScatter:
    """The loads are bitwise a per-corner np.add.at of corner loads computed
    on the prototypes (areas, gradients, conductivity) and gathered per
    triangle."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return build_truncated_mesh(build_cell_mesh(SPEC, 0.1), BernoulliCellwiseMap(3), 4)

    @pytest.mark.parametrize(
        "f", [2.5, lambda pts: 1.0 + pts[:, 0] * pts[:, 1]], ids=["constant", "callable"]
    )
    def test_volume_load_bitwise(self, mesh, f):
        # a triangle's centroid is its prototype's moved by the lattice offset
        proto = mesh.prototypes[mesh.tri_prototype]
        shift = mesh.tri_cell - mesh.tri_cell[proto]
        cent = mesh.vertices[mesh.triangles[proto]].mean(axis=1) + shift
        fc = f(cent) if callable(f) else np.full(mesh.num_triangles, f)
        areas = mesh.proto_areas[mesh.tri_prototype]
        contrib = np.repeat((areas * fc / 3.0)[:, None], 3, axis=1)
        assert volume_load(mesh, f).tobytes() == add_at_load(mesh, contrib).tobytes()

    def test_gradient_load_bitwise(self, mesh):
        assert len(mesh.prototypes) < mesh.num_triangles
        tensor = BilinearFormSpec(conductivity=aniso_field).tensor(mesh)
        p = np.array([0.7, -0.2])
        Ap = np.einsum("tij,j->ti", tensor[mesh.prototypes], p)
        contrib = -np.einsum("t,ti,tji->tj", mesh.proto_areas, Ap, mesh.proto_grads)
        assert (gradient_load(mesh, tensor, p).tobytes()
                == add_at_load(mesh, contrib[mesh.tri_prototype]).tobytes())


def drifting(points):
    """A conductivity that is not periodic in the reference coordinate."""
    out = np.zeros((len(points), 2, 2))
    out[:, 0, 0] = out[:, 1, 1] = 1.0 + 0.4 * np.tanh(points[:, 0] / 8.0)
    return out


def per_triangle_reference(mesh, spec, f, p):
    """The form's matrix, the volume load of f and the gradient load of p,
    from the geometry and the conductivity of every triangle on its own."""
    areas, grads = triangle_geometry(mesh.vertices, mesh.triangles)
    tensor = spec.conductivity(triangle_centroids(mesh.ref_vertices, mesh.triangles))
    Ke = np.einsum("t,tid,tdj,tkj->tik", areas, grads, tensor, grads)
    Ke += spec.mass_weight * areas[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    edges = mesh.interface_edges
    Je = spec.jump_weight * fem.jump_element_matrices(mesh.vertices, edges)
    rows, cols, vals = [], [], []
    for dofs, mats in ((mesh.triangles, Ke), (edges, Je)):
        k = dofs.shape[1]
        rows.append(np.repeat(dofs, k, axis=1).ravel())
        cols.append(np.tile(dofs, (1, k)).ravel())
        vals.append(mats.ravel())
    n = mesh.num_vertices
    K = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), (n, n))
    fc = f(triangle_centroids(mesh.vertices, mesh.triangles))
    b_f = np.bincount(mesh.triangles.ravel(), weights=np.repeat(areas * fc / 3.0, 3), minlength=n)
    contrib = -np.einsum("t,tij,j,tkj->tk", areas, tensor, p, grads)
    b_p = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(), minlength=n)
    return K.tocsr(), b_f, b_p


class TestPerKindAssembly:
    """Element matrices and loads computed once per prototype match those of
    every triangle on its own."""

    @pytest.fixture(scope="class")
    def meshes(self):
        cell = build_cell_mesh(SPEC, 0.1)
        return {
            "truncated_bernoulli": build_truncated_mesh(cell, BernoulliCellwiseMap(5), 2),
            "truncated_bump": build_truncated_mesh(cell, BumpMap(0.2), 2),
            "truncated_identity": build_truncated_mesh(cell, IdentityMap(), 2),
            "tiled_cushion": tile_domain_mesh(cell, BernoulliCellwiseMap(5), 0.125, SPEC),
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
        g = gradient_load(system.mesh, system.tensor, p)
        assert np.abs(g - b_p).max() <= 1e-13 * np.abs(b_p).max()
        return system

    @pytest.mark.parametrize(
        "conductivity", [identity_field, aniso_field], ids=["identity", "aniso"]
    )
    @pytest.mark.parametrize(
        "name", ["truncated_bernoulli", "truncated_bump", "truncated_identity", "tiled_cushion"]
    )
    def test_matches_per_triangle(self, meshes, name, conductivity):
        mesh = meshes[name]
        kinds = len(np.unique(mesh.cell_kind))
        assert len(mesh.prototypes) == kinds * mesh.num_triangles // len(mesh.cells)
        assert kinds < len(mesh.cells)
        assert self.check(mesh, conductivity).mesh is mesh

    @pytest.mark.parametrize("m", [40, 128])
    @pytest.mark.parametrize(
        "conductivity", [identity_field, aniso_field], ids=["identity", "aniso"]
    )
    def test_square_grid_matches_per_triangle(self, m, conductivity):
        """The grid's cells are blocks of GRID_BLOCK squares, not unit cells:
        aniso_field does not repeat from block to block, so every block
        becomes its own kind."""
        mesh = build_square_mesh(m)
        assert len(mesh.prototypes) < mesh.num_triangles
        system = self.check(mesh, conductivity)
        assert (system.mesh is mesh) == (conductivity is identity_field)
        if conductivity is aniso_field:
            assert np.array_equal(system.mesh.cell_kind, np.arange(len(mesh.cells)))

    def test_not_periodic_makes_every_cell_its_own_kind(self, meshes):
        mesh = meshes["truncated_bernoulli"]
        system = self.check(mesh, drifting)
        assert np.array_equal(system.mesh.cell_kind, np.arange(len(mesh.cells)))
        assert np.array_equal(system.mesh.prototypes, np.arange(mesh.num_triangles))
        assert solve(system).iterations == 1


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


def corrector_systems(dmap, n=8, conductivity=identity_field, lam=1.0):
    """The e1 and e2 corrector systems on the truncated cube of half-width n,
    h=0.05 (jump weight 1, delta = 1e-3), as `solve_truncated` builds them."""
    mesh = build_truncated_mesh(build_cell_mesh(SPEC, 0.05), dmap, n)
    form = BilinearFormSpec(conductivity=conductivity, jump_weight=1.0, mass_weight=1e-3, lam=lam)
    system = assemble(mesh, form)
    return [
        replace(system, load=system.load + gradient_load(system.mesh, system.tensor, p))
        for p in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ]


@pytest.fixture(scope="module")
def bernoulli_systems():
    return corrector_systems(BernoulliCellwiseMap(0))


def assert_matches_jacobi(system):
    """The solve matches Jacobi-CG, stops within 3 iterations and records a
    true relative residual within CG_RTOL."""
    sol = solve(system)
    ref, jacobi_iterations = jacobi_cg(system)
    assert np.abs(sol.values - ref).max() <= 1e-8 * np.abs(ref).max()
    assert 1 <= sol.iterations <= 3
    assert sol.residual <= CG_RTOL
    return sol.iterations, jacobi_iterations


class TestTwoLevelCG:
    """The two-level solve (cell interiors condensed per kind, the skeleton
    factored) against plain Jacobi-CG and a direct solve."""

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
        assert 1 <= sol.iterations <= 3 and sol.residual <= CG_RTOL

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
        on_skeleton[mesh.skeleton] = True
        assert 0 < len(mesh.skeleton) < mesh.num_vertices
        # each free dof is on the skeleton or interior to exactly one cell
        inside = (table >= 0) & ~on_skeleton[np.maximum(table, 0)]
        count = np.bincount(table[inside], minlength=mesh.num_vertices)
        free = system.free
        assert count.max() == 1
        assert np.all(on_skeleton[free] ^ (count[free] == 1))
        # every triangle of an interior node lies in that node's cell
        owner = np.full(mesh.num_vertices, -1)
        owner[table[inside]] = np.nonzero(inside)[0]
        tri_owner = owner[mesh.triangles]
        tri_cell = np.broadcast_to(mesh.tri_cell_index[:, None], tri_owner.shape)
        corner = tri_owner >= 0
        assert np.array_equal(tri_owner[corner], tri_cell[corner])

    def test_schur_pattern_once_per_template(self):
        # built with the template, before any solve, and shared by its
        # realizations and their cellwise copies
        meshing._template.cache_clear()
        cell = build_cell_mesh(SPEC, 0.1)
        template = meshing.truncated_template(cell, 2).mesh
        pattern = template.schur
        assert template.memo == {}
        assert all(a.dtype == np.int32 for a in pattern.values())
        meshes = [build_truncated_mesh(cell, BernoulliCellwiseMap(seed), 2) for seed in (0, 1)]
        assert not np.array_equal(meshes[0].cell_kind, meshes[1].cell_kind)
        assert all(mesh.schur is pattern for mesh in (*meshes, meshes[0].cellwise()))
        form = BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)
        for mesh in meshes:
            assert solve(assemble(mesh, form, p=[1.0, 0.0])).iterations == 1
        assert template.memo and all(key[0] == "periodic" for key in template.memo)
        nodes = pattern["nodes"]
        assert len(nodes) and not np.isin(nodes, template.boundary_nodes).any()
        off = np.setdiff1d(np.arange(template.num_vertices), template.boundary_nodes)
        assert np.array_equal(template.free_nodes, off)
        assert np.array_equal(nodes, np.setdiff1d(template.skeleton, template.boundary_nodes))

    SCHUR_CASES = {
        "bernoulli": (lambda cell: build_truncated_mesh(cell, BernoulliCellwiseMap(0), 2),
                      BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3)),
        "cushions": (lambda cell: tile_domain_mesh(cell, BernoulliCellwiseMap(3), 0.25, SPEC),
                     hetero_form(0.25)),
        "grid": (lambda cell: build_square_mesh(20), BilinearFormSpec()),
    }

    @pytest.mark.parametrize("cellwise", [False, True], ids=["assembled", "cellwise"])
    @pytest.mark.parametrize("case", sorted(SCHUR_CASES))
    def test_schur_complement(self, cell_h01, monkeypatch, case, cellwise):
        # the S the set-up factors is K_BB - K_BI K_II^-1 K_IB on the free
        # skeleton dofs B, I the other free dofs
        build, form = self.SCHUR_CASES[case]
        system = assemble(build(cell_h01), form)
        if case == "cushions":  # cells with and without membranes, bumped or not
            assert set(system.mesh.cell_kind) == {0, 1, 2, 3}
        mesh = system.mesh.cellwise() if cellwise else system.mesh
        factored, factor = [], fem._factor
        monkeypatch.setattr(fem, "_factor", lambda A: factored.append(A) or factor(A))
        fem._Condensed(system.matrix, mesh)
        S = factored[-1].toarray()  # S is factored last
        B = mesh.schur["nodes"]
        I = np.setdiff1d(mesh.free_nodes, B)
        K = system.matrix.toarray()
        ref = K[np.ix_(B, B)] - K[np.ix_(B, I)] @ np.linalg.solve(K[np.ix_(I, I)], K[np.ix_(I, B)])
        assert 0 < len(B) < len(mesh.free_nodes)
        assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_folded_periodic_cell_has_empty_schur_complement(self, monkeypatch):
        factored, factor = [], fem._factor
        monkeypatch.setattr(fem, "_factor", lambda A: factored.append(A) or factor(A))
        periodic_cell_solve([1.0, 0.0], SPEC, h=0.1)
        interior, S = factored  # the one cell's interior, then S
        assert S.shape == (0, 0) and interior.shape[0] > 0

    def test_conductivity_not_periodic(self):
        # kinds assume a conductivity periodic in the reference coordinate;
        # without it the solve is still right or fails loudly
        def drifting(points):
            out = np.zeros((len(points), 2, 2))
            out[:, 0, 0] = out[:, 1, 1] = 1.0 + 0.4 * np.tanh(points[:, 0] / 8.0)
            return out

        system = corrector_systems(BernoulliCellwiseMap(0), n=2, conductivity=drifting, lam=0.5)[0]
        ref = splu_values(system)
        try:
            sol = solve(system)
        except SolverDivergence:
            return
        assert np.abs(sol.values - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_iterations_counted(self, cell_h01, monkeypatch):
        system = assemble(cell_h01, BilinearFormSpec(jump_weight=1.0), f=1.0)
        seen = []
        real_cg = fem.spla.cg

        def traced_cg(*args, callback, **kwargs):
            def both(xk):
                seen.append(xk)
                callback(xk)
            return real_cg(*args, callback=both, **kwargs)

        monkeypatch.setattr(fem.spla, "cg", traced_cg)
        sol = solve(system)
        assert sol.iterations == len(seen) > 0


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
        areas = cell_h01.areas
        a_plus = areas[cell_h01.tri_region == 1].sum()
        a_minus = areas[cell_h01.tri_region == -1].sum()
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
        for tri, reg in zip(cell_h01.triangles, cell_h01.tri_region):
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
        tensor = spec.tensor(cell_h01)
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
        tensor = BilinearFormSpec().tensor(cell_h01)
        psi = np.column_stack([np.ones(cell_h01.num_triangles), np.zeros(cell_h01.num_triangles)])
        val = flux_pairing(sol, tensor, [psi])[0]
        assert val == 0.0

    def test_unit_gradient_unit_domain(self):
        mesh = build_square_mesh(8)
        sol = fem.FemSolution(values=mesh.vertices[:, 0].copy(), mesh=mesh)
        psi = np.column_stack([np.ones(mesh.num_triangles), np.zeros(mesh.num_triangles)])
        assert abs(flux_pairing(sol, BilinearFormSpec().tensor(mesh), [psi])[0] - 1.0) < 1e-12

    def test_linear_test_field_exact(self, cell_h01):
        # u = x1, psi = (x2, x1): integrand is linear, centroid rule exact
        sol = fem.FemSolution(values=cell_h01.vertices[:, 0].copy(), mesh=cell_h01)
        psi = cell_h01.centroids[:, ::-1]
        tensor = BilinearFormSpec().tensor(cell_h01)
        assert abs(flux_pairing(sol, tensor, [psi])[0] - 0.5) < 1e-12
