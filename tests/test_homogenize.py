from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import membrane_homog.meshing as meshing
from membrane_homog.errors import DegenerateFit, MeshMismatch
from membrane_homog.fem import (
    BilinearFormSpec,
    aniso_field,
    assemble,
    norms,
    solve,
)
from membrane_homog.geometry import BernoulliCellwiseMap, IdentityMap, InterfaceSpec
from membrane_homog.homogenize import (
    CSV_HEADER,
    ErrorRow,
    HomogSolution,
    _test_field_values,
    bump_profile,
    constant_field,
    error_suite,
    grid_interpolate,
    hetero_form,
    homog_form,
    rate_fit,
    solve_hetero,
    solve_homog,
    write_convergence_csv,
)
from membrane_homog.meshing import MINUS, build_square_mesh

from helpers import flat_gradient, flat_runs, flat_triangles, form_tensor, skeleton

SPEC = InterfaceSpec()

# the test fields one at a time, each a function of the points (n, 2)
SCALAR_TEST_FIELDS = tuple(lambda p, i=i: _test_field_values(p)[0][i] for i in range(4))
VECTOR_TEST_FIELDS = tuple(lambda p, i=i: _test_field_values(p)[1][i] for i in range(3))


def grid_solution(values, m):
    """Grid values of u0 with placeholder A0 and pairings."""
    return HomogSolution(values=values, m=m, A0=np.eye(2), flux_pairings=np.zeros(3),
                         mass_pairings=np.zeros(4))


def fourier_center(modes=199):
    m = np.arange(1, modes + 1, 2)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    coef = 16.0 / (np.pi**4 * mm * nn * (mm**2 + nn**2))
    return float(np.sum(coef * np.sin(mm * np.pi * 0.5) * np.sin(nn * np.pi * 0.5)))


class TestSolveHetero:
    def test_zero_source(self):
        sol = solve_hetero(0.25, IdentityMap(), f=0.0, h_cell=0.1)
        assert np.abs(sol.values).max() == 0.0

    def test_half_eps_reduces_to_plain_laplace(self):
        """eps = 1/2 has no membranes, so the transmission solve must agree
        with a plain diffusion solve on the same mesh."""
        sol = solve_hetero(0.5, IdentityMap(), f=1.0, h_cell=0.1)
        plain = solve(assemble(sol.mesh, BilinearFormSpec(), f=1.0))
        assert np.abs(sol.values - plain.values).max() < 1e-10
        assert all(len(kind.links.interface) == 0 for kind in sol.mesh.kinds)

    def test_membrane_run_has_positive_jump(self):
        from membrane_homog.fem import norms

        sol = solve_hetero(0.125, IdentityMap(), f=1.0, h_cell=0.1)
        rec = norms(sol)
        assert rec["jump_L2_on_interface"] > 0.0
        assert np.isfinite(rec["grad_plus_L2"]) and rec["grad_plus_L2"] > 0.0
        assert np.isfinite(rec["grad_minus_L2"]) and rec["grad_minus_L2"] > 0.0


class TestSolveHomog:
    def test_identity_matches_fourier(self):
        sol = solve_homog(np.eye(2), f=1.0)
        mesh = build_square_mesh(sol.m)
        idx = int(np.argmin(np.abs(mesh.vertices - 0.5).sum(axis=1)))
        assert abs(sol.values[idx] - fourier_center()) < 1e-4

    def test_zero_source(self):
        sol = solve_homog(np.eye(2), f=0.0, m=16)
        assert np.abs(sol.values).max() == 0.0

    def test_scaling(self):
        a = solve_homog(np.eye(2), f=1.0, m=32)
        b = solve_homog(0.5 * np.eye(2), f=1.0, m=32)
        assert np.abs(b.values - 2.0 * a.values).max() < 1e-8

    def test_solves_with_symmetric_part(self):
        # a Monte-Carlo A0 is symmetric only within its standard error
        skew = solve_homog([[1.0, 2.0**-16], [-(2.0**-17), 1.2]], f=1.0, m=8)
        sym = solve_homog([[1.0, 2.0**-18], [2.0**-18, 1.2]], f=1.0, m=8)
        assert np.array_equal(skew.values, sym.values)

    @pytest.mark.parametrize(
        "m, kinds", [(2, 1), (3, 1), (10, 1), (17, 4), (20, 4), (32, 1), (128, 1)]
    )
    def test_block_solve_matches_splu(self, m, kinds):
        # grids that do not divide into blocks of GRID_BLOCK = 16 squares make
        # short blocks of their own kinds (at m = 17 three of them have no
        # interior); below 16 the one block's skeleton is all Dirichlet data
        A0 = np.array([[0.78, 0.01], [0.01, 0.77]])
        f = lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1]
        sol = solve_homog(A0, f, m=m)
        mesh = build_square_mesh(m)
        assert len(set(mesh.cell_kind)) == kinds
        if m < 16:
            assert np.isin(skeleton(mesh), mesh.boundary_nodes).all()
        system = assemble(mesh, homog_form(A0), f=f)
        free, K = system.free, system.matrix
        direct = np.zeros(len(system.load))
        direct[free] = spla.splu(K[free][:, free].tocsc()).solve(system.load[free])
        assert np.abs(sol.values - direct).max() <= 1e-10 * np.abs(direct).max()


class TestGridInterpolate:
    def test_exact_on_linear(self):
        mesh = build_square_mesh(8)
        sol = grid_solution(2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1], 8)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(200, 2))
        vals = grid_interpolate(sol, pts)
        assert np.abs(vals - (2.0 * pts[:, 0] - pts[:, 1])).max() < 1e-13

    def test_exact_at_nodes(self):
        mesh = build_square_mesh(4)
        rng = np.random.default_rng(2)
        sol = grid_solution(rng.standard_normal(mesh.num_vertices), 4)
        vals = grid_interpolate(sol, mesh.vertices)
        assert np.abs(vals - sol.values).max() < 1e-13

    def test_rejects_outside_points(self):
        mesh = build_square_mesh(4)
        sol = grid_solution(np.zeros(mesh.num_vertices), 4)
        with pytest.raises(MeshMismatch):
            grid_interpolate(sol, np.array([[1.5, 0.5]]))

    def test_rejects_values_of_another_grid(self):
        sol = grid_solution(np.zeros(build_square_mesh(4).num_vertices), 5)
        with pytest.raises(MeshMismatch):
            grid_interpolate(sol, np.array([[0.5, 0.5]]))


class TestErrorSuite:
    def test_injected_reference_gives_zero_residuals(self):
        u0 = solve_homog(np.eye(2), f=1.0, m=32)
        # u_eps is the same grid solve, carrying no tensor
        ue = solve(assemble(build_square_mesh(32), homog_form(np.eye(2)), f=1.0))
        row = error_suite(ue, u0, theta=0.0, eps=0.5, A0=np.eye(2))
        assert row.l2_error < 1e-14
        assert row.jump_l2 == 0.0
        assert np.abs(row.flux_residuals).max() < 1e-14
        assert np.abs(row.mass_residuals).max() < 1e-14

    def test_l2_errors_decrease_with_eps(self):
        A0 = 0.7725 * np.eye(2)
        u0 = solve_homog(A0, f=1.0)
        errs = []
        for eps in (0.25, 0.125):
            ue = solve_hetero(eps, IdentityMap(), f=1.0, h_cell=0.1)
            errs.append(error_suite(ue, u0, np.pi / 16, eps, A0).l2_error)
        assert errs[1] < errs[0]

    def test_membrane_free_configuration_converges(self):
        """Classical periodic homogenization regression: no membranes and
        identity geometry mean A0 = I, and the transmission machinery must
        reproduce plain convergence."""
        u0 = solve_homog(np.eye(2), f=1.0)
        errs = []
        for eps in (0.25, 0.125):
            ue = solve_hetero(
                eps, IdentityMap(), f=1.0, h_cell=0.1, membranes=False
            )
            errs.append(error_suite(ue, u0, np.pi / 16, eps, np.eye(2)).l2_error)
        assert errs[1] < errs[0]
        assert errs[0] < 5e-3  # pure discretization error, no membranes


    def test_equals_old_route(self):
        """Every field equals, bitwise, the row computed the old way: the
        heterogeneous tensor evaluated again, u0 paired on its grid mesh, and
        every sum over the flat list of triangles, run by run in the
        readers' order (``flat_runs``)."""
        eps, m, theta = 0.25, 32, 0.2
        A0 = np.array([[0.8, 0.01], [0.01, 0.77]])
        f = lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1]
        ue = solve_hetero(eps, BernoulliCellwiseMap(0), f, conductivity=aniso_field, h_cell=0.1)
        u0 = solve_homog(A0, f, m=m)
        row = error_suite(ue, u0, theta, eps, A0, seed=0, conductivity=aniso_field)

        grid = solve(assemble(build_square_mesh(m), homog_form(A0), f=f))
        assert np.array_equal(grid.values, u0.values)
        rec = norms(ue)

        def run_sums(sol, form, *terms):
            """Each of ``terms``, a function of one run's areas, MINUS mask,
            centroids, centroid values, gradients and fluxes, summed run by
            run over the flat list."""
            mesh, flat = sol.mesh, flat_triangles(sol.mesh)
            g = flat_gradient(mesh, sol.values, flat)
            flux = np.einsum("tij,tj->ti", form_tensor(form, mesh), g)
            total = np.zeros(len(terms))
            for at in flat_runs(mesh):
                at = at.ravel()
                tri = flat.triangles[at]
                run = (flat.areas[at], flat.region[at] == MINUS, mesh.vertices[tri].mean(axis=1),
                       sol.values[tri].mean(axis=1), g[at], flux[at])
                total += [term(*run) for term in terms]
            return total

        pair_flux = [lambda a, mi, c, u, g, fl, psi=psi: np.einsum("t,ti,ti->", a, fl, psi(c))
                     for psi in VECTOR_TEST_FIELDS]
        g2 = lambda g: np.einsum("td,td->t", g, g)
        ue_sums = run_sums(
            ue, hetero_form(eps, aniso_field),
            lambda a, mi, c, u, g, fl: np.sum(a * (u - grid_interpolate(u0, c)) ** 2),
            lambda a, mi, c, u, g, fl: np.sum(a[~mi] * g2(g)[~mi]),
            lambda a, mi, c, u, g, fl: np.sum(a[mi] * g2(g)[mi]),
            *pair_flux,
            *[lambda a, mi, c, u, g, fl, phi=phi: np.sum(a[mi] * u[mi] * phi(c)[mi])
              for phi in SCALAR_TEST_FIELDS])
        u0_sums = run_sums(
            grid, homog_form(A0), *pair_flux,
            *[lambda a, mi, c, u, g, fl, phi=phi: np.sum(a * u * phi(c)) for phi in SCALAR_TEST_FIELDS])
        l2, grad_plus, grad_minus = np.sqrt(ue_sums[:3])
        expected = ErrorRow(
            eps=eps, seed=0, l2_error=float(l2),
            jump_l2=rec["jump_L2_on_interface"],
            jump_over_sqrt_eps=rec["jump_L2_on_interface"] / np.sqrt(eps),
            flux_residuals=np.abs(ue_sums[3:6] - u0_sums[:3]),
            mass_residuals=np.abs(ue_sums[6:] - theta * u0_sums[3:]),
            grad_plus=float(grad_plus), grad_minus=float(grad_minus),
        )
        for fld in fields(ErrorRow):
            assert np.array_equal(getattr(row, fld.name), getattr(expected, fld.name)), fld.name
        assert np.isclose(row.grad_plus, rec["grad_plus_L2"], rtol=1e-13, atol=0.0)
        assert np.isclose(row.grad_minus, rec["grad_minus_L2"], rtol=1e-13, atol=0.0)

    def test_runs_of_triangles_sum_to_the_one_pass_row(self, monkeypatch):
        """Runs of one cell each move the row at rounding level only against
        the runs of many cells (see test_equals_old_route)."""
        eps, A0 = 0.125, np.array([[0.8, 0.01], [0.01, 0.77]])
        f = lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1]
        ue = solve_hetero(eps, BernoulliCellwiseMap(2), f, conductivity=aniso_field, h_cell=0.1)
        u0 = solve_homog(A0, f, m=32)
        assert max(len(list(ue.mesh.runs(kind))) for kind in ue.mesh.kinds) == 1
        whole = error_suite(ue, u0, 0.2, eps, A0)
        monkeypatch.setattr(meshing, "RUN", 97)
        assert all(len(list(ue.mesh.runs(kind))) == len(kind.cells) for kind in ue.mesh.kinds)
        runs = error_suite(ue, u0, 0.2, eps, A0)
        for fld in fields(ErrorRow):
            a, b = getattr(whole, fld.name), getattr(runs, fld.name)
            assert np.allclose(b, a, rtol=1e-12, atol=0.0), fld.name

    def test_conductivity_only_for_a_solution_without_tensor(self):
        u0 = solve_homog(np.eye(2), f=1.0, m=16)
        ue = solve_hetero(0.25, BernoulliCellwiseMap(0), f=1.0, conductivity=aniso_field,
                          h_cell=0.1)
        carried = error_suite(ue, u0, 0.2, 0.25, np.eye(2))
        bare = replace(ue, proto_tensor=None)
        evaluated = error_suite(bare, u0, 0.2, 0.25, np.eye(2), conductivity=aniso_field)
        assert np.array_equal(carried.flux_residuals, evaluated.flux_residuals)
        identity = error_suite(bare, u0, 0.2, 0.25, np.eye(2))
        assert not np.array_equal(identity.flux_residuals, evaluated.flux_residuals)

    def test_rejects_another_A0(self):
        u0 = solve_homog([[1.0, 2.0**-16], [-(2.0**-17), 1.2]], f=1.0, m=8)
        ue = solve_hetero(0.25, IdentityMap(), f=1.0, h_cell=0.1)
        error_suite(ue, u0, 0.2, 0.25, [[1.0, 2.0**-18], [2.0**-18, 1.2]])  # same symmetric part
        with pytest.raises(ValueError, match="A0"):
            error_suite(ue, u0, 0.2, 0.25, 0.9 * np.eye(2))


class TestRateFit:
    def test_linear_rate(self):
        eps = np.array([0.25, 0.125, 0.0625])
        slope, r2 = rate_fit(eps, 3.0 * eps)
        assert abs(slope - 1.0) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_half_rate(self):
        eps = np.array([0.25, 0.125, 0.0625])
        slope, _ = rate_fit(eps, np.sqrt(eps))
        assert abs(slope - 0.5) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.2, 2.0),
        st.floats(0.1, 10.0),
        st.integers(3, 8),
    )
    def test_recovers_arbitrary_power_law(self, slope, scale, npts):
        eps = 0.5 ** np.arange(1, npts + 1)
        fitted, r2 = rate_fit(eps, scale * eps**slope)
        assert abs(fitted - slope) < 1e-10
        assert abs(r2 - 1.0) < 1e-10

    def test_degenerate(self):
        with pytest.raises(DegenerateFit):
            rate_fit([0.25, 0.125, 0.0625], [1e-3, 1e-16, 1e-4])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            rate_fit([0.25, 0.125], [1.0, 0.5])


class TestTestFields:
    def test_bump_vanishes_on_boundary(self):
        pts = np.array([[0.0, 0.3], [1.0, 0.7], [0.5, 0.0], [0.2, 1.0]])
        assert np.abs(bump_profile(pts)).max() == 0.0

    def test_field_counts(self):
        assert len(SCALAR_TEST_FIELDS) == 4
        assert len(VECTOR_TEST_FIELDS) == 3

    def test_fields_bitwise_their_formulas(self):
        """The fields share one evaluation of the envelope and equal, bitwise,
        each formula evaluated on its own."""
        p = np.random.default_rng(4).uniform(size=(500, 2))
        b, x, y, zero = bump_profile(p), p[:, 0], p[:, 1], np.zeros(len(p))
        scalars = [bump_profile(p), bump_profile(p) * x, bump_profile(p) * y,
                   bump_profile(p) * x * y]
        vectors = [np.column_stack([b, zero]), np.column_stack([zero, b]),
                   np.column_stack([bump_profile(p) * y, bump_profile(p) * x])]
        for phi, want in zip(SCALAR_TEST_FIELDS + VECTOR_TEST_FIELDS, scalars + vectors):
            assert phi(p).tobytes() == want.tobytes()

    def test_constant_field_broadcast(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = constant_field(A)(np.zeros((7, 2)))
        assert out.shape == (7, 2, 2)
        assert np.array_equal(out[3], A)


class TestCsv:
    def make_row(self):
        return ErrorRow(
            eps=0.25, seed=3, l2_error=0.01, jump_l2=0.002,
            jump_over_sqrt_eps=0.004,
            flux_residuals=np.array([1e-5, 2e-5, 3e-5]),
            mass_residuals=np.array([1e-6, 2e-6, 3e-6, 4e-6]),
            grad_plus=0.19, grad_minus=0.008,
        )

    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "convergence.csv"
        write_convergence_csv(path, [self.make_row()])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))
        assert lines[1].startswith("3,0.25,")

    def test_rewrite_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_convergence_csv(p1, [self.make_row()])
        write_convergence_csv(p2, [self.make_row()])
        assert p1.read_bytes() == p2.read_bytes()
