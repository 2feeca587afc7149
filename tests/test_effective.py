import numpy as np
import pytest

from membrane_homog.corrector import (
    CorrectorConfig,
    solve_truncated,
    window_mask,
)
from membrane_homog.effective import (
    UNIT_LOADS,
    EffectiveRun,
    EffectiveTensor,
    corrector_runs,
    effective_tensor,
    ellipticity_check,
    energy_identity_residual,
    read_effective_json,
    student_t_quantile,
    volume_stats,
    write_effective_json,
)
from membrane_homog.errors import EllipticityViolation, InsufficientSamples
from membrane_homog.fem import (
    BilinearFormSpec,
    aniso_field,
    edge_jump_energy,
    identity_field,
)
from membrane_homog.geometry import BernoulliCellwiseMap, BumpMap, IdentityMap, InterfaceSpec

from helpers import flat_gradient, flat_interface, flat_triangles, form_tensor

SPEC = InterfaceSpec()
QUICK = CorrectorConfig(n=2, m=1, h=0.1, delta=1e-3)


def dense_disk_integral(dmap, center=(0.5, 0.5), radius=0.25, n_rad=1000, n_ang=1000):
    """Midpoint-rule oracle for int over the disk of det(grad Phi)."""
    rho = (np.arange(n_rad) + 0.5) * radius / n_rad
    ang = (np.arange(n_ang) + 0.5) * 2.0 * np.pi / n_ang
    pts = np.asarray(center) + np.stack(
        [np.outer(rho, np.cos(ang)), np.outer(rho, np.sin(ang))], axis=-1
    ).reshape(-1, 2)
    J = dmap.jacobian(pts)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    w = np.outer(rho, np.ones(n_ang)).ravel() * (radius / n_rad) * (2.0 * np.pi / n_ang)
    return float(det @ w)


class TestVolumeStats:
    def test_identity(self):
        vs = volume_stats(lambda s: IdentityMap(), [0])
        assert abs(vs["rho"] - 1.0) < 1e-9
        assert abs(vs["theta"] - np.pi / 16.0) < 1e-6

    def test_bump_against_dense_oracle(self):
        dmap = BumpMap()
        vs = volume_stats(lambda s: dmap, [0])
        oracle = dense_disk_integral(dmap)
        assert abs(vs["theta"] * vs["rho"] - oracle) < 1e-6
        # the full-cell integral is exactly 1: the map fixes the cell boundary
        assert abs(vs["rho"] - 1.0) < 1e-9

    def test_bernoulli_matches_mixture(self):
        vs = volume_stats(lambda s: BernoulliCellwiseMap(seed=s), range(64))
        v_id = volume_stats(lambda s: IdentityMap(), [0])
        v_bp = volume_stats(lambda s: BumpMap(), [0])
        mixture = 0.5 * (v_id["theta"] + v_bp["theta"])
        tol = max(3.0 * vs["theta_stderr"], 1e-9)
        assert abs(vs["theta"] - mixture) <= tol
        assert 0.0 < vs["theta"] < 1.0

    def test_requires_seed(self):
        with pytest.raises(ValueError):
            volume_stats(lambda s: IdentityMap(), [])


class TestEffectiveTensor:
    def test_no_membranes_identity(self):
        cfg = CorrectorConfig(n=2, m=1, h=0.1, delta=1e-3, membranes=False)
        runs = corrector_runs(lambda s: IdentityMap(), [0, 1], cfg)
        t = effective_tensor(runs, rho=1.0)
        assert np.abs(t.A0 - np.eye(2)).max() < 1e-6

    def test_membranes_reduce_conduction(self):
        runs = corrector_runs(lambda s: IdentityMap(), [0, 1], QUICK)
        t = effective_tensor(runs, rho=1.0)
        assert t.A0[0, 0] < 1.0
        assert abs(t.A0[0, 0] - t.A0[1, 1]) <= 1e-3
        assert abs(t.A0[0, 1]) <= 1e-3 and abs(t.A0[1, 0]) <= 1e-3

    def test_linearity_in_direction(self):
        e1, e2 = solve_truncated(QUICK, IdentityMap(), UNIT_LOADS)
        [combo] = solve_truncated(QUICK, IdentityMap(), [[1.0, 1.0]])
        expected = e1.window_flux() + e2.window_flux()
        assert np.abs(combo.window_flux() - expected).max() < 1e-6

    def test_second_load_on_shared_mesh_matches_single_solve(self):
        dmap = BernoulliCellwiseMap(seed=3)
        e1, e2 = solve_truncated(QUICK, dmap, UNIT_LOADS)
        [alone] = solve_truncated(QUICK, dmap, [[0.0, 1.0]])
        assert np.array_equal(e2.sol.values, alone.sol.values)
        assert np.array_equal(e2.window_flux(), alone.window_flux())
        assert np.array_equal(e2.cell_energy, alone.cell_energy)
        assert e1.mesh is e2.mesh

    def test_bernoulli_symmetry_within_stderr(self):
        runs = corrector_runs(lambda s: BernoulliCellwiseMap(seed=s), range(4), QUICK)
        t = effective_tensor(runs, rho=1.0)
        gap = abs(t.A0[0, 1] - t.A0[1, 0])
        assert gap <= 2.0 * (t.stderr[0, 1] + t.stderr[1, 0]) + 1e-9
        eig = np.linalg.eigvalsh(0.5 * (t.A0 + t.A0.T))
        assert eig.min() > 0.0
        assert eig.max() <= 1.5 + 3.0 * t.stderr.max()

    def test_equal_samples_give_the_sample_and_zero_stderr(self):
        # the plain mean of three copies of x is 1.1e-16 off x, their std 1.4e-16
        x = 0.726978671376387
        run = EffectiveRun(seed=0, flux=np.full((2, 2), x), energy=np.eye(2), profile=np.ones(2))
        rho = 0.97
        t = effective_tensor([run] * 3, rho=rho)
        assert np.array_equal(t.A0, np.full((2, 2), x) / rho)
        assert np.array_equal(t.stderr, np.zeros((2, 2)))

    def test_insufficient_samples(self):
        runs = corrector_runs(lambda s: IdentityMap(), [0], QUICK)
        with pytest.raises(InsufficientSamples):
            effective_tensor(runs, rho=1.0)

    def test_stderr_scales_like_inverse_sqrt_n(self):
        counts = (4, 16, 64)
        errs = []
        offset = 0
        for N in counts:
            runs = corrector_runs(
                lambda s: BernoulliCellwiseMap(seed=s), range(offset, offset + N), QUICK
            )
            errs.append(effective_tensor(runs, rho=1.0).stderr[0, 0])
            offset += N
        slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
        assert abs(slope + 0.5) < 0.25 * 0.5


def window_energy(corr, partner, form, xi, m) -> float:
    """Reference: window average per cell of int (xi + grad w_xi) . A (xi +
    grad w_xi) plus the interface jump energy, physical configuration, where
    w_xi is the linear combination xi_1 w_e1 + xi_2 w_e2, walked again on the
    mesh of the two solves, over the window Q_m."""
    xi = np.asarray(xi, dtype=float)
    mesh, flat = corr.mesh, flat_triangles(corr.mesh)
    values = xi[0] * corr.sol.values + xi[1] * partner.sol.values
    tensor = form_tensor(form, mesh)
    g = flat_gradient(mesh, values, flat) + xi
    e_tri = flat.areas * np.einsum("ti,tij,tj->t", g, tensor, g)
    interface = flat_interface(mesh)
    e_jump = form.jump_weight * edge_jump_energy(mesh.vertices, interface.edges, values)
    nc = len(mesh.cells)
    per_cell = (np.bincount(flat.cell, weights=e_tri, minlength=nc)
                + np.bincount(interface.edge_cell_index, weights=e_jump, minlength=nc))
    inside = window_mask(mesh.cells, m)
    return float(per_cell[inside].sum() / inside.sum())


class TestSample:
    @pytest.mark.parametrize(
        "dmap, conductivity, radius",
        [(IdentityMap(), identity_field, 0.25),
         (BernoulliCellwiseMap(seed=3), identity_field, 0.25),
         (BumpMap(amplitude=0.6), aniso_field, 0.4)],
        ids=["identity", "bernoulli", "bump_aniso"],
    )
    def test_energy_form_matches_window_energy(self, dmap, conductivity, radius):
        cfg = CorrectorConfig(n=2, m=1, h=0.1, delta=1e-3, interface=InterfaceSpec(radius=radius))
        run = corrector_runs(lambda s: dmap, [0], cfg, conductivity=conductivity)[0]
        e1, e2 = solve_truncated(cfg, dmap, UNIT_LOADS, conductivity)
        form = BilinearFormSpec(
            conductivity=conductivity,
            jump_weight=1.0, mass_weight=cfg.delta,
        )
        assert np.array_equal(run.energy, run.energy.T)
        assert np.array_equal(run.flux, np.array([e1.window_flux(), e2.window_flux()]))
        s = 1.0 / np.sqrt(2.0)
        for xi in ([1.0, 0.0], [0.0, 1.0], [s, s]):
            ref = window_energy(e1, e2, form, xi, cfg.m)
            assert abs(np.dot(xi, run.energy @ xi) - ref) <= 1e-12 * abs(ref)


class TestEllipticity:
    def test_no_membrane_eigenvalues(self):
        cfg = CorrectorConfig(n=2, m=1, h=0.1, delta=1e-3, membranes=False)
        runs = corrector_runs(lambda s: IdentityMap(), [0, 1], cfg)
        t = effective_tensor(runs, rho=1.0)
        verdict = ellipticity_check(t)
        assert np.abs(np.array(verdict["eigenvalues"]) - 1.0).max() < 1e-6

    def test_energy_identity_residual_small(self):
        runs = corrector_runs(lambda s: IdentityMap(), [0, 1], QUICK)
        t = effective_tensor(runs, rho=1.0)
        s = 1.0 / np.sqrt(2.0)
        for xi in ([1.0, 0.0], [0.0, 1.0], [s, s]):
            assert energy_identity_residual(runs, t, xi) <= 5e-3

    def test_energy_identity_residual_small_aniso(self):
        # the energy side must use the conductivity the correctors were solved with
        runs = corrector_runs(lambda s: IdentityMap(), [0, 1], QUICK, conductivity=aniso_field)
        t = effective_tensor(runs, rho=1.0)
        s = 1.0 / np.sqrt(2.0)
        for xi in ([1.0, 0.0], [0.0, 1.0], [s, s]):
            assert energy_identity_residual(runs, t, xi) <= 5e-3

    def test_rejects_skew_part_beyond_stderr(self):
        skew = EffectiveTensor(
            A0=np.array([[0.77, 1e-3], [-1e-3, 0.77]]),
            stderr=np.full((2, 2), 1e-5),
            N=4, rho=1.0, theta=0.2,
        )
        with pytest.raises(EllipticityViolation, match="skew"):
            ellipticity_check(skew)
        # a skew part within three standard errors passes
        skew.A0 = np.array([[0.77, 1e-5], [-1e-5, 0.77]])
        assert ellipticity_check(skew)["symmetry_gap"] == 2e-5

    def test_skew_gate_widens_for_few_seeds(self):
        # two seeds estimate the standard error from one degree of freedom; tiny
        # Bernoulli runs reach a skew part of 10 standard errors there
        t = EffectiveTensor(
            A0=np.array([[0.77, 1e-3], [-1e-3, 0.77]]), stderr=np.full((2, 2), 2e-4),
            N=2, rho=1.0, theta=0.2,
        )
        assert ellipticity_check(t)["symmetry_gap"] == 2e-3
        t.N = 16
        with pytest.raises(EllipticityViolation, match="skew"):
            ellipticity_check(t)

    def test_deterministic_map_skew_is_mesh_asymmetry(self):
        # the bump map gives identical realizations (stderr 0) whose A0 keeps
        # a skew part of about 1e-6 |A0| from the mesh at radius 0.4
        cfg = CorrectorConfig(n=2, m=1, h=0.1, delta=1e-3, interface=InterfaceSpec(radius=0.4))
        runs = corrector_runs(lambda s: BumpMap(amplitude=0.6), [0, 1], cfg, conductivity=aniso_field)
        t = effective_tensor(runs, rho=1.0)
        assert t.stderr.max() == 0.0 and 0.0 < np.abs(t.A0 - t.A0.T).max() < 1e-5
        ellipticity_check(t)
        t.A0[0, 1] += 1e-3
        with pytest.raises(EllipticityViolation, match="skew"):
            ellipticity_check(t)

    def test_rejects_non_spd(self):
        bad = EffectiveTensor(
            A0=np.array([[1.0, 2.0], [2.0, 1.0]]),
            stderr=np.zeros((2, 2)),
            N=2, rho=1.0, theta=0.2,
        )
        with pytest.raises(EllipticityViolation):
            ellipticity_check(bad)

    def test_rejects_too_large(self):
        bad = EffectiveTensor(
            A0=3.0 * np.eye(2), stderr=np.zeros((2, 2)), N=2, rho=1.0, theta=0.2
        )
        with pytest.raises(EllipticityViolation):
            ellipticity_check(bad)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        t = EffectiveTensor(
            A0=np.array([[0.77, 0.0], [0.0, 0.77]]),
            stderr=np.full((2, 2), 1e-4),
            N=16, rho=1.0, theta=float(np.pi / 16.0), config_hash="abc123",
        )
        path = tmp_path / "effective.json"
        write_effective_json(path, t)
        back = read_effective_json(path)
        assert np.array_equal(back.A0, t.A0)
        assert np.array_equal(back.stderr, t.stderr)
        assert back.N == 16
        assert back.rho == t.rho
        assert back.theta == t.theta
        assert back.config_hash == "abc123"

    def test_rewrite_is_byte_identical(self, tmp_path):
        t = EffectiveTensor(
            A0=np.eye(2), stderr=np.zeros((2, 2)), N=2, rho=1.0, theta=0.2
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_effective_json(p1, t)
        write_effective_json(p2, read_effective_json(p1))
        assert p1.read_bytes() == p2.read_bytes()


def test_student_t_quantile_matches_scipy():
    """The closed-form quantile of the skew gate against scipy's stdtrit."""
    from scipy.special import stdtrit

    for nu in range(1, 301):
        want = stdtrit(nu, 1.0 - 5e-4)
        assert abs(student_t_quantile(1.0 - 5e-4, nu) - want) <= 1e-12 * want, nu
