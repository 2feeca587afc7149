import numpy as np
import pytest

import membrane_homog.geometry as geometry
from membrane_homog.geometry import (
    BernoulliCellwiseMap,
    BernoulliField,
    BumpMap,
    IdentityMap,
    InterfaceSpec,
)

from helpers import ShiftedField, ShiftedMap


def bump_reference(y, a=0.1, u=(1.0, 0.0)):
    """Independent re-implementation of the documented bump displacement."""
    y = np.asarray(y, dtype=float)
    k = np.floor(y)
    local = y - k
    s = np.hypot(local[0] - 0.5, local[1] - 0.5)
    rho = 2.0 * s
    psi = np.exp(-1.0 / (1.0 - rho**2)) if rho < 1.0 else 0.0
    u = np.asarray(u) / np.linalg.norm(u)
    return y + a * psi * u


class TestInterfaceSpec:
    def test_default_beta(self):
        spec = InterfaceSpec()
        assert spec.beta == pytest.approx(0.25)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            InterfaceSpec(radius=0.5)
        with pytest.raises(ValueError):
            InterfaceSpec(radius=-0.1)


class TestApplyPhi:
    def test_identity(self):
        assert np.allclose(IdentityMap().apply([0.3, 0.7]), [0.3, 0.7])

    def test_bernoulli_off_cell_is_identity(self):
        dmap = BernoulliCellwiseMap(seed=12345)
        # hunt for a cell whose bit is 0
        for kx in range(50):
            if dmap.field.bits(kx, 5) == 0:
                y = np.array([kx + 0.4, 5.9])
                assert np.allclose(dmap.apply(y), y)
                return
        pytest.fail("no zero bit found in 50 cells")

    def test_bump_center_matches_reference(self):
        dmap = BumpMap(amplitude=0.1)
        y = np.array([0.5, 0.5])
        expected = bump_reference(y)
        assert np.allclose(dmap.apply(y), expected, atol=1e-14)
        # psi(0) = exp(-1)
        assert dmap.apply(y)[0] == pytest.approx(0.5 + 0.1 * np.exp(-1.0))

    def test_bump_matches_reference_at_random_points(self):
        dmap = BumpMap(amplitude=0.1)
        rng = np.random.default_rng(7)
        for y in rng.uniform(-3, 3, size=(50, 2)):
            assert np.allclose(dmap.apply(y), bump_reference(y), atol=1e-14)


class TestJacobianPhi:
    def test_identity(self):
        assert np.allclose(IdentityMap().jacobian([0.2, 0.9]), np.eye(2))

    @pytest.mark.parametrize("point", [(0.5, 0.5), (0.3, 0.6), (0.71, 0.44)])
    def test_bump_matches_finite_differences(self, point):
        dmap = BumpMap(amplitude=0.1)
        y = np.array(point)
        step = 1e-6
        J_fd = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            J_fd[:, j] = (dmap.apply(y + e) - dmap.apply(y - e)) / (2 * step)
        assert np.abs(dmap.jacobian(y)[0] - J_fd).max() < 1e-6

    def test_identity_on_cell_boundary(self):
        dmap = BumpMap(amplitude=0.1)
        for y in [(0.0, 0.3), (1.0, 0.7), (2.0, 5.0), (0.4, 0.0)]:
            assert np.allclose(dmap.jacobian(np.array(y)), np.eye(2), atol=1e-12)
            assert np.allclose(dmap.apply(np.array(y)), y, atol=1e-15)

    def test_det_bound_for_shipped_amplitude(self):
        dmap = BumpMap(amplitude=0.1)
        assert dmap.min_jacobian_det() >= 0.5

    def test_fd_agreement_on_grid(self):
        dmap = BumpMap(amplitude=0.1)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(100, 2))
        step = 1e-6
        J = dmap.jacobian(pts)
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            col = (dmap.apply(pts + e) - dmap.apply(pts - e)) / (2 * step)
            assert np.abs(J[:, :, j] - col).max() < 1e-6


class TestBernoulliField:
    def test_deterministic_and_order_independent(self):
        f = BernoulliField(42)
        vals = [f.bits(i, j) for i in range(5) for j in range(5)]
        vals_rev = [f.bits(i, j) for i in reversed(range(5)) for j in reversed(range(5))]
        assert vals == list(reversed(vals_rev))

    def test_mean_tends_to_half(self):
        f = BernoulliField(2024)
        k = np.arange(-100, 100)
        kx, ky = np.meshgrid(k, k)
        mean = f.bits(kx.ravel(), ky.ravel()).mean()
        assert abs(mean - 0.5) < 0.01

    def test_shift_action(self):
        f = BernoulliField(7)
        g = ShiftedField(f.seed, (3, -2))
        assert g.bits(0, 0) == f.bits(3, -2)
        assert g.bits(10, 4) == f.bits(13, 2)


class TestStationarity:
    def test_shift_equivariance(self):
        dmap = BernoulliCellwiseMap(seed=5150)
        rng = np.random.default_rng(8)
        for _ in range(100):
            y = rng.uniform(0, 1, size=2)
            k = rng.integers(-10, 10, size=2)
            shifted = ShiftedMap(dmap.seed, dmap.amplitude, k)
            lhs = dmap.apply(y + k) - k
            rhs = shifted.apply(y)
            # equality up to one rounding of y + k (the shift itself is exact)
            assert np.abs(lhs - rhs).max() < 1e-14


class ReferenceBumpMap:
    """The bump map as two separate classes wrote it: every cell bumped,
    displacement added to the points and the identity to its Jacobian."""

    def __init__(self, amplitude=0.1, direction=(1.0, 0.0)):
        self.amplitude = float(amplitude)
        u = np.asarray(direction, dtype=float)
        self.direction = u / np.linalg.norm(u)

    def _displacement(self, local):
        s = np.linalg.norm(local - 0.5, axis=-1)
        return self.amplitude * geometry._bump_psi(2.0 * s)[..., None] * self.direction

    def _displacement_jacobian(self, local):
        d = local - 0.5
        s = np.linalg.norm(d, axis=-1)
        safe = np.where(s > 0.0, s, 1.0)
        g = 2.0 * geometry._bump_psi_prime(2.0 * s)[..., None] * d / safe[..., None]
        return self.amplitude * self.direction[None, :, None] * g[:, None, :]

    def apply(self, y):
        y = np.asarray(y, dtype=float)
        pts = np.atleast_2d(y).astype(float)
        k = np.floor(pts)
        out = pts + self._displacement(pts - k)
        return out[0] if y.ndim == 1 else out

    def jacobian(self, y):
        pts = np.atleast_2d(np.asarray(y, dtype=float))
        k = np.floor(pts)
        J = self._displacement_jacobian(pts - k)
        J[:, 0, 0] += 1.0
        J[:, 1, 1] += 1.0
        return J


class ReferenceBernoulliMap:
    """The Bernoulli map as it was written beside the bump map: the inner
    bump's displacement added on the cells whose bit is 1."""

    def __init__(self, seed, amplitude=0.1):
        self.field = BernoulliField(int(seed))
        self._bump = ReferenceBumpMap(amplitude)

    def _on(self, k):
        return self.field.bits(k[:, 0].astype(np.int64), k[:, 1].astype(np.int64)) == 1

    def apply(self, y):
        y = np.asarray(y, dtype=float)
        pts = np.atleast_2d(y).astype(float)
        k = np.floor(pts)
        on = self._on(k)
        out = pts.copy()
        out[on] += self._bump._displacement(pts[on] - k[on])
        return out[0] if y.ndim == 1 else out

    def jacobian(self, y):
        pts = np.atleast_2d(np.asarray(y, dtype=float))
        k = np.floor(pts)
        on = self._on(k)
        J = np.zeros((len(pts), 2, 2))
        J[:, 0, 0] = J[:, 1, 1] = 1.0
        J[on] += self._bump._displacement_jacobian(pts[on] - k[on])
        return J


class TestOneCellwiseBump:
    """BumpMap and BernoulliCellwiseMap share one apply and one jacobian and
    give the values of their separate implementations."""

    MAPS = [
        (lambda: BumpMap(0.1), lambda: ReferenceBumpMap(0.1)),
        (lambda: BumpMap(0.3), lambda: ReferenceBumpMap(0.3)),
        (lambda: BernoulliCellwiseMap(3, 0.1), lambda: ReferenceBernoulliMap(3, 0.1)),
        (lambda: BernoulliCellwiseMap(11, 0.3), lambda: ReferenceBernoulliMap(11, 0.3)),
    ]

    @pytest.mark.parametrize("make, make_ref", MAPS, ids=["bump", "bump03", "bern3", "bern11"])
    def test_matches_separate_classes(self, make, make_ref):
        dmap, ref = make(), make_ref()
        pts = np.random.default_rng(5).uniform(-4.0, 4.0, size=(2000, 2))
        pts[:20] = np.floor(pts[:20]) + 0.5  # cell centers, where the bump gradient is 0/0
        assert np.array_equal(dmap.apply(pts), ref.apply(pts))
        assert np.array_equal(dmap.jacobian(pts), ref.jacobian(pts))
        for y in pts[20:40]:
            assert dmap.apply(y).shape == (2,)
            assert np.array_equal(dmap.apply(y), ref.apply(y))
            assert np.array_equal(dmap.jacobian(y), ref.jacobian(y))

    def test_bernoulli_defines_only_its_mask(self):
        assert "apply" not in vars(BernoulliCellwiseMap)
        assert "jacobian" not in vars(BernoulliCellwiseMap)

    def test_bumped_cells(self):
        cells = np.array([[kx, ky] for kx in range(-3, 3) for ky in range(-3, 3)])
        assert not IdentityMap().bumped(cells).any()
        assert BumpMap(0.1).bumped(cells).all()
        bits = BernoulliField(3).bits(cells[:, 0], cells[:, 1])
        assert np.array_equal(BernoulliCellwiseMap(3).bumped(cells), bits == 1)
        # the map is the identity exactly on the cells it does not bump
        centers = cells + 0.5
        moved = np.any(BernoulliCellwiseMap(3).apply(centers) != centers, axis=1)
        assert np.array_equal(moved, bits == 1)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_folding_amplitude_raises_whatever_cell_zero_carries(self, bit):
        # min det(grad Phi) is 0.042 at amplitude 0.6 and negative at 0.8
        seed = next(s for s in range(100) if BernoulliField(s).bits(0, 0) == bit)
        assert BernoulliCellwiseMap(seed, amplitude=0.6).min_jacobian_det() > 0.0
        with pytest.raises(ValueError, match="folds"):
            BernoulliCellwiseMap(seed, amplitude=0.8)
        with pytest.raises(ValueError, match="folds"):
            BumpMap(amplitude=0.8)

    def test_fold_check_once_per_amplitude(self, monkeypatch):
        """The fold check samples the Jacobian once per amplitude, for every
        map class that keeps the bump's displacement; a folding amplitude
        raises at every construction."""
        calls = []
        real = BumpMap._unit_displacement_jacobian.__func__

        def counted(cls, local):
            calls.append((cls, len(local)))
            return real(cls, local)

        monkeypatch.setattr(BumpMap, "_unit_displacement_jacobian", classmethod(counted))
        BumpMap._min_jacobian_det.cache_clear()
        for seed in range(3):
            BumpMap(amplitude=0.1)
            BernoulliCellwiseMap(seed, amplitude=0.1)
        assert calls == [(BumpMap, 40000)]
        for _ in range(2):
            with pytest.raises(ValueError, match="folds"):
                BumpMap(amplitude=0.8)
            with pytest.raises(ValueError, match="folds"):
                BernoulliCellwiseMap(0, amplitude=0.8)
        assert len(calls) == 2
