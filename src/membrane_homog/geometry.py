"""Unit-cell geometry and the family of cellwise deformation maps.

The reference cell is Y = [0,1)^2 with a circular interface Gamma_0 about its
center, strictly inside it.  Deformation maps fix every cell boundary, so the
integer lattice of cells is preserved and cells can be deformed independently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

CENTER = (0.5, 0.5)  # of the unit cell: the interface circle's and the bump's


@dataclass(frozen=True)
class InterfaceSpec:
    """Circular interface about CENTER; beta is its margin to the cell boundary."""

    radius: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.radius < 0.5:
            raise ValueError(f"radius must be in (0, 0.5), got {self.radius}")

    @property
    def beta(self) -> float:
        """Distance from the interface to the cell boundary."""
        return 0.5 - self.radius


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Finalizer of the splitmix64 generator; uint64 in, uint64 out."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x = (x * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
        x ^= x >> np.uint64(27)
        x = (x * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
        x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class BernoulliField:
    """I.i.d. Bernoulli(1/2) bits indexed by cell, from a counter-based hash.

    Bits depend only on (seed, cell index), so evaluation order is irrelevant.
    """

    seed: int

    def bits(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        kx, ky = np.asarray(kx, dtype=np.int64), np.asarray(ky, dtype=np.int64)
        h = _splitmix64(np.uint64(self.seed) ^ _splitmix64(kx.astype(np.uint64)))
        h = _splitmix64(h ^ _splitmix64(~ky.astype(np.uint64)))
        return (h >> np.uint64(63)).astype(np.int64)


def _bump_psi(rho: np.ndarray) -> np.ndarray:
    """Standard mollifier profile exp(-1/(1-rho^2)) for rho < 1, else 0."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho < 1.0
    r2 = rho[inside] ** 2
    out[inside] = np.exp(-1.0 / (1.0 - r2))
    return out


def _bump_psi_prime(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho < 1.0
    r = rho[inside]
    out[inside] = np.exp(-1.0 / (1.0 - r**2)) * (-2.0 * r / (1.0 - r**2) ** 2)
    return out


class DeformationMap:
    """Base class: an orientation-preserving diffeomorphism fixing cell boundaries.

    ``bumped`` flags the cells the map deforms; the base map bumps none.
    The contract a tiling relies on: ``apply`` keeps every cell it does not
    flag as is, carries one and the same deformation on every flagged cell,
    and fixes every cell boundary.  A realization therefore applies the map
    to one cell of each kind only and moves it to the kind's other cells by
    their lattice offset (``meshing._Tiling.realize``); only a moved boundary
    node of those cells is detected (``StitchFailure``), not a ``bumped``
    that disagrees with ``apply``; the tests check every map class here
    against ``apply``, node by node.
    """

    def bumped(self, k: np.ndarray) -> np.ndarray:
        """Mask of the cells ``k`` (rows (kx, ky)) that the map deforms."""
        return np.zeros(len(k), dtype=bool)

    def apply(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityMap(DeformationMap):
    def apply(self, y):
        return np.asarray(y, dtype=float).copy()

    def jacobian(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        J = np.zeros((len(y), 2, 2))
        J[:, 0, 0] = J[:, 1, 1] = 1.0
        return J


class ScalingMap(DeformationMap):
    """Uniform scaling Phi(y) = s*y.  It does not fix cell boundaries, so it
    cannot tile; ``verify`` uses it for its known surface factor s."""

    def __init__(self, s: float):
        self.s = float(s)

    def apply(self, y):
        return self.s * np.asarray(y, dtype=float)

    def jacobian(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        J = np.zeros((len(y), 2, 2))
        J[:, 0, 0] = J[:, 1, 1] = self.s
        return J


class BumpMap(DeformationMap):
    """Cellwise bump: each cell k that carries it (``bumped``; here every
    cell) is deformed by the same compactly supported displacement
    a * psi(2|y - c|) * e1 with c the cell's CENTER, the others keep the identity."""

    DIRECTION = np.array([1.0, 0.0])  # e1

    def __init__(self, amplitude: float = 0.1):
        self.amplitude = float(amplitude)
        if self.min_jacobian_det() <= 0.0:
            raise ValueError(f"bump amplitude {amplitude} folds the map (det <= 0)")

    def bumped(self, k: np.ndarray) -> np.ndarray:
        return np.ones(len(k), dtype=bool)

    def _displacement(self, local: np.ndarray) -> np.ndarray:
        d = local - CENTER
        s = np.linalg.norm(d, axis=-1)
        return self.amplitude * _bump_psi(2.0 * s)[..., None] * self.DIRECTION

    @classmethod
    def _unit_displacement_jacobian(cls, local: np.ndarray) -> np.ndarray:
        # grad eta / a = e1 (x) grad psi(2|y-c|);  grad psi(2s) = 2 psi'(2s) (y-c)/s
        d = local - CENTER
        s = np.linalg.norm(d, axis=-1)
        safe = np.where(s > 0.0, s, 1.0)
        g = 2.0 * _bump_psi_prime(2.0 * s)[..., None] * d / safe[..., None]
        return cls.DIRECTION[None, :, None] * g[:, None, :]

    def _displacement_jacobian(self, local: np.ndarray) -> np.ndarray:
        return self.amplitude * self._unit_displacement_jacobian(local)

    def min_jacobian_det(self) -> float:
        """min det(I + grad of the displacement) over a 200 x 200 grid of
        cell-centred points in the unit cell, whichever cells carry the bump;
        computed once per amplitude, since every subclass keeps this
        displacement."""
        return BumpMap._min_jacobian_det(self.amplitude)

    @staticmethod
    @functools.lru_cache(maxsize=16)
    def _min_jacobian_det(amplitude: float) -> float:
        t = (np.arange(200) + 0.5) / 200
        gx, gy = np.meshgrid(t, t)
        grad = BumpMap._unit_displacement_jacobian(np.column_stack([gx.ravel(), gy.ravel()]))
        return float(jacobian_det(np.eye(2) + amplitude * grad).min())

    def apply(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        pts = np.atleast_2d(y).astype(float)
        k = np.floor(pts)
        on = self.bumped(k)
        out = pts.copy()
        out[on] += self._displacement(pts[on] - k[on])
        return out[0] if single else out

    def jacobian(self, y):
        pts = np.atleast_2d(np.asarray(y, dtype=float))
        k = np.floor(pts)
        on = self.bumped(k)
        J = np.tile(np.eye(2), (len(pts), 1, 1))
        J[on] += self._displacement_jacobian(pts[on] - k[on])
        return J


class BernoulliCellwiseMap(BumpMap):
    """The bump on the cells whose Bernoulli field bit is 1, the identity on
    the others."""

    def __init__(self, seed: int, amplitude: float = 0.1):
        self.field = BernoulliField(int(seed))
        self.seed = int(seed)
        super().__init__(amplitude)

    def bumped(self, k: np.ndarray) -> np.ndarray:
        return self.field.bits(k[:, 0].astype(np.int64), k[:, 1].astype(np.int64)) == 1


def jacobian_det(J: np.ndarray) -> np.ndarray:
    """det of each 2x2 matrix of a stack (n, 2, 2) of Jacobians."""
    return J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
