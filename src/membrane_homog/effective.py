"""Effective tensor A0, volume statistics rho and theta, and the ellipticity
checks that certify the homogenized coefficients.

A0 is assembled from Monte-Carlo averages of corrector window fluxes per unit
reference cell, divided by the mean deformed cell volume rho.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corrector import CorrectorConfig, energy_profile, solve_truncated
from .errors import EllipticityViolation, InsufficientSamples
from .fem import BilinearFormSpec, identity_field
from .geometry import CENTER, DeformationMap, InterfaceSpec, jacobian_det


@dataclass
class EffectiveTensor:
    A0: np.ndarray
    stderr: np.ndarray
    N: int
    rho: float
    theta: float
    config_hash: str = ""


def _disk_quadrature(radius):
    """Tensor quadrature on the disk about CENTER: Gauss-Legendre radially, trapezoid
    (exact for periodic smooth integrands) angularly.  Returns points, weights."""
    n_rad, n_ang = 32, 256
    x, w = np.polynomial.legendre.leggauss(n_rad)
    rho = 0.5 * radius * (x + 1.0)
    wr = 0.5 * radius * w * rho  # includes the polar Jacobian
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    wt = np.full(n_ang, 2.0 * np.pi / n_ang)
    pts = np.asarray(CENTER) + np.stack(
        [
            np.outer(rho, np.cos(theta)),
            np.outer(rho, np.sin(theta)),
        ],
        axis=-1,
    ).reshape(-1, 2)
    return pts, np.outer(wr, wt).ravel()


def _square_quadrature():
    x, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    gx, gy = np.meshgrid(t, t, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts, np.outer(wt, wt).ravel()


def volume_stats(
    map_factory: Callable[[int], DeformationMap],
    seeds,
    spec: InterfaceSpec = None,
) -> dict:
    """rho = mean of int_Y det(grad Phi) and theta = mean of
    int_{Y-} det(grad Phi) / rho over the central cell, with standard errors."""
    if spec is None:
        spec = InterfaceSpec()
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    sq_pts, sq_w = _square_quadrature()
    dk_pts, dk_w = _disk_quadrature(spec.radius)
    cell_vols = []
    minus_vols = []
    for s in seeds:
        dmap = map_factory(s)
        cell_vols.append(float(jacobian_det(dmap.jacobian(sq_pts)) @ sq_w))
        minus_vols.append(float(jacobian_det(dmap.jacobian(dk_pts)) @ dk_w))
    cell_vols = np.array(cell_vols)
    minus_vols = np.array(minus_vols)
    rho = cell_vols.mean()
    theta = minus_vols.mean() / rho
    n = len(seeds)
    rho_se = cell_vols.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    theta_se = (minus_vols / rho).std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    return {"rho": rho, "theta": theta, "rho_stderr": float(rho_se), "theta_stderr": float(theta_se)}


@dataclass
class EffectiveRun:
    """One realization's sample, reduced where its correctors w_e1, w_e2 were
    solved.  ``energy`` is their window-energy form: xi . energy xi is the
    window energy of w_xi = xi_1 w_e1 + xi_2 w_e2.  ``profile`` is None
    unless the run was asked for it."""

    seed: int
    flux: np.ndarray  # (2, 2) window flux, one row per load e1, e2
    energy: np.ndarray  # (2, 2) symmetric
    profile: np.ndarray = None  # (n,) energy profile of w_e1


UNIT_LOADS = ([1.0, 0.0], [0.0, 1.0])  # e1, e2


def corrector_runs(
    map_factory: Callable[[int], DeformationMap],
    seeds,
    cfg: CorrectorConfig = None,
    conductivity=identity_field,
    profile: bool = False,
) -> list[EffectiveRun]:
    """The sample of each seed's realization, from its e1 and e2 correctors,
    both solved on its one mesh and matrix; with ``profile``, also the energy
    profile of w_e1, which reads every cell of the cube."""
    if cfg is None:
        cfg = CorrectorConfig()
    runs = []
    for s in seeds:
        sols = solve_truncated(cfg, map_factory(s), UNIT_LOADS, conductivity)
        runs.append(EffectiveRun(
            seed=s, flux=np.array([c.window_flux() for c in sols]),
            energy=np.array([c.window_energy for c in sols]),
            profile=energy_profile(sols[0]) if profile else None,
        ))
    return runs


def effective_tensor(
    runs: list[EffectiveRun], rho: float, config_hash: str = "", theta: float = float("nan")
) -> EffectiveTensor:
    """a0_ij = (1/rho) * mean over seeds of e_j . window flux for p = e_i."""
    if len(runs) < 2:
        raise InsufficientSamples(f"need >= 2 seeds for a standard error, got {len(runs)}")
    samples = np.array([run.flux for run in runs])  # (N, 2, 2), rows = directions
    # deviations from the first sample: N equal samples give that sample and 0
    dev = samples - samples[0]
    A0 = (samples[0] + dev.mean(axis=0)) / rho
    stderr = dev.std(axis=0, ddof=1) / (rho * np.sqrt(len(runs)))
    return EffectiveTensor(
        A0=A0, stderr=stderr, N=len(runs), rho=rho, theta=theta, config_hash=config_hash
    )


def student_t_quantile(p: float, nu: int) -> float:
    """The p-quantile, 1/2 < p < 1, of Student's t with an integer number nu
    >= 1 of degrees of freedom: the closed-form two-sided probability
    P(|T| <= t) of Abramowitz and Stegun 26.7.3 (nu odd) and 26.7.4 (nu
    even), in theta = arctan(t / sqrt(nu)), inverted by bisection on theta
    to the last bit."""
    target = 2.0 * p - 1.0

    def two_sided(theta: float) -> float:
        c2, s = math.cos(theta) ** 2, math.sin(theta)
        term = math.cos(theta) if nu % 2 else 1.0
        total = 0.0 if nu == 1 else term
        for k in range(nu % 2 + 1, nu - 1, 2):  # the powers c^k up to c^(nu - 2)
            term *= k / (k + 1) * c2
            total += term
        if nu % 2:
            return 2.0 / math.pi * (theta + s * total)
        return s * total

    lo, hi = 0.0, 0.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.sqrt(nu) * math.tan(mid)
        if two_sided(mid) < target:
            lo = mid
        else:
            hi = mid


def energy_identity_residual(runs: list[EffectiveRun], t: EffectiveTensor, xi) -> float:
    """|xi . A0 xi - (1/rho) E[xi . energy xi]|, the quadratic-form
    consistency between the flux average and the energy average: xi . energy
    xi is a realization's window energy of w_xi = xi_1 w_e1 + xi_2 w_e2.

    Flux and energy come from the same discrete corrector, so testing its
    regularized equation with w_xi itself shows that the two averages differ
    by delta times the window mean of w_xi**2 plus a window-boundary flux
    term, both over rho.  At n=8, m=4 that term is at roundoff level (about
    1e-12) for the identity map, so the residual is first order in delta and
    does not depend on the mesh size h; for the Bernoulli map it is 2e-6 to
    2e-5 and barely changes with delta.  It grows as the window nears the
    Dirichlet boundary (identity map, n=2, m=1: about 3e-6).
    """
    xi = np.asarray(xi, dtype=float)
    lhs = float(xi @ t.A0 @ xi)
    rhs = float(np.mean([xi @ run.energy @ xi for run in runs])) / t.rho
    return abs(lhs - rhs)


def ellipticity_check(t: EffectiveTensor, runs: list[EffectiveRun] = None) -> dict:
    """Eigenvalue bounds, symmetry within the Monte-Carlo and mesh error and the
    energy-identity residuals for the canonical test directions; raises
    EllipticityViolation on failure.  The bounds are positivity, not the
    conductivity's lam (the membranes can put A0 below it), and its Lam."""
    sym_gap = float(np.abs(t.A0 - t.A0.T).max())
    eig = np.linalg.eigvalsh(0.5 * (t.A0 + t.A0.T))
    se = float(t.stderr.max())
    verdict = {"eigenvalues": eig.tolist(), "symmetry_gap": sym_gap, "stderr_max": se}
    # the exact A0 is symmetric.  Its estimate keeps Monte-Carlo noise, gated at the
    # two-sided 1e-3 Student-t quantile (N-1 degrees of freedom), and a mesh asymmetry
    # gated at 1e-4 |A0|, far below the mesh error of A0; a deterministic map has only that
    skew_tol = student_t_quantile(1.0 - 5e-4, t.N - 1) * se + 1e-4 * float(np.abs(t.A0).max())
    if sym_gap > skew_tol:
        raise EllipticityViolation(f"skew part {sym_gap:.6g} of A0 exceeds {skew_tol:.6g}")
    if eig.min() <= 0.0:
        raise EllipticityViolation(f"nonpositive eigenvalue {eig.min():.6g}")
    if eig.max() > BilinearFormSpec.Lam + 3.0 * se:
        raise EllipticityViolation(
            f"max eigenvalue {eig.max():.6g} exceeds {BilinearFormSpec.Lam} + 3*stderr")
    if runs is not None:
        s = 1.0 / np.sqrt(2.0)
        residuals = {
            "e1": energy_identity_residual(runs, t, [1.0, 0.0]),
            "e2": energy_identity_residual(runs, t, [0.0, 1.0]),
            "diag": energy_identity_residual(runs, t, [s, s]),
        }
        verdict["energy_identity_residuals"] = residuals
    return verdict


def write_effective_json(path, t: EffectiveTensor) -> None:
    payload = {
        "A0": t.A0.tolist(),
        "stderr": t.stderr.tolist(),
        "rho": t.rho,
        "theta": t.theta,
        "N": t.N,
        "config_hash": t.config_hash,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_effective_json(path) -> EffectiveTensor:
    """The tensor of ``write_effective_json``.  Raises ValueError unless A0 and
    stderr are finite 2x2 arrays, N is an integer >= 2, rho > 0, 0 < theta < 1."""
    with open(path) as fh:
        d = json.load(fh)
    t = EffectiveTensor(
        A0=np.array(d["A0"]),
        stderr=np.array(d["stderr"]),
        N=d["N"],
        rho=d["rho"],
        theta=d["theta"],
        config_hash=d.get("config_hash", ""),
    )
    for name, a in (("A0", t.A0), ("stderr", t.stderr)):
        if a.shape != (2, 2) or not np.issubdtype(a.dtype, np.number) or not np.isfinite(a).all():
            raise ValueError(f"{name} is not a finite 2x2 array")
    if isinstance(t.N, bool) or not isinstance(t.N, int) or t.N < 2:
        raise ValueError(f"N is not an integer >= 2: {t.N!r}")
    if not (t.rho > 0.0 and 0.0 < t.theta < 1.0):
        raise ValueError(f"rho {t.rho!r} or theta {t.theta!r} out of range")
    return t
