"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line with the measured quantities.  Run with `pytest -s` to see
the lines for passing criteria as well.
"""

import os
import time

import numpy as np
import pytest

from membrane_homog.cli import main
from membrane_homog.corrector import (
    CorrectorConfig,
    energy_profile,
    periodic_cell_solve,
    solve_truncated,
)
from membrane_homog.effective import (
    corrector_runs,
    effective_tensor,
    energy_identity_residual,
    volume_stats,
)
from membrane_homog.geometry import (
    BernoulliCellwiseMap,
    BumpMap,
    IdentityMap,
    InterfaceSpec,
    ScalingMap,
)
from membrane_homog.homogenize import error_suite, rate_fit, solve_hetero, solve_homog
from membrane_homog.verify import (
    backward_induction_bound,
    random_induction_instance,
    surface_integral_crosscheck,
)

from helpers import counted_forks

SPEC = InterfaceSpec()
EPS_SWEEP = (0.25, 0.125, 0.0625)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def variation(x):
    """Largest relative excursion from the mean."""
    x = np.asarray(x, dtype=float)
    return float(np.abs(x - x.mean()).max() / x.mean())


@pytest.fixture(scope="module")
def identity_scalar():
    """Truncated-solver effective scalar for the identity medium."""
    [corr] = solve_truncated(CorrectorConfig(), IdentityMap(), [[1.0, 0.0]])
    return float(corr.window_flux()[0])


@pytest.fixture(scope="module")
def identity_sweep(identity_scalar):
    """Identity-map epsilon sweep with f = 1 against the homogenized solve."""
    A0 = identity_scalar * np.eye(2)
    u0 = solve_homog(A0, f=1.0)
    t0 = time.time()
    rows = [
        error_suite(solve_hetero(eps, IdentityMap(), f=1.0), u0, np.pi / 16.0, eps, A0)
        for eps in EPS_SWEEP
    ]
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def bernoulli_effective():
    """N = 16 Bernoulli realizations through the full effective pipeline."""
    seeds = range(16)
    runs = corrector_runs(lambda s: BernoulliCellwiseMap(seed=s), seeds)
    vs = volume_stats(lambda s: BernoulliCellwiseMap(seed=s), seeds)
    t = effective_tensor(runs, rho=vs["rho"], theta=vs["theta"])
    return runs, vs, t


def test_criterion_01_periodic_consistency(identity_scalar):
    t0 = time.time()
    a = [
        periodic_cell_solve([1.0, 0.0], SPEC, h=h).window_flux()[0]
        for h in (0.05, 0.025, 0.0125)
    ]
    r = (a[2] - a[1]) / (a[1] - a[0])
    oracle = a[2] + (a[2] - a[1]) * r / (1.0 - r)
    rel = abs(identity_scalar - oracle) / abs(oracle)
    elapsed = time.time() - t0
    report(
        1, "periodic consistency",
        rel <= 0.02 and elapsed <= 300.0,
        f"truncated {identity_scalar:.6f} vs oracle {oracle:.6f}, "
        f"rel {rel:.3%}, {elapsed:.1f} s",
    )


def test_criterion_02_trivial_limit():
    cfg = CorrectorConfig(membranes=False)
    runs = corrector_runs(lambda s: IdentityMap(), [0, 1], cfg)
    t = effective_tensor(runs, rho=1.0)
    gap = float(np.abs(t.A0 - np.eye(2)).max())
    [zero] = solve_truncated(CorrectorConfig(), IdentityMap(), [[0.0, 0.0]])
    zmax = float(np.abs(zero.sol.values).max())
    report(
        2, "trivial limit",
        gap <= 1e-6 and zmax <= 1e-10,
        f"|A0 - I| = {gap:.2e}, |w_0| = {zmax:.2e}",
    )


def test_criterion_03_isotropy():
    f1 = periodic_cell_solve([1.0, 0.0], SPEC, h=0.05).window_flux()
    f2 = periodic_cell_solve([0.0, 1.0], SPEC, h=0.05).window_flux()
    diag_gap = abs(f1[0] - f2[1])
    off = max(abs(f1[1]), abs(f2[0]))
    report(
        3, "isotropy",
        diag_gap <= 1e-3 and off <= 1e-3,
        f"|a11 - a22| = {diag_gap:.2e}, |a12| = {off:.2e}",
    )


def test_criterion_04_ellipticity(bernoulli_effective):
    runs, vs, t = bernoulli_effective
    eig = np.linalg.eigvalsh(0.5 * (t.A0 + t.A0.T))
    se = float(t.stderr.max())
    eig_ok = eig.min() > 0.0 and eig.max() <= 1.5 + 3.0 * se

    id_runs = corrector_runs(lambda s: IdentityMap(), [0, 1])
    id_t = effective_tensor(id_runs, rho=1.0)
    s = 1.0 / np.sqrt(2.0)
    residuals = [
        max(
            energy_identity_residual(runs, t, xi),
            energy_identity_residual(id_runs, id_t, xi),
        )
        for xi in ([1.0, 0.0], [0.0, 1.0], [s, s])
    ]
    res_ok = max(residuals) <= 5e-3

    # Flux and energy of the Galerkin corrector come from the same discrete
    # field, so for the identity map the residual is the delta-mass term
    # delta * <w^2> over the window: it has no O(h) part and does not shrink
    # under mesh refinement.  Refine delta, the parameter it depends on, at
    # each mesh size.
    def identity_residual(h, delta):
        rh = corrector_runs(lambda s: IdentityMap(), [0, 1], CorrectorConfig(h=h, delta=delta))
        th = effective_tensor(rh, rho=1.0)
        return energy_identity_residual(rh, th, [1.0, 0.0])

    halving = {
        h: identity_residual(h, 1e-3) / identity_residual(h, 5e-4) for h in (0.1, 0.05)
    }
    halves_ok = all(2.0 * 0.7 <= ratio <= 2.0 * 1.3 for ratio in halving.values())

    report(
        4, "ellipticity and energy identity",
        eig_ok and res_ok and halves_ok,
        f"eigenvalues [{eig[0]:.4f}, {eig[1]:.4f}], max residual "
        f"{max(residuals):.2e}, delta=1e-3/delta=5e-4 residual ratio "
        + ", ".join(f"{ratio:.2f} at h={h}" for h, ratio in halving.items())
        + " (need 1.4..2.6)",
    )


def test_criterion_05_l2_convergence(identity_sweep, identity_scalar):
    rows, elapsed = identity_sweep
    errs = [r.l2_error for r in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    rate, _ = rate_fit(EPS_SWEEP, errs)

    t0 = time.time()
    A0 = identity_scalar * np.eye(2)
    u0 = solve_homog(A0, f=1.0)
    per_seed_ok = []
    for seed in range(4):
        dmap = BernoulliCellwiseMap(seed=seed)
        es = [
            error_suite(
                solve_hetero(eps, dmap, f=1.0), u0, np.pi / 16.0, eps, A0, seed=seed
            ).l2_error
            for eps in EPS_SWEEP
        ]
        per_seed_ok.append(all(b < a for a, b in zip(es, es[1:])))
    bern_elapsed = time.time() - t0
    report(
        5, "L2 convergence",
        decreasing and rate >= 0.5 and all(per_seed_ok)
        and elapsed + bern_elapsed <= 900.0,
        f"errors {['%.4f' % e for e in errs]}, rate {rate:.3f}, "
        f"Bernoulli per-seed decreasing {per_seed_ok}, "
        f"{elapsed + bern_elapsed:.0f} s",
    )


@pytest.fixture(scope="module")
def tilted_sweep(identity_scalar):
    """Sweep with the tilted source 1 + x1 + 2 x2: the pairing residuals of
    the symmetric f = 1 problem vanish identically by symmetry, so the decay
    criterion is checked on a source without that degeneracy."""
    def f(pts):
        return 1.0 + pts[:, 0] + 2.0 * pts[:, 1]

    A0 = identity_scalar * np.eye(2)
    u0 = solve_homog(A0, f)
    return [
        error_suite(solve_hetero(eps, IdentityMap(), f), u0, np.pi / 16.0, eps, A0)
        for eps in EPS_SWEEP
    ]


def test_criterion_06_pairing_decay(tilted_sweep):
    rows = tilted_sweep
    seqs = []
    for j in range(3):
        seqs.append([r.flux_residuals[j] for r in rows])
    for j in range(4):
        seqs.append([r.mass_residuals[j] for r in rows])
    ok = all(
        all(s[i + 1] <= s[i] * (1.10 if i == len(s) - 2 else 1.0) for i in range(len(s) - 1))
        for s in seqs
    )
    worst = max(s[-1] / s[0] for s in seqs)
    report(
        6, "pairing residual decay",
        ok,
        f"7 residual sequences decreasing, worst last/first ratio {worst:.2f}",
    )


def test_criterion_07_uniform_bounds(identity_sweep):
    rows, _ = identity_sweep
    energy = [r.grad_plus + r.grad_minus for r in rows]  # ||f||_L2 = 1 here
    jumps = [r.jump_over_sqrt_eps for r in rows]
    ve, vj = variation(energy), variation(jumps)
    report(
        7, "uniform energy bounds",
        ve < 0.5 and vj < 0.5,
        f"energy-ratio variation {ve:.1%}, jump/sqrt(eps) variation {vj:.1%}",
    )


def test_criterion_08_volume_fraction(bernoulli_effective):
    _, vs, _ = bernoulli_effective
    vid = volume_stats(lambda s: IdentityMap(), [0])
    id_gap = abs(vid["theta"] - np.pi / 16.0)
    oracle = 0.5 * (
        volume_stats(lambda s: IdentityMap(), [0])["theta"]
        + volume_stats(lambda s: BumpMap(), [0])["theta"]
    )
    tol = max(3.0 * vs["theta_stderr"], 1e-9)
    bern_gap = abs(vs["theta"] - oracle)
    in_range = 0.0 < vs["theta"] < 1.0 and 0.0 < vid["theta"] < 1.0
    report(
        8, "volume fractions",
        id_gap <= 1e-6 and bern_gap <= tol and in_range,
        f"identity |theta - pi/16| = {id_gap:.2e}, Bernoulli gap {bern_gap:.2e} "
        f"(tol {tol:.2e})",
    )


def test_criterion_09_energy_growth():
    ratios = []
    for n in (4, 8):
        cfg = CorrectorConfig(n=n, m=min(4, n - 1), h=0.1)
        [corr] = solve_truncated(cfg, IdentityMap(), [[1.0, 0.0]])
        E = energy_profile(corr)
        k = np.arange(1, n + 1)
        ratios.append(float(np.max(E / k**2)))
    factor = max(ratios) / min(ratios)

    rng = np.random.default_rng(11)
    for _ in range(1000):
        backward_induction_bound(random_induction_instance(rng))
    report(
        9, "energy growth",
        factor <= 2.0,
        f"max E_k/k^2 ratios {ratios[0]:.4f} vs {ratios[1]:.4f} "
        f"(factor {factor:.2f}); 1000 induction instances verified",
    )


def test_criterion_10_surface_integrals():
    diffs = {
        name: surface_integral_crosscheck(dmap, lambda p: np.ones(len(p)))["diff"]
        for name, dmap in (
            ("identity", IdentityMap()),
            ("scaling", ScalingMap(2.0)),
            ("bump", BumpMap()),
        )
    }
    worst = max(diffs.values())
    report(
        10, "surface integral cross-check",
        worst <= 1e-8,
        f"max quadrature disagreement {worst:.2e}",
    )


def test_criterion_11_determinism(tmp_path, monkeypatch):
    forks = counted_forks(monkeypatch, 2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("map = identity\neps = 1/4, 1/8\nnum_seeds = 2\nn = 2\nm = 1\nh = 0.1\n")
    outs = []
    for name, jobs in (("a", None), ("b", None), ("c", "2")):
        argv = ["homogenize", "--config", str(cfg), "--out", str(tmp_path / name)]
        if jobs:
            argv += ["--jobs", jobs]
        assert main(argv) == 0
        outs.append(tmp_path / name)
    # two eps values give --jobs 2 two distinct solves, so it forks one child
    assert forks == [os.getpid()], forks
    same = all(
        (o / f).read_bytes() == (outs[0] / f).read_bytes()
        for o in outs[1:]
        for f in ("convergence.csv", "report.json", "effective.json")
    )
    report(
        11, "determinism",
        same,
        "byte-identical CSV/JSON across reruns and --jobs values",
    )
