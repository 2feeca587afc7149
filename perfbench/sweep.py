"""sweep-bernoulli: the epsilon sweep of ``homogenize`` on Bernoulli geometry,
in one process, with a fixed symmetric A0.

    python3 perfbench/sweep.py --config sweep.json --out DIR

It calls the public ``homogenize`` functions in the order ``cmd_homogenize``
does and writes the same convergence.csv and report.json.  A0 is an input
because the CLI cannot run this sweep: for a random map the Monte-Carlo A0
has a skew part of about 1e-5, which fails the 1e-12 symmetry check of the
homogenized solve.  The fixed value is the identity-medium effective scalar
at h = 0.05, n = 8, m = 4, as the acceptance tests compute it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

A0_SCALAR = 0.7724836462853495
RADIUS = 0.25
AMPLITUDE = 0.1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sweep-bernoulli program")
    ap.add_argument("--config", type=Path, required=True,
                    help="JSON with seed, num_seeds, h, eps, homog_grid")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    cfg = json.loads(args.config.read_text())

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np

    from membrane_homog.cli import SOURCE_PRESETS
    from membrane_homog.effective import volume_stats
    from membrane_homog.fem import CONDUCTIVITY_PRESETS
    from membrane_homog.geometry import BernoulliCellwiseMap, InterfaceSpec
    from membrane_homog.homogenize import (
        error_suite,
        rate_fit,
        solve_hetero,
        solve_homog,
        write_convergence_csv,
        write_report_json,
    )

    seeds = list(range(cfg["seed"], cfg["seed"] + cfg["num_seeds"]))
    eps_sorted = sorted(cfg["eps"], reverse=True)
    spec = InterfaceSpec(radius=RADIUS)
    f = SOURCE_PRESETS["tilted"]
    conductivity = CONDUCTIVITY_PRESETS["identity"]
    A0 = A0_SCALAR * np.eye(2)

    def dmap(s):
        return BernoulliCellwiseMap(s, AMPLITUDE)

    theta = volume_stats(dmap, seeds, spec)["theta"]
    u0 = solve_homog(A0, f, m=cfg["homog_grid"])
    rows = []
    for s in seeds:
        for eps in eps_sorted:
            sol = solve_hetero(eps, dmap(s), f, conductivity=conductivity, spec=spec,
                               h_cell=cfg["h"])
            rows.append(error_suite(sol, u0, theta, eps, A0, seed=s, conductivity=conductivity))

    args.out.mkdir(parents=True, exist_ok=True)
    write_convergence_csv(args.out / "convergence.csv", rows)
    report = {"A0": A0.tolist(), "theta": theta}
    if len(eps_sorted) >= 3:
        rates = {}
        for s in seeds:
            pairs = [(r.eps, r.l2_error) for r in rows if r.seed == s]
            slope, r2 = rate_fit([p[0] for p in pairs], [p[1] for p in pairs])
            rates[str(s)] = {"rate": slope, "r_squared": r2}
        report["l2_rates"] = rates
    write_report_json(args.out / "report.json", report)
    print(f"sweep: {len(rows)} solves -> convergence.csv, report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
