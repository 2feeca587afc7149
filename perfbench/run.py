"""One benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets the workload up several times (median: setup_s), then times whole
program runs until S seconds have passed, gating every output.  The
second-to-last line of stdout is a JSON record of everything measured beside
the metrics (environment, problem size, host-speed probe, per-iteration
values); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 it makes one untraced and one traced run instead and reports
the per-layer metrics.  Exits 2 when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="membrane-homog benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the program under test is killed
    # and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not bench.source_present():
        print(f"run.py: no program sources under {bench.SRC}", file=sys.stderr)
        return 2
    try:
        result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.SetupFailure as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
