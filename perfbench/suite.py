"""The one command that runs the whole benchmark.

    python3 perfbench/suite.py [--runs 10] [--workloads a,b] [--update-references]

For each workload it makes RUNS runs of run.py, one for each seed 0 .. RUNS-1
(the seeds the stored references cover), exactly as a single benchmark run
is made, then one traced run at seed 0, then
the ungated oversubscription diagnostic once.  It prints every end-to-end
metric with its unit, median, quartiles, spread (interquartile range over
median) and run count, plus fail_frac, mc_var_cpu_s and the host-speed
probe, and writes the full summary to perfbench/_work/.

--update-references stores the outputs of these runs as the gate's
references; use it only after a deliberate change of the numerics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import bench


def _run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    argv = [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=bench.ROOT, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def summarise(results: list, records: list, declared: list) -> dict:
    rows = {}
    for m in declared:
        rows[m["name"]] = {"unit": m["unit"], **stats([r["metrics"][m["name"]]["value"] for r in results])}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    rows["fail_frac"] = {"unit": "ratio", **stats([failed / attempted])}
    mc = [rec["extra_metrics"]["mc_var_cpu_s"]["value"] for rec in records
          if "mc_var_cpu_s" in rec["extra_metrics"]]
    if mc:
        rows["mc_var_cpu_s"] = {"unit": "s", **stats(mc)}
    rows["host_probe_s"] = {"unit": "s", **stats([rec["host_probe_s"]["before"] for rec in records])}
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run every workload of the benchmark")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    ap.add_argument("--update-references", action="store_true")
    args = ap.parse_args(argv)
    if not bench.source_present():
        print(f"suite: no program sources under {bench.SRC}", file=sys.stderr)
        return 2
    spec = bench.spec()
    names = args.workloads.split(",")
    summary = {"started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workloads": {}}
    references = bench.load_references()

    for name in names:
        results, records = [], []
        for seed in range(args.runs):
            res, rec = _run(name, seed, spec["run_seconds"], False)
            results.append(res)
            records.append(rec)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
            if args.update_references and rec["iterations"][0]["outputs"] is not None:
                references.setdefault(name, {})[str(rec["program_seed"])] = rec["iterations"][0]["outputs"]
        entry = {"rows": summarise(results, records, spec["end_to_end"]),
                 "runs": [{"seed": rec["seed"], "correct": res["correct"],
                           "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                           "host_probe_s": rec["host_probe_s"]}
                          for res, rec in zip(results, records)],
                 "environment": records[0]["environment"],
                 "problem_size": records[0]["problem_size"]}
        traced, rec = _run(name, 0, spec["run_seconds"], True)
        entry["traced"] = {"correct": traced["correct"], "per_layer": traced["metrics"],
                           "layers": rec["layers"], "solves": rec["solves"]}
        summary["workloads"][name] = entry

    summary["oversubscription"] = bench.oversubscription_diagnostic()
    if args.update_references:
        bench.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    print()
    print(f"{'workload':22} {'metric':14} {'unit':6} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'n':>3}")
    for name, entry in summary["workloads"].items():
        for metric, r in entry["rows"].items():
            print(f"{name:22} {metric:14} {r['unit']:6} {r['median']:11.5g} {r['q1']:11.5g} "
                  f"{r['q3']:11.5g} {r['spread']:8.4f} {r['n']:3d}")
    for name, entry in summary["workloads"].items():
        print(f"\n{name} traced (correct={entry['traced']['correct']}):")
        for metric, v in entry["traced"]["per_layer"].items():
            print(f"  {metric:40} {v['value']:.6g} {v['unit']}")
        for layer, v in entry["traced"]["layers"].items():
            print(f"  span {layer:35} calls {v['calls']:5d} total {v['total_s']:8.3f} s"
                  f"  self {v['self_s']:8.3f} s")
    print("\noversubscription diagnostic (homogenize-identity, threads unpinned, ungated):")
    for jobs, m in summary["oversubscription"].items():
        print(f"  {jobs}: wall {m['wall_s']:.3f} s, cpu {m['cpu_s']:.3f} s, "
              f"rss {m['peak_rss_mb']:.1f} MB, failures {m['failures']}")

    bench.WORK.mkdir(parents=True, exist_ok=True)
    path = bench.WORK / f"suite-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(f"\nsummary -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
