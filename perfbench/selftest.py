"""Self-test of the benchmark at a tiny size (n = 2, m = 1, h = 0.1, 2 seeds,
eps = 1/4): every workload runs untraced and traced, and the output gate is
shown to admit a change of linear solver and to reject a perturbed reference
or a change of mesh size.

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import shutil
import sys
from dataclasses import replace

import bench

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def expect_metrics(result: dict, declared: list, label: str) -> None:
    got = result["metrics"]
    for m in declared:
        entry = got.get(m["name"])
        expect(
            entry is not None and entry.get("unit") == m["unit"]
            and isinstance(entry.get("value"), (int, float)),
            f"{label}: {m['name']} emitted in {m['unit']}",
        )
    expect(set(got) == {m["name"] for m in declared}, f"{label}: no undeclared metric")


def perturb(outputs: dict) -> dict:
    """The same outputs with one value moved by 1e-4 relative."""
    bad = copy.deepcopy(outputs)
    if "A0" in bad:
        bad["A0"][0][0] *= 1.0 + 1e-4
    else:
        bad["l2_error"][0][2] *= 1.0 + 1e-4
    return bad


def check_workloads(spec: dict) -> None:
    for name, wl in bench.WORKLOADS.items():
        result, record = bench.run(name, 0, 1.0, False, size=bench.TINY)
        expect(result["correct"] and result["failed"] == 0, f"{name}: tiny run correct")
        expect_metrics(result, spec["end_to_end"], f"{name} --trace 0")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{name}: end-to-end metrics are nonzero")

        traced, _ = bench.run(name, 0, 1.0, True, size=bench.TINY)
        expect(traced["correct"], f"{name}: traced run correct")
        expect_metrics(traced, spec["per_layer"], f"{name} --trace 1")

        outputs = record["iterations"][0]["outputs"]
        expect(wl.check(outputs, outputs) == [], f"{name}: gate accepts its own outputs")
        expect(wl.check(outputs, perturb(outputs)) != [], f"{name}: gate rejects a perturbed reference")
        rejected, _ = bench.run(name, 0, 1.0, False, size=bench.TINY, reference=perturb(outputs))
        expect(not rejected["correct"] and rejected["failed"] == rejected["attempted"],
               f"{name}: a run against a perturbed reference counts as failed")


def splu_solve(system, x0=None):
    """Direct solve of the same system: the linear-solver change the gate
    tolerances must admit."""
    import numpy as np
    import scipy.sparse.linalg as spla
    from membrane_homog.fem import FemSolution

    u = np.zeros(len(system.load))
    u[system.fixed] = system.fixed_values
    free = system.free
    K = system.matrix
    b = system.load[free] - K[free][:, system.fixed] @ system.fixed_values
    u[free] = spla.splu(K[free][:, free].tocsc()).solve(b)
    return FemSolution(values=u, mesh=system.mesh)


def tensor_outputs(size: bench.Size) -> dict:
    from membrane_homog.corrector import CorrectorConfig
    from membrane_homog.effective import corrector_runs, effective_tensor, volume_stats
    from membrane_homog.geometry import BernoulliCellwiseMap

    seeds = range(size.num_seeds)

    def dmap(s):
        return BernoulliCellwiseMap(s, 0.1)

    cfg = CorrectorConfig(delta=1e-3, n=size.n, m=size.m, h=size.h)
    t = effective_tensor(corrector_runs(dmap, seeds, cfg), rho=volume_stats(dmap, seeds)["rho"])
    return {"A0": t.A0.tolist(), "stderr": t.stderr.tolist()}


def sweep_outputs(size: bench.Size, out) -> dict:
    import json

    import sweep

    cfg = bench.WORKLOADS["sweep-bernoulli"].config(0, size)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(cfg))
    sweep.main(["--config", str(out / "sweep.json"), "--out", str(out)])
    return bench.read_convergence(out / "convergence.csv")


def check_tolerances() -> None:
    from membrane_homog import fem

    from tracing import _rebind

    size = bench.TINY
    coarser = replace(size, h=0.09)
    cg_solve = fem.solve
    out = bench.WORK / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    try:
        cases = [
            ("A0", bench.check_tensor, lambda s, d: tensor_outputs(s)),
            ("l2_error", bench.check_l2, sweep_outputs),
        ]
        for label, check, compute in cases:
            ref = compute(size, out / "cg")
            _rebind(cg_solve, splu_solve)
            try:
                direct = compute(size, out / "splu")
            finally:
                _rebind(splu_solve, cg_solve)
            expect(direct != ref and check(direct, ref) == [],
                   f"{label}: gate admits splu in place of CG")
            expect(check(compute(coarser, out / "h"), ref) != [],
                   f"{label}: gate rejects h = 0.09 in place of h = 0.1")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    if not bench.source_present():
        print(f"selftest: no program sources under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    check_workloads(bench.spec())
    check_tolerances()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
