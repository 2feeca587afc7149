"""Traced run: the program in this process with its layer entry points wrapped.

    python3 perfbench/tracing.py --spans DIR --report FILE {cli|sweep} ARGS...

The wrappers are installed by rebinding names in the modules that hold them,
so the program's files are untouched.  Every call through a wrapped name
becomes a span (name, start, end, parent, run id); spans stay in memory and
are written once at the end.  Pool workers are forked and inherit the
wrappers; each writes its spans to DIR when a task returns, and the files are
merged into the report.  Self time is a span's duration minus the part of it
covered by its children.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.stack: list[str] = []  # ids of the open spans
        self.spans: list[tuple] = []  # closed spans: (name, start, end, id, parent)
        self.sums: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, float] = {}
        self.solves: list[dict] = []
        self.last_cg_iters = 0
        self.fork_depth = 0
        self._next = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # Spans still open in the parent stay on the stack as parents of the
        # worker's spans; what the parent closed before the fork is its own.
        self.pid = os.getpid()
        self.spans, self.solves = [], []
        self.sums, self.maxima = defaultdict(int), {}
        self.fork_depth = len(self.stack)

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(value, self.maxima.get(key, value))

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = f"{self.pid}:{self._next}"
            self._next += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans.append((name, t0, t1, sid, parent))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            if self.pid != self.root_pid and len(self.stack) == self.fork_depth:
                self.flush()
            return result

        return wrapper

    def _payload(self) -> dict:
        return {
            "pid": self.pid,
            "spans": [dict(zip(("name", "start", "end", "id", "parent"), s), run=self.run_id)
                      for s in self.spans],
            "sums": dict(self.sums),
            "maxima": self.maxima,
            "solves": self.solves,
        }

    def flush(self) -> None:
        """Worker side: append what this process traced since the last flush."""
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spans_dir / f"worker-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(self._payload()) + "\n")
        self.spans, self.solves = [], []
        self.sums, self.maxima = defaultdict(int), {}

    def collect(self) -> list:
        parts = [self._payload()]
        if self.spans_dir.is_dir():
            for path in sorted(self.spans_dir.glob("worker-*.jsonl")):
                parts += [json.loads(line) for line in path.read_text().splitlines()]
        return parts


# ----------------------------------------------------------- instrumentation


def _rebind(original, wrapper) -> None:
    """Replace every module-level reference the package holds to original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "membrane_homog" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _mesh_size(tr, args, kwargs, mesh):
    tr.add("meshing.nodes", mesh.num_vertices)
    tr.add("meshing.triangles", mesh.num_triangles)


def _solve_size(tr, args, kwargs, sol):
    system = args[0] if args else kwargs["system"]
    dofs = len(system.free)
    tr.add("fem.solve_dofs", dofs)
    tr.add("fem.solve_nnz", system.matrix.nnz)
    tr.solves.append({"nodes": int(system.mesh.num_vertices),
                      "triangles": int(system.mesh.num_triangles),
                      "dofs": dofs, "nnz": int(system.matrix.nnz),
                      "cg_iters": tr.last_cg_iters})
    tr.last_cg_iters = 0


def _tensor_stderr(tr, args, kwargs, t):
    tr.record_max("effective.a0_stderr_max", float(t.stderr.max()))


def _identity_residual(tr, args, kwargs, verdict):
    residuals = verdict.get("energy_identity_residuals")
    if residuals:
        tr.record_max("effective.energy_identity_residual_max", max(residuals.values()))


def _task_bytes(tr, args, kwargs, result):
    tr.add("cli.task_result_bytes", len(pickle.dumps(result)))


class _CountingLinalg:
    """Stands in for scipy.sparse.linalg inside fem: counts CG iterations
    through a callback and forwards everything else."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def cg(self, A, b, *args, callback=None, **kwargs):
        count = 0

        def counted(xk):
            nonlocal count
            count += 1
            if callback is not None:
                callback(xk)

        try:
            return self._real.cg(A, b, *args, callback=counted, **kwargs)
        finally:
            self._tracer.add("fem.cg_iters", count)
            self._tracer.last_cg_iters = count


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every module of the package."""
    from membrane_homog import cli, corrector, effective, fem, geometry, homogenize, meshing

    functions = [
        ("meshing.tile", meshing.build_truncated_mesh, _mesh_size),
        ("meshing.tile", meshing.tile_domain_mesh, _mesh_size),
        ("meshing.tile", meshing.build_square_mesh, _mesh_size),
        ("meshing.cell_mesh", meshing.build_cell_mesh, None),
        ("fem.assemble", fem.assemble, None),
        ("fem.solve", fem.solve, _solve_size),
        ("fem.pairing", fem.flux_pairing, None),
        ("fem.norms", fem.norms, None),
        ("corrector.solve", corrector.solve_truncated, None),
        ("effective.corrector_runs", effective.corrector_runs, None),
        ("effective.energy_identity", effective.energy_identity_residual, None),
        ("effective.volume_stats", effective.volume_stats, None),
        ("effective.tensor", effective.effective_tensor, _tensor_stderr),
        ("effective.ellipticity", effective.ellipticity_check, _identity_residual),
        ("homogenize.hetero", homogenize.solve_hetero, None),
        ("homogenize.homog", homogenize.solve_homog, None),
        ("homogenize.error_suite", homogenize.error_suite, None),
        ("cli.run_tasks", cli._run_tasks, None),
        ("cli.task", cli._hetero_task, _task_bytes),
        ("cli.task", cli._corrector_task, _task_bytes),
    ]
    for name, fn, on_result in functions:
        _rebind(fn, tracer.wrap(name, fn, on_result))

    methods = [("meshing.topology", meshing.MembraneMesh, "interface_edges_with_cells")]
    methods += [
        ("geometry.map_apply", cls, "apply")
        for _, cls in inspect.getmembers(geometry, inspect.isclass)
        if issubclass(cls, geometry.DeformationMap) and "apply" in vars(cls)
    ]
    for name, cls, attr in methods:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))

    fem.spla = _CountingLinalg(fem.spla, tracer)


# ----------------------------------------------------------------- analysis


def _covered(intervals) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


# Named per-layer metrics -> (span name, field).  Spans also give calls,
# total and self time for every name in the report's "layers" table.
SPAN_METRICS = {
    "meshing.topology_calls": ("meshing.topology", "calls"),
    "meshing.topology_s": ("meshing.topology", "total_s"),
    "meshing.tile_calls": ("meshing.tile", "calls"),
    "meshing.tile_s": ("meshing.tile", "total_s"),
    "meshing.cell_mesh_calls": ("meshing.cell_mesh", "calls"),
    "meshing.cell_mesh_s": ("meshing.cell_mesh", "total_s"),
    "geometry.map_apply_calls": ("geometry.map_apply", "calls"),
    "geometry.map_apply_s": ("geometry.map_apply", "total_s"),
    "fem.assemble_calls": ("fem.assemble", "calls"),
    "fem.assemble_self_s": ("fem.assemble", "self_s"),
    "fem.solve_calls": ("fem.solve", "calls"),
    "fem.solve_s": ("fem.solve", "total_s"),
    "fem.pairing_calls": ("fem.pairing", "calls"),
    "fem.pairing_s": ("fem.pairing", "total_s"),
    "fem.norms_calls": ("fem.norms", "calls"),
    "fem.norms_self_s": ("fem.norms", "self_s"),
    "corrector.solve_calls": ("corrector.solve", "calls"),
    "corrector.post_self_s": ("corrector.solve", "self_s"),
    "effective.corrector_runs_s": ("effective.corrector_runs", "total_s"),
    "effective.energy_identity_calls": ("effective.energy_identity", "calls"),
    "effective.energy_identity_self_s": ("effective.energy_identity", "self_s"),
    "effective.volume_stats_s": ("effective.volume_stats", "total_s"),
    "homogenize.hetero_calls": ("homogenize.hetero", "calls"),
    "homogenize.hetero_s": ("homogenize.hetero", "total_s"),
    "homogenize.homog_s": ("homogenize.homog", "total_s"),
    "homogenize.error_suite_calls": ("homogenize.error_suite", "calls"),
    "homogenize.error_suite_self_s": ("homogenize.error_suite", "self_s"),
    "cli.run_tasks_s": ("cli.run_tasks", "total_s"),
}
COUNTERS = {
    "meshing.nodes": "count",
    "meshing.triangles": "count",
    "fem.solve_dofs": "count",
    "fem.solve_nnz": "count",
    "fem.cg_iters": "count",
    "cli.task_result_bytes": "bytes",
}
VALUES = ["effective.a0_stderr_max", "effective.energy_identity_residual_max"]


def analyse(parts: list, wall_s: float) -> dict:
    spans = [s for p in parts for s in p["spans"]]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        dur = s["end"] - s["start"]
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
        row = layers[s["name"]]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - _covered(k for k in kids if k[1] > k[0])
    sums = defaultdict(int)
    maxima = {}
    for p in parts:
        for k, v in p["sums"].items():
            sums[k] += v
        for k, v in p["maxima"].items():
            maxima[k] = max(v, maxima.get(k, v))

    per_layer = {}
    for metric, (span, fld) in SPAN_METRICS.items():
        value = layers[span][fld] if span in layers else 0
        per_layer[metric] = {"value": value, "unit": "count" if fld == "calls" else "s"}
    for metric, unit in COUNTERS.items():
        per_layer[metric] = {"value": sums.get(metric, 0), "unit": unit}
    for metric in VALUES:
        per_layer[metric] = {"value": maxima.get(metric, 0.0), "unit": "1"}
    return {
        "run_id": {s["run"] for s in spans}.pop() if spans else None,
        "traced_wall_s": wall_s,
        "span_count": len(spans),
        "processes": len({p["pid"] for p in parts}),
        "layers": dict(sorted(layers.items())),
        "solves": [s for p in parts for s in p["solves"]],
        "per_layer": per_layer,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", type=Path, required=True, help="directory for worker span files")
    ap.add_argument("--report", type=Path, required=True, help="layer report (JSON) to write")
    ap.add_argument("entry", choices=("cli", "sweep"))
    ap.add_argument("args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from membrane_homog import cli

    import sweep

    tracer = Tracer(args.spans)
    install(tracer)
    program = cli.main if args.entry == "cli" else sweep.main
    t0 = time.perf_counter()
    try:
        rc = program(args.args)
    finally:
        wall = time.perf_counter() - t0
        report = analyse(tracer.collect(), wall)
        args.report.write_text(json.dumps(report, sort_keys=True))
    return rc


if __name__ == "__main__":
    sys.exit(main())
