"""Workloads, measurement and output gate of the membrane-homog benchmark.

README.md in this directory says why each workload exists and which layer
each metric is meant to expose.  ``run`` is the whole of one benchmark run;
``run.py`` turns it into the command-line contract and ``suite.py`` repeats
it over seeds and workloads.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCES = BENCH_DIR / "references.json"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread per process, so `--jobs 2` is exactly two compute threads on
# a two-core host.  Unpinned, every pool worker starts nproc OpenBLAS threads
# and the scheduler noise that follows dominates the run-to-run spread; suite.py
# keeps that defect visible as an ungated diagnostic.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
JOBS = 2
# Workload seeds are reduced into the range every map accepts (the Bernoulli
# field rejects negative seeds).
SEED_MODULUS = 2**31
# A run must end within 180 s: no subprocess may outlive this, and no new
# iteration starts unless one more of the same length fits before it.
RUN_BUDGET_S = 165.0

# Output gate.  At full size, splu in place of Jacobi-CG moves A0 by 3e-11,
# its stderr by 4e-7 and l2_error by 4e-13 relative (seed 0), so these
# tolerances admit a change of linear solver, a less exact one too.  A change
# of mesh size moves them far more; selftest.py checks both at its size.
A0_RTOL = 1e-6  # max |A0 - ref| / max |ref|
# The stderr (~1e-5) is a spread of fluxes of size ~0.77, so any change in the
# fluxes shows in it about 1e5 times magnified.
STDERR_RTOL = 1e-2  # max |stderr - ref| / max |ref|
L2_RTOL = 1e-6  # per row, |l2 - ref| / ref
LAM_MAX = 1.5  # upper ellipticity bound the effective command checks A0 against


class SetupFailure(RuntimeError):
    """The workload's set-up step failed, so nothing can be measured."""


@dataclass(frozen=True)
class Size:
    h: float
    n: int
    m: int
    eps: tuple
    num_seeds: int = 0  # 0: the workload's own sample count


FULL = Size(h=0.05, n=8, m=4, eps=(1 / 4, 1 / 8, 1 / 16))
TINY = Size(h=0.1, n=2, m=1, eps=(1 / 4,), num_seeds=2)
HOMOG_GRID = 128


def source_present() -> bool:
    return (SRC / "membrane_homog" / "__init__.py").is_file()


def program_env(pinned: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key, value in PINNED_THREADS.items():
        if pinned:
            env[key] = value
        else:
            env.pop(key, None)
    return env


def program_argv(entry: str, args: list) -> list:
    """The untraced program: the CLI, or the benchmark's sweep.py."""
    if entry == "cli":
        return [sys.executable, "-m", "membrane_homog.cli", *args]
    return [sys.executable, str(BENCH_DIR / "sweep.py"), *args]


def traced_argv(entry: str, args: list, spans: Path, report: Path) -> list:
    return [
        sys.executable, str(BENCH_DIR / "tracing.py"),
        "--spans", str(spans), "--report", str(report), entry, *args,
    ]


def write_config(path: Path, cfg: dict) -> None:
    def fmt(v):
        return ", ".join(repr(x) for x in v) if isinstance(v, (list, tuple)) else str(v)

    path.write_text("".join(f"{k} = {fmt(v)}\n" for k, v in cfg.items()))


@dataclass
class Measured:
    exit: int
    wall_s: float
    cpu_s: float  # user + sys of the process and every child it waited for
    peak_rss_mb: float  # largest resident set among the process and those children


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure(argv: list, env: dict, log: Path, timeout: float) -> Measured:
    """Run argv to completion in its own process group and take its wall time
    and the rusage that wait4 reports for it (pool workers included)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the run down with us
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing of the run may outlive it
    return Measured(
        exit=proc.returncode,
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        peak_rss_mb=ru.ru_maxrss / 1024.0,
    )


def _log_tail(log: Path, lines: int = 5) -> str:
    try:
        return " | ".join(log.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------- output gate


def check_tensor(out: dict, ref: dict | None) -> list:
    """A0 eigenvalues in (0, LAM_MAX + 3 stderr]; A0 and stderr against ref."""
    import numpy as np

    A0 = np.asarray(out["A0"], dtype=float)
    se = np.asarray(out["stderr"], dtype=float)
    eig = np.linalg.eigvalsh(0.5 * (A0 + A0.T))
    bad = []
    if not (eig.min() > 0.0 and eig.max() <= LAM_MAX + 3.0 * se.max()):
        bad.append(f"A0 eigenvalues {eig.tolist()} outside (0, {LAM_MAX} + 3*stderr]")
    if ref is not None:
        rA0 = np.asarray(ref["A0"], dtype=float)
        rse = np.asarray(ref["stderr"], dtype=float)
        d = float(np.abs(A0 - rA0).max() / np.abs(rA0).max())
        if not d <= A0_RTOL:
            bad.append(f"A0 differs from reference by {d:.3g} > {A0_RTOL:g} relative")
        d = float(np.abs(se - rse).max() / np.abs(rse).max())
        if not d <= STDERR_RTOL:
            bad.append(f"stderr differs from reference by {d:.3g} > {STDERR_RTOL:g} relative")
    return bad


def check_l2(out: dict, ref: dict | None) -> list:
    """l2_error decreases with eps for every seed; rows against ref."""
    rows = out["l2_error"]
    bad = []
    by_seed = {}
    for seed, eps, l2 in rows:
        by_seed.setdefault(seed, []).append((eps, l2))
    for seed, pairs in by_seed.items():
        errs = [l2 for _, l2 in sorted(pairs, reverse=True)]
        if not all(b < a for a, b in zip(errs, errs[1:])):
            bad.append(f"seed {seed}: l2_error {errs} does not decrease with eps")
    if ref is not None:
        want = ref["l2_error"]
        if [r[:2] for r in rows] != [r[:2] for r in want]:
            bad.append("convergence rows (seed, eps) differ from the reference")
        else:
            d = max(abs(r[2] - w[2]) / abs(w[2]) for r, w in zip(rows, want))
            if not d <= L2_RTOL:
                bad.append(f"l2_error differs from reference by {d:.3g} > {L2_RTOL:g} relative")
    return bad


def read_convergence(path: Path) -> dict:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append([int(f[col["seed"]]), float(f[col["eps"]]), float(f[col["l2_error"]])])
    return {"l2_error": rows}


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return {}


# ------------------------------------------------------------------ workloads


def _system_size(mesh, system) -> dict:
    free = system.free
    return {
        "nodes": int(mesh.num_vertices),
        "triangles": int(mesh.num_triangles),
        "dofs": int(len(free)),
        "nnz": int(system.matrix.nnz),
    }


class Workload:
    name = ""
    num_seeds = 0  # Monte-Carlo samples at full size
    # setup_s is the median of this many set-ups; a warm import takes ~0.5 s,
    # so nine of them outvote a burst of host noise.
    setup_repeats = 9

    def samples(self, size: Size) -> int:
        return size.num_seeds or self.num_seeds

    def prepare(self, setup_dir: Path, seed: int, size: Size, env: dict) -> None:
        """Set-up: everything a run needs before its first timed iteration."""
        raise NotImplementedError

    def iteration(self, setup_dir: Path, out_dir: Path) -> tuple:
        """Prepare out_dir; return (entry, args) of the program to time."""
        raise NotImplementedError

    def outputs(self, out_dir: Path) -> dict:
        raise NotImplementedError

    def check(self, out: dict, ref: dict | None) -> list:
        raise NotImplementedError

    def sizes(self, seed: int, size: Size) -> list:
        """Mesh and system size of each distinct problem the workload solves,
        rebuilt with the program's own public mesh and assembly functions
        (outside every timed phase).  How many solves the program makes, and
        the size of each, is taken from its real calls in the traced run."""
        raise NotImplementedError


def _warm_import(setup_dir: Path, env: dict) -> None:
    """Load the package once so its bytecode and shared libraries are cached."""
    log = setup_dir / "warm.log"
    m = measure([sys.executable, "-c", "import membrane_homog.cli"], env, log, 60.0)
    if m.exit != 0:
        raise SetupFailure(f"import failed: {_log_tail(log)}")


def _hetero_sizes(dmap_for, size: Size) -> list:
    from membrane_homog.fem import BilinearFormSpec, assemble
    from membrane_homog.geometry import InterfaceSpec
    from membrane_homog.meshing import build_cell_mesh, build_square_mesh, tile_domain_mesh

    spec = InterfaceSpec(radius=0.25)
    cell = build_cell_mesh(spec, size.h)
    out = []
    for eps in size.eps:
        mesh = tile_domain_mesh(cell, dmap_for, eps, spec)
        out.append(_system_size(mesh, assemble(mesh, BilinearFormSpec(jump_weight=1.0 / eps), f=1.0)))
    sq = build_square_mesh(HOMOG_GRID)
    out.append(_system_size(sq, assemble(sq, BilinearFormSpec(), f=1.0)))
    return out


class EffectiveBernoulli(Workload):
    name = "effective-bernoulli"
    num_seeds = 4

    def config(self, seed: int, size: Size) -> dict:
        return {
            "map": "bernoulli", "radius": 0.25, "amplitude": 0.1,
            "conductivity": "identity", "h": size.h, "delta": 1e-3,
            "n": size.n, "m": size.m, "num_seeds": self.samples(size), "seed": seed,
        }

    def prepare(self, setup_dir, seed, size, env):
        write_config(setup_dir / "exp.cfg", self.config(seed, size))
        _warm_import(setup_dir, env)

    def iteration(self, setup_dir, out_dir):
        return "cli", [
            "effective", "--config", str(setup_dir / "exp.cfg"),
            "--out", str(out_dir), "--jobs", str(JOBS),
        ]

    def outputs(self, out_dir):
        d = json.loads((out_dir / "effective.json").read_text())
        return {"A0": d["A0"], "stderr": d["stderr"]}

    def check(self, out, ref):
        return check_tensor(out, ref)

    def sizes(self, seed, size):
        from membrane_homog.fem import BilinearFormSpec, assemble
        from membrane_homog.geometry import BernoulliCellwiseMap, InterfaceSpec
        from membrane_homog.meshing import build_cell_mesh, build_truncated_mesh

        cell = build_cell_mesh(InterfaceSpec(radius=0.25), size.h)
        mesh = build_truncated_mesh(cell, BernoulliCellwiseMap(seed, 0.1), size.n)
        system = assemble(mesh, BilinearFormSpec(jump_weight=1.0, mass_weight=1e-3), p=[1.0, 0.0])
        return [_system_size(mesh, system)]


class SweepBernoulli(Workload):
    name = "sweep-bernoulli"
    num_seeds = 4

    def config(self, seed: int, size: Size) -> dict:
        return {
            "seed": seed, "num_seeds": self.samples(size), "h": size.h,
            "eps": list(size.eps), "homog_grid": HOMOG_GRID,
        }

    def prepare(self, setup_dir, seed, size, env):
        (setup_dir / "sweep.json").write_text(json.dumps(self.config(seed, size)))
        _warm_import(setup_dir, env)

    def iteration(self, setup_dir, out_dir):
        return "sweep", ["--config", str(setup_dir / "sweep.json"), "--out", str(out_dir)]

    def outputs(self, out_dir):
        return read_convergence(out_dir / "convergence.csv")

    def check(self, out, ref):
        return check_l2(out, ref)

    def sizes(self, seed, size):
        from membrane_homog.geometry import BernoulliCellwiseMap

        return _hetero_sizes(BernoulliCellwiseMap(seed, 0.1), size)


class HomogenizeIdentity(Workload):
    name = "homogenize-identity"
    num_seeds = 2
    # Each set-up is a full `effective` run (~10 s); two keep a run short.
    setup_repeats = 2

    def config(self, seed: int, size: Size) -> dict:
        return {
            "map": "identity", "h": size.h, "n": size.n, "m": size.m,
            "num_seeds": self.samples(size), "eps": list(size.eps),
            "source": "tilted", "homog_grid": HOMOG_GRID, "seed": seed,
        }

    def prepare(self, setup_dir, seed, size, env):
        cfg = setup_dir / "exp.cfg"
        write_config(cfg, self.config(seed, size))
        log = setup_dir / "effective.log"
        argv = program_argv("cli", [
            "effective", "--config", str(cfg), "--out", str(setup_dir / "effective"),
            "--jobs", str(JOBS),
        ])
        m = measure(argv, env, log, RUN_BUDGET_S / 3)
        if m.exit != 0:
            raise SetupFailure(f"effective set-up exited {m.exit}: {_log_tail(log)}")

    def iteration(self, setup_dir, out_dir, jobs: int = JOBS):
        out_dir.mkdir(parents=True)
        shutil.copy(setup_dir / "effective" / "effective.json", out_dir / "effective.json")
        return "cli", [
            "homogenize", "--config", str(setup_dir / "exp.cfg"),
            "--out", str(out_dir), "--jobs", str(jobs),
        ]

    def outputs(self, out_dir):
        return read_convergence(out_dir / "convergence.csv")

    def check(self, out, ref):
        return check_l2(out, ref)

    def sizes(self, seed, size):
        from membrane_homog.geometry import IdentityMap

        return _hetero_sizes(IdentityMap(), size)


WORKLOADS = {w.name: w for w in (EffectiveBernoulli(), SweepBernoulli(), HomogenizeIdentity())}


# ------------------------------------------------------------- environment


def host_probe(reps: int = 5) -> float:
    """Median time of a fixed scipy kernel: splu factor and solve of a 2D
    Laplacian on a 120 x 120 grid.  It tracks host speed, not the program."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 120
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    I = sp.identity(n)
    A = (sp.kron(T, I) + sp.kron(I, T)).tocsc()
    b = np.ones(n * n)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        spla.splu(A).solve(b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: program_env()[k] for k in PINNED_THREADS},
        "jobs": JOBS,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------- run


def _iteration(wl, wd: Path, k: int, env: dict, ref, deadline: float, trace_files=None) -> dict:
    out = wd / f"it{k}"
    entry, args = wl.iteration(wd / "setup", out)
    argv = program_argv(entry, args) if trace_files is None else traced_argv(entry, args, *trace_files)
    log = wd / f"it{k}.log"
    m = measure(argv, env, log, deadline - time.perf_counter())
    rec = {"wall_s": m.wall_s, "cpu_s": m.cpu_s, "peak_rss_mb": m.peak_rss_mb,
           "exit": m.exit, "failures": [], "outputs": None}
    if m.exit != 0:
        rec["failures"].append(f"exit {m.exit}: {_log_tail(log)}")
        return rec
    try:
        rec["outputs"] = wl.outputs(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec["failures"].append(f"unreadable output: {exc!r}")
        return rec
    rec["failures"] += wl.check(rec["outputs"], ref)
    if "stderr" in rec["outputs"]:
        # Monte-Carlo cost per unit variance: (max stderr of A0)^2 x CPU seconds
        rec["mc_var_cpu_s"] = max(max(r) for r in rec["outputs"]["stderr"]) ** 2 * m.cpu_s
    return rec


def _median(values) -> float:
    return float(statistics.median(values))


def run(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
        reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run.  Returns (result, record): the result line of the
    command-line contract and the record with everything measured beside it.

    ``reference`` defaults to the stored reference for this workload and seed
    (full size only)."""
    t_start = time.perf_counter()
    deadline = t_start + RUN_BUDGET_S
    os.environ.update(PINNED_THREADS)  # the host probe in this process, too
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # problem sizes are rebuilt in this process
    wl = WORKLOADS[name]
    program_seed = seed % SEED_MODULUS
    if reference is None and size == FULL:
        reference = load_references().get(name, {}).get(str(program_seed))
    env = program_env()
    wd = WORK / f"{name}-{program_seed}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    try:
        probe_before = host_probe()
        setups = []
        for _ in range(1 if trace else wl.setup_repeats):
            shutil.rmtree(wd / "setup", ignore_errors=True)
            (wd / "setup").mkdir()
            t0 = time.perf_counter()
            wl.prepare(wd / "setup", program_seed, size, env)
            setups.append(time.perf_counter() - t0)

        iterations = []
        layers = None
        if trace:
            iterations.append(_iteration(wl, wd, 0, env, reference, deadline))
            files = (wd / "spans", wd / "layers.json")
            iterations.append(_iteration(wl, wd, 1, env, reference, deadline, files))
            if files[1].is_file():
                layers = json.loads(files[1].read_text())
        else:
            t_measure = time.perf_counter()
            while True:
                it = _iteration(wl, wd, len(iterations), env, reference, deadline)
                iterations.append(it)
                now = time.perf_counter()
                if now - t_measure >= seconds or now + 1.5 * it["wall_s"] > deadline:
                    break
        first = iterations[0]["outputs"]
        for it in iterations[1:]:
            if it["outputs"] is not None and first is not None and it["outputs"] != first:
                it["failures"].append("outputs differ from the first iteration of this run")
        probe_after = host_probe()
        sizes = wl.sizes(program_seed, size)
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    failed = sum(1 for it in iterations if it["failures"])
    result = {"correct": failed == 0, "attempted": len(iterations), "failed": failed}
    if trace:
        if layers is None:
            raise RuntimeError("the traced iteration wrote no layer report")
        overhead = iterations[1]["wall_s"] / iterations[0]["wall_s"] - 1.0
        layers["per_layer"]["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        result["metrics"] = {k: layers["per_layer"][k] for k in per_layer_names()}
    else:
        result["metrics"] = {
            "wall_s": {"value": _median(it["wall_s"] for it in iterations), "unit": "s"},
            "cpu_s": {"value": _median(it["cpu_s"] for it in iterations), "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median(it["peak_rss_mb"] for it in iterations), "unit": "MB"},
        }
    extra = {"fail_frac": {"value": failed / len(iterations), "unit": "ratio"}}
    mc = [it["mc_var_cpu_s"] for it in iterations if "mc_var_cpu_s" in it]
    if mc and not trace:
        extra["mc_var_cpu_s"] = {"value": _median(mc), "unit": "s"}
    record = {
        "workload": name,
        "seed": seed,
        "program_seed": program_seed,
        "size": size.__dict__,
        "trace": trace,
        "seconds": seconds,
        "setup_s": setups,
        "iterations": iterations,
        "extra_metrics": extra,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "problem_size": sizes,
        "environment": environment(),
        "reference": "stored" if reference is not None else "none: invariants only",
        "run_wall_s": time.perf_counter() - t_start,
    }
    if layers is not None:
        record["layers"] = layers["layers"]
        record["per_layer_all"] = layers["per_layer"]
        record["solves"] = layers["solves"]
    return result, record


def oversubscription_diagnostic() -> dict:
    """homogenize-identity at seed 0 with the thread pin removed, at --jobs 1 and 2.
    Ungated: it records the defect the pin hides from every other run."""
    wl = WORKLOADS["homogenize-identity"]
    wd = WORK / f"oversubscription-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    (wd / "setup").mkdir(parents=True)
    out = {}
    try:
        wl.prepare(wd / "setup", 0, FULL, program_env())
        for jobs in (1, 2):
            entry, args = wl.iteration(wd / "setup", wd / f"jobs{jobs}", jobs=jobs)
            m = measure(program_argv(entry, args), program_env(pinned=False),
                        wd / f"jobs{jobs}.log", RUN_BUDGET_S)
            failures = [f"exit {m.exit}"] if m.exit else wl.check(wl.outputs(wd / f"jobs{jobs}"), None)
            out[f"jobs{jobs}"] = {**m.__dict__, "failures": failures}
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    return out


def spec() -> dict:
    return json.loads(SPEC.read_text())


def per_layer_names() -> list:
    return [m["name"] for m in spec()["per_layer"]]
