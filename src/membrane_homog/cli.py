"""Command-line experiment orchestration.

Subcommands build meshes, run corrector sweeps, assemble the effective
tensor, run the epsilon convergence study, and execute the property suite.
Configs are flat key-value text (or JSON); outputs are CSV and JSON written
deterministically so identical configs give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import numbers
import os
import pickle
import signal
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .corrector import CorrectorConfig, write_energy_csv, write_flux_csv
from .effective import (
    corrector_runs,
    effective_tensor,
    ellipticity_check,
    read_effective_json,
    volume_stats,
    write_effective_json,
)
from .errors import ConfigError, EllipticityViolation, MembraneHomogError, MeshQualityFailure
from .fem import CONDUCTIVITY_PRESETS
from .geometry import (
    BernoulliCellwiseMap,
    BumpMap,
    IdentityMap,
    InterfaceSpec,
    ScalingMap,
)
from .homogenize import (
    error_suite,
    rate_fit,
    solve_hetero,
    solve_homog,
    write_convergence_csv,
    write_report_json,
)
from .meshing import build_cell_mesh, export_mesh, truncated_template
from .verify import (
    backward_induction_bound,
    random_induction_instance,
    surface_integral_crosscheck,
)

SOURCE_PRESETS = {
    "constant": lambda pts: np.ones(len(pts)),
    "tilted": lambda pts: 1.0 + pts[:, 0] + 2.0 * pts[:, 1],
}


# The keys that determine A0; effective.json records their hash (see cmd_homogenize).
A0_KEYS = ("map", "radius", "amplitude", "conductivity", "h", "delta", "n", "m", "seed",
           "num_seeds")
_KINDS = {str: (str, "a string"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a finite number")}


def _typed(key: str, value, default):
    """``value`` as the type of ``default`` (a list of finite numbers, an integer,
    a finite number or a string), else ConfigError naming ``key``; bools are not numbers."""
    if isinstance(default, list):
        if isinstance(value, list):
            return [_typed(key, v, 0.0) for v in value]
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    kind = type(default)
    base, expected = _KINDS[kind]
    if isinstance(value, base) and not isinstance(value, bool):
        try:
            value = kind(value)
        except OverflowError:
            pass
        else:
            if kind is not float or math.isfinite(value):
                return value
    raise ConfigError(f"{key}: expected {expected}, got {value!r}")


def _fold_error(amplitude: float) -> str:
    """Why the bump deformation of this amplitude is rejected ('' if it is
    not); the map runs its fold check once per amplitude and process."""
    try:
        BumpMap(amplitude=amplitude)
    except ValueError as exc:
        return str(exc)
    return ""


@dataclass
class ExperimentConfig:
    map: str = "identity"
    radius: float = 0.25
    amplitude: float = 0.1
    conductivity: str = "identity"
    h: float = 0.05
    delta: float = 1e-3
    n: int = 8
    m: int = 4
    seed: int = 0
    num_seeds: int = 1
    eps: list = field(default_factory=lambda: [0.25])
    source: str = "constant"
    homog_grid: int = 128
    instances: int = 1000

    def __post_init__(self):
        for f in fields(self):
            default = f.default if f.default is not MISSING else f.default_factory()
            setattr(self, f.name, _typed(f.name, getattr(self, f.name), default))
        if self.map not in ("identity", "bump", "bernoulli"):
            raise ConfigError(f"map: unknown kind {self.map!r}")
        if not 0.0 < self.radius < 0.5:
            raise ConfigError(f"radius: must be in (0, 0.5), got {self.radius}")
        if self.conductivity not in CONDUCTIVITY_PRESETS:
            raise ConfigError(f"conductivity: unknown preset {self.conductivity!r}")
        if not 0.0 < self.h <= 0.25:
            raise ConfigError(f"h: must be in (0, 0.25], got {self.h}")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"delta: must be in (0, 1], got {self.delta}")
        if not 1 <= self.m <= self.n - 1:
            raise ConfigError(f"m: must satisfy 1 <= m <= n-1, got m={self.m} n={self.n}")
        if self.num_seeds < 1:
            raise ConfigError(f"num_seeds: must be >= 1, got {self.num_seeds}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.map == "bernoulli" and self.seed > 2**64 - self.num_seeds:
            raise ConfigError(
                f"seed: seeds {self.seed}..{self.seed + self.num_seeds - 1} must lie "
                f"in [0, 2^64) for map = bernoulli"
            )
        fold = _fold_error(self.amplitude)
        if fold:
            raise ConfigError(f"amplitude: {fold}")
        for e in self.eps:
            if not 0.0 < e <= 0.5:
                raise ConfigError(f"eps: each value must be in (0, 0.5], got {e}")
            if not math.isfinite(1.0 / e) or abs(round(1.0 / e) * e - 1.0) > 1e-12:
                raise ConfigError(f"eps: 1/eps must be an integer, got {e}")
        if not self.eps or len({round(1.0 / e) for e in self.eps}) < len(self.eps):
            raise ConfigError(f"eps: need one or more distinct values, got {self.eps}")
        if self.homog_grid < 2:  # the 1 x 1 grid has no free node
            raise ConfigError(f"homog_grid: must be >= 2, got {self.homog_grid}")
        if self.source not in SOURCE_PRESETS:
            raise ConfigError(f"source: unknown preset {self.source!r}")
        if self.instances < 1:
            raise ConfigError(f"instances: must be >= 1, got {self.instances}")

    @property
    def seeds(self) -> list:
        return list(range(self.seed, self.seed + self.num_seeds))

    def realization(self, seed: int) -> int:
        """The seed whose realization ``seed`` gets: itself under the
        Bernoulli map, ``self.seed`` under a deterministic map, which gives
        every seed the same realization."""
        return seed if self.map == "bernoulli" else self.seed

    @property
    def interface(self) -> InterfaceSpec:
        return InterfaceSpec(radius=self.radius)

    def make_map(self, seed: int):
        """The deformation map of realization ``seed``."""
        if self.map == "identity":
            return IdentityMap()
        if self.map == "bump":
            return BumpMap(amplitude=self.amplitude)
        return BernoulliCellwiseMap(seed=seed, amplitude=self.amplitude)

    def corrector_config(self) -> CorrectorConfig:
        return CorrectorConfig(
            delta=self.delta, n=self.n, m=self.m, h=self.h,
            interface=self.interface,
        )

    def hash(self, keys=None) -> str:
        """Digest of the config, or of only ``keys`` of it."""
        d = asdict(self)
        payload = json.dumps({k: d[k] for k in keys or d}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _coerce(key: str, raw: str, default):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return _parse_number(raw)
        if isinstance(default, list):
            return [_parse_number(tok) for tok in raw.split(",") if tok.strip()]
        return raw.strip()
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{key}: cannot parse {raw.strip()!r}") from exc


def _parse_number(tok: str) -> float:
    tok = tok.strip()
    if "/" in tok:
        num, den = tok.split("/", 1)
        return float(num) / float(den)
    return float(tok)


def parse_config(path) -> ExperimentConfig:
    """Flat `key = value` lines with # comments; JSON accepted as well."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"--config {path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config {path}: not UTF-8 text ({exc.reason})") from exc
    defaults = ExperimentConfig()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
    else:
        data = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("["):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if not hasattr(defaults, key):
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            data[key] = _coerce(key, raw, getattr(defaults, key))
    unknown = set(data) - set(asdict(defaults))
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def resolve_jobs(args) -> int:
    """Process count from --jobs (default 1), clamped to [1, the CPUs this
    process may run on]."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(max(1, args.jobs or 1), cpus or 1)


def _deal(keys, shares, cost):
    """``keys`` dealt, costliest first, each to the least-loaded of
    ``shares`` lists; the first list gets the costliest key.  ``cost`` is a
    key's cost, or None when all keys cost the same."""
    dealt, loads = [[] for _ in range(shares)], [0] * shares
    for key in sorted(keys, key=cost, reverse=True) if cost else keys:
        i = loads.index(min(loads))
        dealt[i].append(key)
        loads[i] += cost(key) if cost else 1
    return dealt


def _run_tasks(worker, keys, jobs, shared, cost=None):
    """``worker`` run once per distinct key of ``keys``; the results by key,
    in order of first appearance.

    With two or more jobs and distinct keys, ``shared()`` runs, and the keys
    are dealt (``_deal``) into ``min(jobs, keys)`` shares: this process runs
    the first, one forked child each of the others.  The children inherit
    the worker and what ``shared`` built, so nothing is pickled on the way
    in; their results come back through a pipe each (``_child``,
    ``_received``).  On any failure every child is killed and reaped before
    the exception propagates."""
    distinct = list(dict.fromkeys(keys))
    shares = _deal(distinct, min(jobs, len(distinct)), cost)
    if len(shares) <= 1:
        return {key: worker(key) for key in distinct}
    shared()
    sys.stdout.flush()  # else each child writes the parent's buffered output again
    sys.stderr.flush()
    children = {}  # pid -> the read end of its result pipe, until reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(worker, share, w)
            os.close(w)
            children[pid] = open(r, "rb")
        results = {key: worker(key) for key in shares[0]}
        for pid in list(children):
            with children[pid] as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            results.update(_received(data, status))
    finally:
        for pid, fh in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return {key: results[key] for key in distinct}


def _child(worker, share, fd):
    """A forked child of ``_run_tasks``: writes (True, results by key) of
    ``share``, or (False, the exception a worker raised), pickled to ``fd``,
    and exits without returning (status 0 once all of it is written)."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, {key: worker(key) for key in share}))
        except BaseException as exc:
            payload = pickle.dumps((False, exc))
        with open(fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _received(data: bytes, status: int) -> dict:
    """The results a child of ``_run_tasks`` sent as ``data`` before it
    ended with wait status ``status``; raises the exception it sent instead."""
    if status:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
        raise MembraneHomogError(f"a worker process ended without its results ({how})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _corrector_task(cfg: ExperimentConfig, seed: int, profile: bool = False):
    """The sample (effective.EffectiveRun) of realization ``seed``, reduced
    from its e1 and e2 correctors on its one mesh and matrix, with its
    energy profile when ``profile`` is set."""
    conductivity = CONDUCTIVITY_PRESETS[cfg.conductivity]
    return corrector_runs(cfg.make_map, [seed], cfg.corrector_config(), conductivity,
                          profile=profile)[0]


def _hetero_task(cfg: ExperimentConfig, u0, t, key):
    """The heterogeneous solve of ``key``, (realization seed, eps), and its
    error row against u0 (grid values and pairings, computed once in the
    parent) and the tensor t."""
    seed, eps = key
    conductivity = CONDUCTIVITY_PRESETS[cfg.conductivity]
    sol = solve_hetero(
        eps, cfg.make_map(seed), SOURCE_PRESETS[cfg.source], conductivity=conductivity,
        spec=cfg.interface, h_cell=cfg.h,
    )
    return error_suite(sol, u0, t.theta, eps, t.A0, seed=seed, conductivity=conductivity)


class OutputTracker:
    """Records files written by a command so a failure can clean them up.

    ``names`` are the files the command may write; one that is a directory
    is rejected here, before any work."""

    def __init__(self, out_dir, names):
        self.out_dir = out_dir
        self.paths = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"--out {out_dir}: cannot make the directory: {exc.strerror}"
            ) from exc
        for name in names:
            p = os.path.join(out_dir, name)
            if os.path.isdir(p):
                raise ConfigError(f"--out {out_dir}: {p} is a directory")

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def cleanup(self):
        """Remove the regular files among the recorded outputs."""
        for p in self.paths:
            if os.path.isfile(p):
                os.remove(p)


def cmd_mesh(cfg: ExperimentConfig, out: OutputTracker, jobs: int) -> None:
    mesh = build_cell_mesh(cfg.interface, cfg.h)
    export_mesh(mesh, out.path("mesh.txt"))
    print(
        f"mesh: {mesh.num_vertices} vertices, {len(mesh.triangles)} triangles, "
        f"min angle {mesh.min_angle_deg():.2f} deg"
    )


def _seed_runs(cfg: ExperimentConfig, jobs: int, profile: bool = False) -> list:
    """One corrector sample per seed, each distinct realization solved once,
    with its energy profile when ``profile`` is set (only ``corrector``
    writes it).  Forked children share the truncated cube's tiling
    template, built before the fork."""
    c = cfg.corrector_config()
    results = _run_tasks(
        functools.partial(_corrector_task, cfg, profile=profile),
        [cfg.realization(s) for s in cfg.seeds], jobs,
        lambda: truncated_template(build_cell_mesh(c.interface, c.h), c.n, membranes=c.membranes))
    return [replace(results[cfg.realization(s)], seed=s) for s in cfg.seeds]


def cmd_corrector(cfg: ExperimentConfig, out: OutputTracker, jobs: int) -> None:
    runs = _seed_runs(cfg, jobs, profile=True)
    flux_rows = [(r.seed, "e1;e2", cfg.delta, cfg.n, cfg.m, r.flux) for r in runs]
    write_flux_csv(out.path("flux.csv"), flux_rows)
    energy_rows = [(r.seed, r.profile) for r in runs]
    write_energy_csv(out.path("energy.csv"), energy_rows)
    print(f"corrector: {len(cfg.seeds)} seeds -> flux.csv, energy.csv")


def cmd_effective(cfg: ExperimentConfig, out: OutputTracker, jobs: int) -> None:
    if cfg.num_seeds < 2:
        raise ConfigError(
            f"num_seeds: the effective tensor needs >= 2 seeds for a standard error, "
            f"got {cfg.num_seeds}"
        )
    runs = _seed_runs(cfg, jobs)
    vs = volume_stats(cfg.make_map, cfg.seeds, cfg.interface)
    t = effective_tensor(runs, rho=vs["rho"], config_hash=cfg.hash(A0_KEYS), theta=vs["theta"])
    verdict = ellipticity_check(t, runs=runs)
    write_effective_json(out.path("effective.json"), t)
    eig = verdict["eigenvalues"]
    print(f"effective: A0 eigenvalues [{eig[0]:.6g}, {eig[1]:.6g}] -> effective.json")


def cmd_homogenize(cfg: ExperimentConfig, out: OutputTracker, jobs: int) -> None:
    eff_path = os.path.join(out.out_dir, "effective.json")
    try:  # why: None reuses the stored tensor; a string recomputes it, noting a nonempty one
        t = read_effective_json(eff_path)
        ellipticity_check(t)
        why = None if t.config_hash == cfg.hash(A0_KEYS) else "is for another config"
    except FileNotFoundError:
        why = ""
    except (OSError, ValueError, KeyError, TypeError, EllipticityViolation) as exc:
        why = f"cannot be used ({type(exc).__name__}: {exc})"
    if why is not None:
        if why:
            print(f"homogenize: effective.json {why}; recomputing", file=sys.stderr)
        cmd_effective(cfg, out, jobs)
        t = read_effective_json(eff_path)
    eps_sorted = sorted(cfg.eps, reverse=True)
    u0 = solve_homog(t.A0, SOURCE_PRESETS[cfg.source], m=cfg.homog_grid)
    keys = [(cfg.realization(s), e) for s in cfg.seeds for e in eps_sorted]
    results = _run_tasks(functools.partial(_hetero_task, cfg, u0, t), keys, jobs,
                         lambda: build_cell_mesh(cfg.interface, cfg.h),  # children share it
                         cost=lambda key: key[1] ** -2)  # the eps-domain's cell count
    rows = [replace(results[(cfg.realization(s), e)], seed=s)
            for s in cfg.seeds for e in eps_sorted]
    write_convergence_csv(out.path("convergence.csv"), rows)

    report = {"config_hash": cfg.hash(), "A0": t.A0.tolist(), "theta": t.theta}
    if len(eps_sorted) >= 3:
        rates = {}
        for seed in cfg.seeds:  # rows are by seed, eps decreasing
            slope, r2 = rate_fit(*zip(*[(r.eps, r.l2_error) for r in rows if r.seed == seed]))
            rates[str(seed)] = {"rate": slope, "r_squared": r2}
        report["l2_rates"] = rates
    write_report_json(out.path("report.json"), report)
    print(f"homogenize: {len(results)} solves, {len(rows)} rows -> convergence.csv, report.json")


def cmd_verify(cfg: ExperimentConfig, out: OutputTracker, jobs: int) -> None:
    rng = np.random.default_rng(cfg.seed)
    checked = 0
    for _ in range(cfg.instances):
        inst = random_induction_instance(rng)
        backward_induction_bound(inst)
        checked += 1
    cases = {}
    for name, dmap in (
        ("identity", IdentityMap()),
        ("scaling", ScalingMap(2.0)),
        ("bump", BumpMap(amplitude=cfg.amplitude)),
    ):
        r = surface_integral_crosscheck(dmap, lambda p: np.ones(len(p)), cfg.interface)
        cases[name] = r
    report = {
        "config_hash": cfg.hash(),
        "induction_instances_checked": checked,
        "surface_crosscheck": cases,
        "max_crosscheck_diff": max(c["diff"] for c in cases.values()),
    }
    write_report_json(out.path("verify_report.json"), report)
    print(
        f"verify: {checked} induction instances, "
        f"max surface diff {report['max_crosscheck_diff']:.3g} -> verify_report.json"
    )


# Each command with the files it may write in --out and the keys that size
# its allocations (verify allocates a fixed amount).
COMMANDS = {
    "mesh": (cmd_mesh, ("mesh.txt",), ("radius", "h")),
    "corrector": (cmd_corrector, ("flux.csv", "energy.csv"), ("h", "n")),
    "effective": (cmd_effective, ("effective.json",), ("h", "n")),
    "homogenize": (cmd_homogenize, ("effective.json", "convergence.csv", "report.json"),
                   ("h", "n", "eps", "homog_grid")),
    "verify": (cmd_verify, ("verify_report.json",), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="membrane-homog",
        description="stochastic homogenization workbench for membrane media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file (key = value lines or JSON)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--jobs", type=int, help="worker count (default 1)")
        p.add_argument("--dry-run", action="store_true", help="print the plan and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, outputs, sizes = COMMANDS[args.command]
    try:
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = ExperimentConfig(**{**asdict(cfg), "seed": args.seed})
        jobs = resolve_jobs(args)
        out = None if args.dry_run else OutputTracker(args.out, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        plan = {"command": args.command, "out": args.out, "jobs": jobs,
                "config": asdict(cfg), "config_hash": cfg.hash()}
        print(json.dumps(plan, indent=2, sort_keys=True))
        return 0
    try:
        command(cfg, out, jobs)
    except ConfigError as exc:
        out.cleanup()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MeshQualityFailure as exc:  # raised only by build_cell_mesh(cfg.interface, cfg.h)
        out.cleanup()
        print(f"config error: radius, h: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the sizes asked for do not fit in memory
        out.cleanup()
        keys = ", ".join(sizes) + ": " if sizes else ""
        reason = str(exc) or "an allocation was refused"
        print(f"config error: {keys}out of memory: {reason}", file=sys.stderr)
        return 2
    except MembraneHomogError as exc:
        out.cleanup()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception:
        out.cleanup()
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
