import argparse
import functools
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import membrane_homog.cli as cli
import membrane_homog.corrector as corrector
import membrane_homog.effective as effective
import membrane_homog.homogenize as homogenize
import membrane_homog.meshing as meshing
from membrane_homog.cli import ExperimentConfig, main, parse_config, resolve_jobs
from membrane_homog.effective import (
    corrector_runs,
    effective_tensor,
    read_effective_json,
    volume_stats,
)
from membrane_homog.errors import ConfigError, MembraneHomogError, SolverDivergence
from membrane_homog.fem import CONDUCTIVITY_PRESETS

from helpers import counted_forks, flat_triangles

QUICK_CFG = """\
# quick smoke config
map = identity
eps = 1/4
num_seeds = 2
n = 2
m = 1
h = 0.1
instances = 20
"""

# The same tiny problem on random (Bernoulli) geometry.
BERNOULLI_CFG = QUICK_CFG.replace("map = identity", "map = bernoulli")


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(QUICK_CFG)
    return str(p)


class TestConfigParsing:
    def test_key_value_format(self, cfg_path):
        cfg = parse_config(cfg_path)
        assert cfg.map == "identity"
        assert cfg.eps == [0.25]
        assert cfg.num_seeds == 2
        assert cfg.h == 0.1

    def test_json_format(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"map": "bump", "eps": [0.25, 0.125], "n": 4, "m": 2}))
        cfg = parse_config(str(p))
        assert cfg.map == "bump"
        assert cfg.eps == [0.25, 0.125]

    def test_malformed_delta_names_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("delta = 0\n")
        with pytest.raises(ConfigError, match="delta"):
            parse_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("meshsize = 0.1\n")
        with pytest.raises(ConfigError, match="meshsize"):
            parse_config(str(p))

    def test_hash_stable_under_key_order(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("h = 0.1\nn = 4\nm = 2\n")
        b.write_text("m = 2\nn = 4\nh = 0.1\n")
        assert parse_config(str(a)).hash() == parse_config(str(b)).hash()

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="m"):
            ExperimentConfig(n=2, m=2)

    def test_readme_block_is_the_defaults(self, tmp_path):
        # the README's config block says every key defaults to its value there
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Config format.*?```ini\n(.*?)```", readme, re.S).group(1)
        p = tmp_path / "readme.cfg"
        p.write_text(block)
        assert asdict(parse_config(str(p))) == asdict(ExperimentConfig())


class TestPipeline:
    def test_smoke_full_pipeline(self, cfg_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["homogenize", "--config", cfg_path, "--out", out]) == 0
        for name in ("effective.json", "convergence.csv", "report.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["config_hash"] == parse_config(cfg_path).hash()

    def test_mesh_and_corrector_and_verify(self, cfg_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["mesh", "--config", cfg_path, "--out", out]) == 0
        assert main(["corrector", "--config", cfg_path, "--out", out]) == 0
        assert main(["verify", "--config", cfg_path, "--out", out]) == 0
        for name in ("mesh.txt", "flux.csv", "energy.csv", "verify_report.json"):
            assert os.path.exists(os.path.join(out, name))

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_mesh_prints_counts_and_min_angle(self, tmp_path, capsys, h):
        """The mesh command prints the counts and smallest angle of the cell
        mesh of the config's interface and h, the angle found here from the
        triangles' edge vectors."""
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("h = 0.1", f"h = {h}"))
        cfg = parse_config(str(p))
        mesh = meshing.build_cell_mesh(cfg.interface, cfg.h)
        corners = mesh.vertices[flat_triangles(mesh).triangles]
        u, v = np.roll(corners, -1, axis=1) - corners, np.roll(corners, 1, axis=1) - corners
        cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        angle = np.degrees(np.arctan2(np.abs(cross), (u * v).sum(axis=2))).min()
        assert main(["mesh", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert out == (f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles, "
                       f"min angle {angle:.2f} deg\n")

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("delta = 0\n")
        assert main(["corrector", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "delta" in capsys.readouterr().err

    def test_dry_run_writes_nothing(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "dry")
        assert main(["homogenize", "--config", cfg_path, "--out", out, "--dry-run"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["command"] == "homogenize"
        assert not os.path.exists(out)

    def test_corrector_task_returns_a_small_sample(self):
        """A corrector task returns its realization's sample, not its
        mesh and solutions."""
        cfg = ExperimentConfig(map="bernoulli", n=2, m=1, h=0.1)
        assert len(pickle.dumps(cli._corrector_task(cfg, 0))) < 4096


class TestDeterminism:
    def run(self, cfg_path, out):
        assert main(["homogenize", "--config", cfg_path, "--out", str(out)]) == 0

    def test_rerun_byte_identical(self, cfg_path, tmp_path):
        self.run(cfg_path, tmp_path / "a")
        self.run(cfg_path, tmp_path / "b")
        for name in ("effective.json", "convergence.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("command, map_kind, jobs", [
        (command, map_kind, jobs) for command in ("corrector", "homogenize")
        for map_kind in ("identity", "bernoulli") for jobs in (2, 3)])
    def test_jobs_independent(self, tmp_path, monkeypatch, capsys, command, map_kind, jobs):
        """``--jobs`` 2 and 3 write the bytes and print the lines of
        ``--jobs 1``, and fork ``min(jobs, distinct keys) - 1`` children per
        task table: a corrector table has a key per distinct realization,
        homogenize's a key per (realization, eps) after its corrector table."""
        forks = counted_forks(monkeypatch, 3)
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("map = identity", f"map = {map_kind}")
                     .replace("eps = 1/4", "eps = 1/4, 1/8"))
        printed = {}
        for j in (1, jobs):
            out = str(tmp_path / str(j))
            assert main([command, "--config", str(p), "--out", out, "--jobs", str(j)]) == 0
            printed[j] = capsys.readouterr()
        realizations = 2 if map_kind == "bernoulli" else 1
        tables = [realizations] + ([2 * realizations] if command == "homogenize" else [])
        assert forks == [PARENT] * sum(min(jobs, keys) - 1 for keys in tables)
        assert printed[1] == printed[jobs]
        one, many = tmp_path / "1", tmp_path / str(jobs)
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(many)) and names
        for name in names:
            assert (one / name).read_bytes() == (many / name).read_bytes()

    def test_seed_override_changes_hash(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "x")
        assert main([
            "homogenize", "--config", cfg_path, "--out", out, "--seed", "5", "--dry-run",
        ]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["config"]["seed"] == 5
        assert plan["config_hash"] != parse_config(cfg_path).hash()


class TestRandomMaps:
    def test_bernoulli_homogenize_runs(self, tmp_path):
        # the Monte-Carlo A0 is symmetric only within its standard error
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        out = tmp_path / "run"
        assert main(["homogenize", "--config", str(p), "--out", str(out), "--jobs", "2"]) == 0
        A0 = json.loads((out / "effective.json").read_text())["A0"]
        assert A0[0][1] != A0[1][0]
        assert (out / "convergence.csv").read_text().count("\n") == 3  # header + 2 seeds

    @pytest.mark.parametrize(
        "extra", ["", "radius = 0.4\namplitude = 0.6\nconductivity = aniso\n"],
        ids=["tiny", "large_inclusion_aniso"],
    )
    def test_bump_effective_and_homogenize_run(self, tmp_path, extra):
        # identical realizations (stderr 0); at radius 0.4 the mesh alone leaves
        # A0 a skew part of 8e-7 |A0|
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("map = identity", "map = bump") + extra)
        out = tmp_path / "run"
        assert main(["effective", "--config", str(p), "--out", str(out)]) == 0
        assert main(["homogenize", "--config", str(p), "--out", str(out)]) == 0

    def test_bernoulli_effective_with_skew_of_ten_standard_errors(self, tmp_path):
        # two seeds from 1840 on: the skew part of A0 is 10.3 times the largest
        # standard error, which one degree of freedom cannot pin down
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        out = tmp_path / "run"
        assert main(["effective", "--seed", "1840", "--config", str(p), "--out", str(out)]) == 0
        t = read_effective_json(out / "effective.json")
        assert abs(t.A0[0, 1] - t.A0[1, 0]) > 10.0 * t.stderr.max()

    def test_homogenize_recomputes_tensor_of_another_config(self, tmp_path, capsys):
        cfgs = {}
        for radius in ("0.1", "0.2"):
            cfgs[radius] = tmp_path / f"r{radius}.cfg"
            cfgs[radius].write_text(QUICK_CFG + f"radius = {radius}\n")
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(["effective", "--config", str(cfgs["0.1"]), "--out", str(shared)]) == 0
        assert main(["homogenize", "--config", str(cfgs["0.2"]), "--out", str(shared)]) == 0
        assert "recomputing" in capsys.readouterr().err
        assert main(["homogenize", "--config", str(cfgs["0.2"]), "--out", str(fresh)]) == 0
        for name in ("effective.json", "report.json", "convergence.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "without_stderr", "not_an_object"])
    def test_homogenize_recomputes_malformed_tensor(self, cfg_path, tmp_path, capsys, damage):
        fresh, damaged = tmp_path / "fresh", tmp_path / "damaged"
        assert main(["homogenize", "--config", cfg_path, "--out", str(fresh)]) == 0
        text = (fresh / "effective.json").read_text()
        if damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "not_an_object":
            text = "[]"
        else:
            payload = json.loads(text)
            del payload["stderr"]
            text = json.dumps(payload)
        damaged.mkdir()
        (damaged / "effective.json").write_text(text)
        capsys.readouterr()
        assert main(["homogenize", "--config", cfg_path, "--out", str(damaged)]) == 0
        assert "recomputing" in capsys.readouterr().err
        for name in ("effective.json", "report.json", "convergence.csv"):
            assert (damaged / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("A0", [[float("nan"), 0.0], [0.0, 0.77]]),
        ("A0", [[-0.77, 0.0], [0.0, -0.77]]),
        ("A0", [[0.77, 0.0], [0.0, -0.77]]),
        ("theta", float("nan")),
    ], ids=["nan", "negative_definite", "indefinite", "nan_theta"])
    def test_homogenize_recomputes_invalid_tensor_of_same_config(
        self, cfg_path, tmp_path, capsys, key, value
    ):
        fresh, damaged = tmp_path / "fresh", tmp_path / "damaged"
        assert main(["homogenize", "--config", cfg_path, "--out", str(fresh)]) == 0
        payload = json.loads((fresh / "effective.json").read_text())
        payload[key] = value  # the config_hash still matches
        damaged.mkdir()
        (damaged / "effective.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["homogenize", "--config", cfg_path, "--out", str(damaged)]) == 0
        assert "recomputing" in capsys.readouterr().err
        for name in ("effective.json", "report.json", "convergence.csv"):
            assert (damaged / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("stderr", [[0.0, 0.0]]), ("N", 1), ("N", 2.0), ("A0", [["a", 0.0], [0.0, 1.0]]),
        ("rho", 0.0), ("theta", 1.0),
    ])
    def test_read_effective_json_rejects_invalid_fields(self, cfg_path, tmp_path, key, value):
        assert main(["effective", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        path = tmp_path / "effective.json"
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            read_effective_json(path)

    def test_homogenize_reuses_tensor_of_same_a0_config(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["effective", "--config", cfg_path, "--out", str(out)]) == 0
        before = (out / "effective.json").stat().st_mtime_ns
        # source does not enter A0, so the stored tensor is reused
        p = tmp_path / "tilted.cfg"
        p.write_text(QUICK_CFG + "source = tilted\n")
        assert main(["homogenize", "--config", str(p), "--out", str(out)]) == 0
        assert "recomputing" not in capsys.readouterr().err
        assert (out / "effective.json").stat().st_mtime_ns == before


class TestDistinctRealizations:
    """Each distinct realization is solved once and its result given to every
    seed; only the Bernoulli map's realizations differ from seed to seed."""

    @pytest.mark.parametrize("map_kind, num_seeds, correctors, hetero", [
        ("identity", 3, 1, 2), ("bump", 3, 1, 2), ("bernoulli", 2, 2, 4),
    ])
    def test_solves_per_distinct_realization(self, tmp_path, monkeypatch, map_kind, num_seeds,
                                             correctors, hetero):
        calls = {"corrector": 0, "hetero": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "corrector_runs", counted("corrector", cli.corrector_runs))
        monkeypatch.setattr(cli, "solve_hetero", counted("hetero", cli.solve_hetero))
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("map = identity", f"map = {map_kind}")
                     .replace("num_seeds = 2", f"num_seeds = {num_seeds}")
                     .replace("eps = 1/4", "eps = 1/4, 1/8"))
        out = tmp_path / "run"
        assert main(["homogenize", "--config", str(p), "--out", str(out), "--jobs", "1"]) == 0
        assert calls == {"corrector": correctors, "hetero": hetero}
        if map_kind == "bernoulli":
            return
        lines = (out / "convergence.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            [str(s), e] for s in range(num_seeds) for e in ("0.25", "0.125")
        ]
        assert len({line.split(",", 1)[1] for line in lines}) == 2  # one row per eps
        t = json.loads((out / "effective.json").read_text())
        assert t["N"] == num_seeds
        assert t["stderr"] == [[0.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("extra", ["", "conductivity = aniso\namplitude = 0.3\n"],
                             ids=["identity_conductivity", "aniso"])
    def test_effective_equals_per_seed_solving(self, tmp_path, extra):
        """The tensor of one realization given to three seeds is bitwise the
        tensor of three solves.  With aniso the mean of the three equal samples
        is not the sample, so stderr is a rounding residue, not 0."""
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("map = identity", "map = bump")
                     .replace("num_seeds = 2", "num_seeds = 3") + extra)
        out = tmp_path / "run"
        assert main(["effective", "--config", str(p), "--out", str(out)]) == 0
        cfg = parse_config(str(p))
        runs = corrector_runs(cfg.make_map, cfg.seeds, cfg.corrector_config(),
                              CONDUCTIVITY_PRESETS[cfg.conductivity])
        vs = volume_stats(cfg.make_map, cfg.seeds, cfg.interface)
        t = effective_tensor(runs, rho=vs["rho"])
        stored = json.loads((out / "effective.json").read_text())
        assert stored["A0"] == t.A0.tolist()
        assert stored["stderr"] == t.stderr.tolist()


SHARED = []  # what the parent built before the call; a forked child sees it
PARENT = os.getpid()  # the process that runs the tests


def _logged_square(log, key):
    """A worker that appends its pid and key to ``log`` (one line per run,
    from any process) and returns the key squared and what the parent built."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {key}\n")
    return key * key, list(SHARED)


def _runs(log):
    """The keys each process ran, by pid, from a ``_logged_square`` log."""
    runs = {}
    for line in log.read_text().splitlines():
        pid, key = line.split()
        runs.setdefault(int(pid), []).append(int(key))
    return runs


def _dies_in_child(how, key):
    """A worker that returns ``key`` in the parent and, in a forked child,
    ends the child ``how`` without sending anything."""
    if os.getpid() != PARENT:
        if how == "SIGKILL":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)
    return key


def _fails_in_parent(key):
    """A worker that raises in the parent and, in a child, sleeps until killed."""
    if os.getpid() == PARENT:
        raise ValueError(f"parent share failed at {key}")
    time.sleep(60)
    return key


def _diverges_in_child(key):
    """A worker that returns ``key`` in the parent and raises SolverDivergence in a child."""
    if os.getpid() != PARENT:
        raise SolverDivergence(f"residual 1e-3 at key {key}")
    return key


class TestTaskTable:
    """``_run_tasks`` runs each distinct key once, in this process or in
    forked children that see what this process built before the call,
    forks only with two or more shares, and returns the results by key."""

    @pytest.mark.parametrize("jobs, keys, forks", [
        (1, [3, 1, 3, 2, 1], False), (1, [5, 5, 5], False), (2, [5, 5, 5], False),
        (2, [3, 1, 3, 2, 1], True), (2, [4, 7], True),
    ])
    def test_each_distinct_key_runs_once(self, tmp_path, jobs, keys, forks):
        SHARED[:] = ["template"]
        log = tmp_path / "runs"
        results = cli._run_tasks(functools.partial(_logged_square, log), keys, jobs)
        distinct = list(dict.fromkeys(keys))
        runs = _runs(log)
        assert sorted(k for ks in runs.values() for k in ks) == sorted(distinct)
        assert (set(runs) != {PARENT}) == forks
        assert list(results) == distinct
        assert results == {k: (k * k, ["template"]) for k in distinct}

    def test_costliest_key_runs_in_the_parent(self, tmp_path):
        """Three shares of five keys of unequal cost: the costliest key is the
        parent's whole share, and each next key goes to the least-loaded share."""
        SHARED[:] = ["mesh"]
        log = tmp_path / "runs"
        keys = [3, 1, 4, 5, 2, 4]
        results = cli._run_tasks(functools.partial(_logged_square, log), keys, 3,
                                 cost=lambda key: key)
        runs = _runs(log)
        assert runs.pop(PARENT) == [5]
        assert sorted(runs.values()) == [[3, 2], [4, 1]]
        assert list(results) == [3, 1, 4, 5, 2]
        assert results == {k: (k * k, ["mesh"]) for k in keys}

    @pytest.mark.parametrize("how, says", [("SIGKILL", "killed by SIGKILL"),
                                           ("exit", "exit status 3")])
    def test_child_ending_without_results_names_how(self, how, says):
        with pytest.raises(MembraneHomogError, match=re.escape(
                f"a worker process ended without its results ({says})")):
            cli._run_tasks(functools.partial(_dies_in_child, how), [1, 2, 3], 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_parent_failure_kills_and_reaps_every_child(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="parent share failed at 1"):
            cli._run_tasks(_fails_in_parent, [1, 2, 3], 3)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_exception_raises_in_the_parent(self):
        with pytest.raises(SolverDivergence, match="^residual 1e-3 at key 2$"):
            cli._run_tasks(_diverges_in_child, [1, 2], 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestChildFailures:
    """A forked child's failure ends the CLI as the same failure in one
    process would: exit 1, ``error: ...`` on stderr, the outputs removed and
    no child left."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_killed_child_exits_1_and_removes_the_outputs(self, tmp_path, monkeypatch, capsys):
        real = cli._hetero_task

        def killed_in_child(*args):
            if os.getpid() != PARENT:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(cli, "_hetero_task", killed_in_child)
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("eps = 1/4", "eps = 1/4, 1/8"))
        out = tmp_path / "o"
        assert main(["homogenize", "--config", str(p), "--out", str(out), "--jobs", "2"]) == 1
        assert capsys.readouterr().err == ("error: MembraneHomogError: a worker process ended "
                                           "without its results (killed by SIGKILL)\n")
        assert list(out.iterdir()) == []  # effective.json, written before the fork, too
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_divergence_reads_as_in_one_process(self, tmp_path, monkeypatch, capsys):
        real = cli.corrector_runs

        def diverges_at_seed_1(make_map, seeds, *args, **kwargs):
            if seeds == [1]:  # with two jobs, seed 1 is the child's share
                raise SolverDivergence("residual 1e-3 after 3 applications")
            return real(make_map, seeds, *args, **kwargs)

        monkeypatch.setattr(cli, "corrector_runs", diverges_at_seed_1)
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        ended = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            ended.append((main(["effective", "--config", str(p), "--out", str(out),
                                "--jobs", jobs]), capsys.readouterr().err))
        assert ended == 2 * [(1, "error: SolverDivergence: residual 1e-3 after 3 applications\n")]


class TestOneTemplatePerRun:
    """Forked children running two or more realizations of one configuration
    share the tiling template that their parent built before forking."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_parent_builds_the_template_once_and_workers_none(self, tmp_path, monkeypatch, jobs):
        if int(jobs) > (os.cpu_count() or 1):
            pytest.skip("needs two CPUs to fork")
        builds = tmp_path / "builds"
        real = meshing._Tiling.__init__

        def logged(self, *args):
            with open(builds, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            real(self, *args)

        monkeypatch.setattr(meshing._Tiling, "__init__", logged)
        meshing._template.cache_clear()
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        out = str(tmp_path / "o")
        assert main(["effective", "--config", str(p), "--out", out, "--jobs", jobs]) == 0
        assert builds.read_text().split() == [str(os.getpid())]

    def test_homogenize_parent_builds_the_cell_mesh(self, tmp_path, monkeypatch):
        """homogenize's forked children share the cell mesh the parent built."""
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs two CPUs to fork")
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("eps = 1/4", "eps = 1/4, 1/8"))
        out = str(tmp_path / "o")
        assert main(["effective", "--config", str(p), "--out", out]) == 0
        builds = tmp_path / "builds"
        real = meshing._annulus_triangles

        def logged(*args):
            with open(builds, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(meshing, "_annulus_triangles", logged)
        meshing.build_cell_mesh.cache_clear()
        assert main(["homogenize", "--config", str(p), "--out", out, "--jobs", "2"]) == 0
        assert set(builds.read_text().split()) == {str(os.getpid())}

    def test_no_command_imports_scipy(self, tmp_path):
        # the five commands in one fresh process, each with --jobs 2: no scipy
        # module is ever loaded (scipy is a test dependency only)
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        code = ("import sys; from membrane_homog.cli import main\n"
                "for command in ('mesh', 'corrector', 'effective', 'homogenize', 'verify'):\n"
                "    argv = [command, '--config', sys.argv[1], '--out', sys.argv[2], '--jobs', '2']\n"
                "    assert main(argv) == 0, command\n"
                "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, str(p), str(tmp_path / "o")], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[-2] == "[]", done.stdout

    def test_import_loads_no_process_pool(self, tmp_path):
        # effective and homogenize fork their children in one fresh process
        # and load neither multiprocessing nor concurrent.futures
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from membrane_homog.cli import main\n"
                "for command in ('effective', 'homogenize'):\n"
                "    argv = [command, '--config', sys.argv[1], '--out', sys.argv[2], '--jobs', '2']\n"
                "    assert main(argv) == 0, command\n"
                "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, str(p), str(tmp_path / "o")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[-2] == "[]", done.stdout

    def test_children_do_not_repeat_the_parent_output(self, tmp_path):
        # homogenize prints the recomputed tensor's line, block-buffered into
        # a pipe, before it forks; the line is written once
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("eps = 1/4", "eps = 1/4, 1/8"))
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from membrane_homog.cli import main; sys.exit(main(sys.argv[1:]))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        argv = ["homogenize", "--config", str(p), "--out", str(tmp_path / "o"), "--jobs", "2"]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("effective: A0") == 1, done.stdout
        assert done.stdout.count("homogenize: 2 solves") == 1, done.stdout

    def test_effective_pool_run_imports_no_scipy_special(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        code = ("import sys; from membrane_homog.cli import main; rc = main(sys.argv[1:]); "
                "print('scipy.special' in sys.modules); sys.exit(rc)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["effective", "--config", str(p), "--out", str(tmp_path / "o"), "--jobs", "2"]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-1] == "False"


class TestOneDriver:
    """The CLI solves its correctors through the library's one truncated
    driver: one call per distinct realization, carrying both unit loads."""

    @pytest.mark.parametrize("map_kind, num_seeds, calls", [
        ("identity", 3, 1), ("bernoulli", 2, 2),
    ])
    def test_one_driver_call_per_realization(self, tmp_path, monkeypatch, map_kind, num_seeds,
                                             calls):
        loads = []
        solve_truncated = effective.solve_truncated

        def recorded(cfg, dmap, loads_, *args, **kwargs):
            loads.append(np.array(loads_, dtype=float))
            return solve_truncated(cfg, dmap, loads_, *args, **kwargs)

        monkeypatch.setattr(effective, "solve_truncated", recorded)
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("map = identity", f"map = {map_kind}")
                     .replace("num_seeds = 2", f"num_seeds = {num_seeds}"))
        assert main(["effective", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--jobs", "1"]) == 0
        assert len(loads) == calls
        for pair in loads:
            assert np.array_equal(pair, np.eye(2))


class TestProfileOnlyForCorrector:
    """Only ``corrector`` writes the energy profile, so only it computes one;
    ``effective`` and ``homogenize`` read no cell outside a sample's window."""

    def test_effective_and_homogenize_compute_no_profile(self, tmp_path, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("computed outside corrector")

        monkeypatch.setattr(corrector, "energy_profile", unused)
        monkeypatch.setattr(effective, "energy_profile", unused)
        monkeypatch.setattr(corrector.CorrectorSolution, "cell_energy", property(unused))
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        out = tmp_path / "run"
        for command in ("effective", "homogenize"):
            assert main([command, "--config", str(p), "--out", str(out), "--jobs", "1"]) == 0
        assert cli._corrector_task(parse_config(str(p)), 0).profile is None

    def test_corrector_writes_the_library_profile(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG)
        out = tmp_path / "run"
        assert main(["corrector", "--config", str(p), "--out", str(out), "--jobs", "1"]) == 0
        cfg = parse_config(str(p))
        rows = [line.split(",") for line in (out / "energy.csv").read_text().splitlines()[1:]]
        for seed in cfg.seeds:
            [e1] = corrector.solve_truncated(cfg.corrector_config(), cfg.make_map(seed), [[1.0, 0.0]])
            E = corrector.energy_profile(e1)
            assert [float(r[2]) for r in rows if r[0] == str(seed)] == E.tolist()


class TestHomogenizedSideOnce:
    """u0 is solved and paired once in the parent; each heterogeneous task
    carries its grid values and pairings, not its mesh."""

    def test_pairs_u0_once_and_ships_values(self, tmp_path, monkeypatch):
        paired, task_bytes = [], []  # the mesh of each run-by-run pairing
        runs, hetero_task = homogenize._runs, cli._hetero_task

        def counted_runs(mesh, *args):
            paired.append(mesh)
            return runs(mesh, *args)

        def measured_task(*task):
            task_bytes.append(len(pickle.dumps(task)))
            return hetero_task(*task)

        monkeypatch.setattr(homogenize, "_runs", counted_runs)
        monkeypatch.setattr(cli, "_hetero_task", measured_task)
        p = tmp_path / "exp.cfg"
        p.write_text(BERNOULLI_CFG.replace("eps = 1/4", "eps = 1/4, 1/8"))
        out = tmp_path / "run"
        assert main(["homogenize", "--config", str(p), "--out", str(out), "--jobs", "1"]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()[1:]
        assert len(rows) == len(task_bytes) == 4
        assert parse_config(str(p)).homog_grid == 128
        # u0 is paired once, on its grid; each error row pairs its own mesh
        assert sum(mesh.num_vertices == 129**2 for mesh in paired) == 1
        assert len(paired) == 1 + len(rows)
        assert max(task_bytes) < 200_000


class TestInputErrors:
    """Input the program cannot run exits 2 with a message naming the key."""

    @pytest.mark.parametrize(
        "extra, command, key",
        [
            ("eps = 0.3\n", ["homogenize"], "eps"),
            ("homog_grid = 0\n", ["homogenize"], "homog_grid"),
            ("homog_grid = 1\n", ["homogenize"], "homog_grid"),
            ("map = bernoulli\n", ["effective", "--seed", "-1"], "seed"),
            ("map = bump\namplitude = 5\n", ["effective"], "amplitude"),
            ("eps = 1/0\n", ["homogenize"], "eps"),
            ("h = 1/0\n", ["effective", "--dry-run"], "h"),
            ("h = inf\n", ["effective"], "h"),
            ("", ["verify", "--seed", "-1"], "seed"),
            ("eps =\n", ["homogenize"], "eps"),
            ("eps = 1/4, 1/4, 1/4\n", ["homogenize"], "eps"),
            ("eps = 1/4, 0.25000000000001\n", ["homogenize"], "eps"),
            ("eps = 2.225073858507e-311\n", ["homogenize"], "eps"),
        ],
        ids=["non_integer_reciprocal_eps", "zero_homog_grid", "one_homog_grid",
             "negative_bernoulli_seed", "folding_bump_amplitude", "eps_zero_division",
             "h_zero_division", "h_infinite", "negative_verify_seed", "empty_eps",
             "repeated_eps", "same_reciprocal_eps", "subnormal_eps"],
    )
    def test_exits_2_naming_key(self, tmp_path, capsys, extra, command, key):
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG + extra)
        out = tmp_path / "o"
        assert main([*command, "--config", str(p), "--out", str(out)]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"n": "8"}', "n"),
            ('{"eps": 0.25}', "eps"),
            ('{"num_seeds": 2.5}', "num_seeds"),
            ('{"amplitude": NaN}', "amplitude"),
            ('{"conductivity": ["aniso"]}', "conductivity"),
        ],
        ids=["string_n", "scalar_eps", "fractional_num_seeds", "nan_amplitude",
             "list_conductivity"],
    )
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry_run"])
    def test_ill_typed_json_exits_2_naming_key(self, tmp_path, capsys, text, key, dry_run):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        assert main(["effective", "--config", str(p), "--out", str(tmp_path / "o"), *dry_run]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exits_2_naming_path(self, tmp_path, capsys, kind):
        p = tmp_path / "exp.cfg"
        if kind == "directory":
            p.mkdir()
        elif kind == "not_utf8":
            p.write_bytes(b"map = \xff\xfe\n")
        assert main(["effective", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: --config {p}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_that_is_a_file_exits_2_naming_path(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"config error: --out {out}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name",
        [("effective", "effective.json"), ("homogenize", "effective.json"),
         ("homogenize", "convergence.csv")],
        ids=["effective_json", "homogenize_effective_json", "homogenize_convergence_csv"],
    )
    def test_output_name_that_is_a_directory_exits_2(self, cfg_path, tmp_path, capsys,
                                                      command, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert f"config error: --out {out}: {out / name}" in capsys.readouterr().err
        assert (out / name).is_dir()

    @pytest.mark.parametrize(
        "command, name",
        [("effective", "effective.json"), ("homogenize", "convergence.csv")],
        ids=["effective_json", "homogenize_convergence_csv"],
    )
    def test_output_directory_rejected_before_any_solve(self, cfg_path, tmp_path, capsys,
                                                        monkeypatch, command, name):
        def no_tasks(*args, **kwargs):
            raise AssertionError("solves started")

        monkeypatch.setattr(cli, "_run_tasks", no_tasks)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        assert f"config error: --out {out}: {out / name}" in capsys.readouterr().err

    def test_failed_run_keeps_outputs_it_did_not_write(self, cfg_path, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise SolverDivergence("no convergence")

        monkeypatch.setattr(cli, "_run_tasks", diverge)
        out = tmp_path / "o"
        out.mkdir()
        (out / "convergence.csv").write_text("earlier run\n")
        assert main(["homogenize", "--config", cfg_path, "--out", str(out)]) == 1
        assert (out / "convergence.csv").read_text() == "earlier run\n"

    def test_unmeshable_radius_exits_2_naming_radius_and_h(self, tmp_path, capsys):
        """A cell mesh whose inner rings cannot keep halving is a config
        error naming the two keys that size it, not a traceback."""
        p = tmp_path / "exp.cfg"
        p.write_text("map = bernoulli\nradius = 0.4\nh = 0.05\nn = 2\nm = 1\nnum_seeds = 2\n")
        assert main(["effective", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: radius, h: min angle")

    def test_out_of_memory_exits_2_naming_the_size_keys(self, tmp_path, capsys, monkeypatch):
        """A config that parses but asks for more memory than the machine has
        (a huge n, say) is a config error naming the keys that size the run,
        and the outputs written before it are removed.  The refusal is
        simulated: how a real one shows depends on the host's overcommit."""
        def refused(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(cli, "solve_homog", refused)
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG)
        out = tmp_path / "o"
        assert main(["homogenize", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: h, n, eps, homog_grid: out of memory: "
            "Unable to allocate 298. GiB for an array\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, patched, keys", [
        ("mesh", "build_cell_mesh", "radius, h: "),
        ("corrector", "corrector_runs", "h, n: "),
        ("effective", "corrector_runs", "h, n: "),
        ("verify", "surface_integral_crosscheck", ""),
    ])
    def test_out_of_memory_names_only_the_command_size_keys(
            self, tmp_path, capsys, monkeypatch, command, patched, keys):
        """Each command names the keys that size its allocations, none for
        verify, and a refusal without a reason still gets one."""
        def refused(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, patched, refused)
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG)
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {keys}out of memory: an allocation was refused\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["effective", "homogenize"])
    def test_single_seed_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, command):
        def no_solves(*args, **kwargs):
            raise AssertionError("corrector solves started")

        monkeypatch.setattr(cli, "corrector_runs", no_solves)
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG.replace("num_seeds = 2", "num_seeds = 1"))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "config error: num_seeds:" in capsys.readouterr().err

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        # the CPUs this process may run on, else the host's count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(argparse.Namespace(jobs=100000)) == 3
        assert resolve_jobs(argparse.Namespace(jobs=2)) == 2
        assert resolve_jobs(argparse.Namespace(jobs=0)) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_jobs(argparse.Namespace(jobs=100000)) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(argparse.Namespace(jobs=100000)) == 1


DEFAULTS = asdict(ExperimentConfig())
KEYS = list(DEFAULTS)
OTHER_KEYS = ["seeds", "realization", "interface", "hash", "__class__", ""]  # attributes that are not keys
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=5,
)
TEXT_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["1/0", "0/0", "inf", "-inf", "nan", "1e999", "1/4, 1/8", "2.5", "-3",
                     "bernoulli", "aniso", "tilted", "0", "1_0", ",", "1/4/2"]),
)


class TestParseProperty:
    """Any config text either parses or raises ConfigError, and nothing else;
    what parses carries values of the types of the defaults."""

    def parse(self, tmp_path, text):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        try:
            cfg = parse_config(str(p))
        except ConfigError:
            return
        for key, value in asdict(cfg).items():
            assert type(value) is type(DEFAULTS[key]), key
        assert all(type(e) is float for e in cfg.eps)
        cfg.hash()

    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(st.sampled_from(KEYS + OTHER_KEYS) | st.text(max_size=6), TEXT_VALUES,
                           max_size=5))
    def test_key_value_text(self, tmp_path_factory, entries):
        lines = [f"{k} = {v}" for k, v in entries.items() if "\n" not in k + v and "\r" not in k + v]
        self.parse(tmp_path_factory.mktemp("kv"), "\n".join(lines) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=5))
    def test_json_object(self, tmp_path_factory, entries):
        self.parse(tmp_path_factory.mktemp("json"), json.dumps(entries))
