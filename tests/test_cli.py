import argparse
import json
import os

import pytest

import membrane_homog.cli as cli
from membrane_homog.cli import ExperimentConfig, main, parse_config, resolve_jobs
from membrane_homog.errors import ConfigError

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


class TestPipeline:
    def test_smoke_full_pipeline(self, cfg_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["homogenize", "--config", cfg_path, "--out", out]) == 0
        for name in ("effective.json", "convergence.csv", "report.json"):
            assert os.path.exists(os.path.join(out, name))
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["config_hash"] == parse_config(cfg_path).hash()

    def test_mesh_and_corrector_and_verify(self, cfg_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["mesh", "--config", cfg_path, "--out", out]) == 0
        assert main(["corrector", "--config", cfg_path, "--out", out]) == 0
        assert main(["verify", "--config", cfg_path, "--out", out]) == 0
        for name in ("mesh.txt", "flux.csv", "energy.csv", "verify_report.json"):
            assert os.path.exists(os.path.join(out, name))

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


class TestDeterminism:
    def run(self, cfg_path, out):
        assert main(["homogenize", "--config", cfg_path, "--out", str(out)]) == 0

    def test_rerun_byte_identical(self, cfg_path, tmp_path):
        self.run(cfg_path, tmp_path / "a")
        self.run(cfg_path, tmp_path / "b")
        for name in ("effective.json", "convergence.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_jobs_independent(self, cfg_path, tmp_path):
        self.run(cfg_path, tmp_path / "a")
        assert main([
            "homogenize", "--config", cfg_path, "--out", str(tmp_path / "c"), "--jobs", "2",
        ]) == 0
        for name in ("convergence.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_env_jobs_override(self, cfg_path, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMBRANE_HOMOG_JOBS", "2")
        self.run(cfg_path, tmp_path / "a")
        monkeypatch.delenv("MEMBRANE_HOMOG_JOBS")
        self.run(cfg_path, tmp_path / "b")
        assert (tmp_path / "a" / "convergence.csv").read_bytes() == (
            tmp_path / "b" / "convergence.csv"
        ).read_bytes()

    def test_seed_override_changes_hash(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "x")
        assert main([
            "homogenize", "--config", cfg_path, "--out", out, "--seed", "5", "--dry-run",
        ]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["config"]["seed"] == 5
        assert plan["config_hash"] != parse_config(cfg_path).hash()


class TestInputErrors:
    """Input the program cannot run exits 2 with a message naming the key."""

    @pytest.mark.parametrize(
        "extra, command, key",
        [
            ("eps = 0.3\n", ["homogenize"], "eps"),
            ("homog_grid = 0\n", ["homogenize"], "homog_grid"),
            ("map = bernoulli\n", ["effective", "--seed", "-1"], "seed"),
            ("map = bump\namplitude = 5\n", ["effective"], "amplitude"),
        ],
        ids=["non_integer_reciprocal_eps", "zero_homog_grid", "negative_bernoulli_seed",
             "folding_bump_amplitude"],
    )
    def test_exits_2_naming_key(self, tmp_path, capsys, extra, command, key):
        p = tmp_path / "exp.cfg"
        p.write_text(QUICK_CFG + extra)
        out = tmp_path / "o"
        assert main([*command, "--config", str(p), "--out", str(out)]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err

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
        monkeypatch.delenv("MEMBRANE_HOMOG_JOBS", raising=False)
        cpus = os.cpu_count() or 1
        assert resolve_jobs(argparse.Namespace(jobs=100000)) == cpus
        assert resolve_jobs(argparse.Namespace(jobs=0)) == 1
        monkeypatch.setenv("MEMBRANE_HOMOG_JOBS", "100000")
        assert resolve_jobs(argparse.Namespace(jobs=None)) == cpus
