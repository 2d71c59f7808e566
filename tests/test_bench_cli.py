import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mirropt
from mirropt import bench
from mirropt.bench import METHODS, ConfigError, fit_rate, run_experiment
from mirropt.cli import main


def fixed_md_config(**overrides):
    cfg = {
        "seed": 7,
        "problem": {"generator": "abs_value", "dim": 1},
        "setup": {"origin": [1.0]},
        "method": {"name": "fixed_md", "R": 1.0, "M": 1.0, "N": 4},
    }
    cfg.update(overrides)
    return cfg


# one small config per method, each on a different generator where one fits
METHOD_CONFIGS = {
    "shor": {"seed": 1, "problem": {"generator": "abs_value", "dim": 2},
             "setup": {"origin": [1.0, -0.5]},
             "method": {"name": "shor", "lam": 0.05, "N": 60}},
    "fixed_md": {"seed": 2,                     # R = sqrt(ln 10), entropy
                 "problem": {"generator": "simplex_linear", "dim": 10},
                 "method": {"name": "fixed_md", "R": 1.5174271293851465,
                            "M": 1.0, "N": 100}},
    "adaptive_md": {"seed": 3,
                    "problem": {"generator": "quadratic_box", "dim": 4},
                    "method": {"name": "adaptive_md", "eps": 0.01, "N": 200}},
    "normalized_md": {"seed": 4, "problem": {"generator": "max_residual",
                                             "rows": 6, "cols": 8},
                      "method": {"name": "normalized_md", "R": 2.0, "N": 100}},
    "strongly_convex_md": {"seed": 5, "problem": {"generator": "quadratic_box",
                                                  "dim": 4},
                           "method": {"name": "strongly_convex_md", "mu": 1.0,
                                      "N": 100}},
    "constrained_nonsmooth": {"seed": 6, "problem": {"generator": "ttd_dual",
                                                     "nodes": 6, "bars": 8},
                              "method": {"name": "constrained_nonsmooth",
                                         "eps": 0.2}},
    "constrained_general": {"seed": 7, "problem": {"generator": "toy_lp",
                                                   "dim": 3, "pieces": 3},
                            "method": {"name": "constrained_general",
                                       "eps": 0.1}},
    "agm": {"seed": 8, "problem": {"generator": "quadratic_box", "dim": 3},
            "method": {"name": "agm", "N": 64}},
    "universal_agm": {"seed": 9, "problem": {"generator": "transport_dual",
                                             "rows": 2, "cols": 3},
                      "method": {"name": "universal_agm", "eps": 0.1,
                                 "L0": 1.0, "N": 50}},
    "mirror_prox": {"seed": 10, "problem": {"generator": "matrix_game",
                                            "rows": 3, "cols": 4},
                    "method": {"name": "mirror_prox", "N": 100}},
    "universal_mirror_prox": {"seed": 11,
                              "problem": {"generator": "bilinear_box"},
                              "method": {"name": "universal_mirror_prox",
                                         "eps": 0.01, "M_init": 1.0,
                                         "N": 200}},
}

# prints one InexactOracle value and every method config's trace hash
_PROCESS_RUN = """
import json, sys
import numpy as np
from mirropt.bench import run_experiment
from mirropt.oracles import FunctionOracle, InexactOracle
exact = FunctionOracle(lambda x: float(x @ x), lambda x: 2.0 * x)
value = InexactOracle(exact, 0.5, lipschitz=2.0, seed=3)(np.array([0.3, -0.7]))
hashes = {name: run_experiment(cfg)[1]["trace_sha256"]
          for name, cfg in json.loads(sys.argv[1]).items()}
print(json.dumps({"value": value.value, "subgradient":
                  value.subgradient.tolist(), "hashes": hashes}))
"""


def strip_elapsed(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ns")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


class TestFitRate:
    def test_inverse_k(self):
        k = np.arange(1, 101)
        assert fit_rate(k, 3.0 / k) == pytest.approx(-1.0, abs=0.01)

    def test_inverse_k_squared(self):
        k = np.arange(1, 101)
        assert fit_rate(k, 5.0 / k**2) == pytest.approx(-2.0, abs=0.01)

    def test_constant(self):
        k = np.arange(1, 51)
        assert fit_rate(k, np.full(50, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_rate(np.arange(1, 6), np.ones(5))
        with pytest.raises(ValueError):
            fit_rate(np.arange(1, 101), np.zeros(100))


class TestRunExperiment:
    def test_hand_worked_summary(self, tmp_path):
        code, summary = run_experiment(fixed_md_config(), out_dir=tmp_path,
                                       check_bounds=True, stem="toy")
        assert code == 0
        assert summary["bound"] == pytest.approx(0.5)
        assert summary["f_out"] == pytest.approx(0.375)
        assert summary["bounds_ok"]
        assert (tmp_path / "toy_trace.csv").exists()
        assert (tmp_path / "toy_summary.json").exists()

    def test_determinism(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, s1 = run_experiment(fixed_md_config(), out_dir=tmp_path / "a")
        _, s2 = run_experiment(fixed_md_config(), out_dir=tmp_path / "b")
        assert s1["trace_sha256"] == s2["trace_sha256"]
        assert strip_elapsed(tmp_path / "a" / "experiment_trace.csv") == \
            strip_elapsed(tmp_path / "b" / "experiment_trace.csv")

    def test_unknown_names(self):
        with pytest.raises(ConfigError, match="available"):
            run_experiment(fixed_md_config(
                problem={"generator": "frobnicate"}))
        with pytest.raises(ConfigError, match="available"):
            run_experiment(fixed_md_config(method={"name": "frobnicate"}))

    def test_missing_parameter(self):
        cfg = fixed_md_config(method={"name": "fixed_md", "R": 1.0})
        with pytest.raises(ConfigError, match="missing"):
            run_experiment(cfg)

    def test_method_kind_checked_before_build(self, monkeypatch):
        monkeypatch.setitem(bench.PROBLEMS, "matrix_game",
                            lambda *args: pytest.fail("generator ran"))
        cfg = {"seed": 1, "problem": {"generator": "matrix_game"},
               "method": {"name": "fixed_md", "R": 1.0, "M": 1.0, "N": 4}}
        with pytest.raises(ConfigError, match="does not apply"):
            run_experiment(cfg)

    def test_bound_violation_exit(self, tmp_path):
        # M below the true subgradient norm understates the guarantee
        cfg = fixed_md_config(method={"name": "fixed_md", "R": 1.0,
                                      "M": 0.3, "N": 4})
        code, summary = run_experiment(cfg, out_dir=tmp_path,
                                       check_bounds=True)
        assert code == 3
        assert not summary["bounds_ok"]

    def test_vi_experiment(self, tmp_path):
        cfg = {
            "seed": 3,
            "problem": {"generator": "matrix_game", "rows": 3, "cols": 3},
            "method": {"name": "mirror_prox", "N": 100},
        }
        code, summary = run_experiment(cfg, out_dir=tmp_path,
                                       check_bounds=True)
        assert code == 0
        assert summary["final_gap"] <= 0.2


def test_same_bytes_in_every_process():
    """Same config, same numbers, whatever the per-process hash salt."""
    assert set(METHOD_CONFIGS) == METHODS
    src = str(Path(mirropt.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [sys.executable, "-c", _PROCESS_RUN, json.dumps(METHOD_CONFIGS)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]


class TestCli:
    def write(self, tmp_path, cfg, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return p

    def test_solve_ok(self, tmp_path, capsys):
        p = self.write(tmp_path, fixed_md_config())
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["f_out"] == pytest.approx(0.375)

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["solve", "--config", str(p)]) == 2

    def test_unknown_method_lists_available(self, tmp_path, capsys):
        p = self.write(tmp_path, fixed_md_config(method={"name": "frobnicate"}))
        assert main(["solve", "--config", str(p)]) == 2
        assert "available" in capsys.readouterr().err

    def test_bound_violation_code(self, tmp_path):
        p = self.write(tmp_path, fixed_md_config(
            method={"name": "fixed_md", "R": 1.0, "M": 0.3, "N": 4}))
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 3

    def test_rates_roundtrip(self, tmp_path, capsys):
        cfg = {
            "seed": 5,
            "problem": {"generator": "quadratic_box", "dim": 3},
            "method": {"name": "agm", "N": 64},
        }
        p = self.write(tmp_path, cfg)
        assert main(["solve", "--config", str(p)]) == 0
        capsys.readouterr()
        trace = tmp_path / "cfg_trace.csv"
        assert main(["rates", "--trace", str(trace),
                     "--column", "bound_value"]) == 0
        slope = float(capsys.readouterr().out)
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_rates_bad_column(self, tmp_path, capsys):
        cfg = fixed_md_config()
        p = self.write(tmp_path, cfg)
        main(["solve", "--config", str(p)])
        capsys.readouterr()
        assert main(["rates", "--trace", str(tmp_path / "cfg_trace.csv"),
                     "--column", "nonexistent"]) == 2

    @pytest.mark.parametrize("cfg", [
        fixed_md_config(problem=[1]),
        fixed_md_config(method={"name": "fixed_md", "R": 1.0, "M": 1.0,
                                "N": "ten"}),
        fixed_md_config(method={"name": "fixed_md", "R": 1.0, "M": 1.0,
                                "N": -5}),
        fixed_md_config(method={"name": "adaptive_md", "eps": 0.1, "N": 0}),
        {"seed": 1, "problem": {"generator": "ttd_dual", "nodes": 1},
         "method": {"name": "constrained_nonsmooth", "eps": 0.1}},
        fixed_md_config(setup={"origin": [1.0, 2.0]}),
    ], ids=["problem-not-object", "N-not-int", "N-negative",
            "adaptive-N-zero", "ttd-one-node", "origin-wrong-length"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, cfg):
        p = self.write(tmp_path, cfg)
        assert main(["solve", "--config", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_rates_missing_file(self, tmp_path):
        assert main(["rates", "--trace", str(tmp_path / "none.csv"),
                     "--column", "f_value"]) == 1
