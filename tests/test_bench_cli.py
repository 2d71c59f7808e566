import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mirropt
from mirropt import (bench, constrained, oracles, problems, smoothing,
                     subgradient)
from mirropt.bench import (BOUND_SLACK, METHODS, ConfigError, fit_rate,
                           run_experiment, trace_csv_text, trace_hash)
from mirropt.cli import main
from mirropt.report import (_CHUNK_ROWS, TRACE_COLUMNS, RepeatSpan, RunTrace,
                            TraceRow)


def fixed_md_config(**overrides):
    cfg = {
        "seed": 7,
        "problem": {"generator": "abs_value", "dim": 1},
        "setup": {"origin": [1.0]},
        "method": {"name": "fixed_md", "R": 1.0, "M": 1.0, "N": 4},
    }
    cfg.update(overrides)
    return cfg


def game_config(seed=5, N=20, **problem):
    """Mirror Prox on a matrix game with the given problem entries."""
    return {"seed": seed, "problem": {"generator": "matrix_game", **problem},
            "method": {"name": "mirror_prox", "N": N}}


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

# prints one InexactOracle value and every config's trace hash, summary
# oracle_calls and iterations
_PROCESS_RUN = """
import json, sys
import numpy as np
from mirropt.bench import run_experiment
from mirropt.oracles import FunctionOracle, InexactOracle
exact = FunctionOracle(lambda x: float(x @ x), lambda x: 2.0 * x)
value = InexactOracle(exact, 0.5, lipschitz=2.0, seed=3)(np.array([0.3, -0.7]))
summaries = {name: run_experiment(cfg)[1]
             for name, cfg in json.loads(sys.argv[1]).items()}
print(json.dumps({"value": value.value, "subgradient":
                  value.subgradient.tolist(),
                  "hashes": {name: s["trace_sha256"]
                             for name, s in summaries.items()},
                  "counts": {name: [s["oracle_calls"], s["iterations"]]
                             for name, s in summaries.items()}}))
"""


# trace_sha256 of every METHOD_CONFIGS entry, of a small switching run on
# the truss dual, of two matrix games whose x has n % 4 != 0 columns and of
# EXTRA_CONFIGS, recorded with one BLAS thread (numpy 2.4.6, OpenBLAS
# 0.3.31): any change to the numerics or to the CSV bytes moves one of them
TTD_SWITCHING = {"seed": 1, "problem": {"generator": "ttd_dual", "nodes": 10,
                                        "bars": 20},
                 "method": {"name": "constrained_nonsmooth", "eps": 0.1}}
GAMES = {
    "mirror_prox_5x7": {"seed": 12, "problem": {"generator": "matrix_game",
                                                "rows": 5, "cols": 7},
                        "method": {"name": "mirror_prox", "N": 100}},
    "universal_mirror_prox_6x9": {
        "seed": 13, "problem": {"generator": "matrix_game", "rows": 6,
                                "cols": 9},
        "method": {"name": "universal_mirror_prox", "eps": 0.01,
                   "M_init": 1.0, "N": 500}},
}
# the ttd_switch benchmark workload's config at seed 1 (its switching run
# stops moving at step 524 of 121,714), a Universal Mirror Prox run beside
# METHOD_CONFIGS' bilinear_box one, which starts at the saddle point: this
# one takes 1-3 doubling trials per iteration and ends with gap 0.0044, and
# fixed-constant Mirror Prox on the same Euclidean game
EXTRA_CONFIGS = {
    "ttd_switch": {"seed": 1, "problem": {"generator": "ttd_dual",
                                          "nodes": 40, "bars": 120},
                   "method": {"name": "constrained_nonsmooth", "eps": 0.05}},
    "universal_mirror_prox_4x5": {
        "seed": 14, "problem": {"generator": "matrix_game", "rows": 4,
                                "cols": 5, "setup": "euclidean"},
        "method": {"name": "universal_mirror_prox", "eps": 0.01,
                   "M_init": 1.0, "N": 500}},
    "mirror_prox_4x5": {
        "seed": 14, "problem": {"generator": "matrix_game", "rows": 4,
                                "cols": 5, "setup": "euclidean"},
        "method": {"name": "mirror_prox", "N": 100}},
    # steps of 0.25 from 2.5 reach the optimum of |x| exactly: the run stops
    # at k = 10 with stopped_exact, a last row of step inf and gap 0
    "adaptive_md_exact": {
        "seed": 15, "problem": {"generator": "abs_value", "dim": 1},
        "setup": {"origin": [2.5]},
        "method": {"name": "adaptive_md", "eps": 0.25, "N": 50}},
}
GOLDEN_HASHES = {
    "shor": "0845bebbd4b1986db7b7f9c116fabdfb588f74cd0597b57f4093c60ce767d5f4",
    "fixed_md":
        "512c1d9b9a62338cf28078aead6d2553f7daacce1e113923a91a7a7c969bd245",
    "adaptive_md":
        "25d183e75f1f79d67f0cc6802780cbc335d956d346a8a380462d7f3a6f43805b",
    "normalized_md":
        "cd785dc909ffb9377860304848949c7ec7e422504d3bad5b3dd411ec45906ea6",
    "strongly_convex_md":
        "a2f794e6bf81ef289761c1e6a233f1987e135959a017ec7dda048832ec59ea0c",
    "constrained_nonsmooth":
        "eafd3b8dc59d07a2fa48af8b2cd3193538e1d362c9716dbe5fbd8ceda9e89b68",
    "constrained_general":
        "792c1cfa1e7d83bc4766b9114f993fafe40374b8a99fe171006c4b7f5a8bfa63",
    "agm": "3f88f050ad8c59d598f919976f8439413162ec38b5e450cc7bd6e8d7768ccfe0",
    "universal_agm":
        "8b6850a51d7785291e5c88048a3dd76bda11c86339352c2dae63a1ef5494a065",
    "mirror_prox":
        "479c0f0afc82baa9df9dfb281d92371f05e88fc988f4528875d8424701b715df",
    "universal_mirror_prox":
        "a693f300bf59fdb46df78532d8065e210e57a2db6da6bb26bcc3ee8f94d8910d",
    "ttd_switching":
        "998f46bc71a2f30374bddcffce970c43125eb50622cbdc1f0a52bddb6c1a1ac3",
    "mirror_prox_5x7":
        "bf148f3104b79f444751df57b7ec008de61d0911077878cd8bb6a35d4ecfd74a",
    "universal_mirror_prox_6x9":
        "89ab4fe525f86a8890c2488f78fd9c93dcd1c30231645241e3cf7a9d06d98b2a",
    "ttd_switch":
        "91d1dcc46ee7dba37d82ff07fa1d1347d657a5001ea133957a3c17aef2ccf689",
    "universal_mirror_prox_4x5":
        "2ac37ea5cf1122e213f64e7ad53b5dda6e23a8ef20c02ddb96be4c2be0e70ae6",
    "mirror_prox_4x5":
        "a9e8cc4e7a19ccd2715b9c7229cb9794ebcb2b00fda2f3943cee6fb62e7e8ae7",
    "adaptive_md_exact":
        "bff1e38675e574216a395e94dc4fd4d9430128d861dc4a4611b5d89266e1d77e",
}

# the summary's [oracle_calls, iterations] of every GOLDEN_HASHES config,
# recorded with them.  The trace hash does not cover the calls a run makes
# after its last row, such as fixed_md's f(x_bar) or the switching
# methods' audit of their output point
GOLDEN_COUNTS = {
    "shor": [61, 60], "fixed_md": [101, 100], "adaptive_md": [201, 200],
    "normalized_md": [100, 100], "strongly_convex_md": [101, 100],
    "constrained_nonsmooth": [1301, 807], "constrained_general": [315, 195],
    "agm": [128, 64], "universal_agm": [244, 50], "mirror_prox": [200, 100],
    "universal_mirror_prox": [14, 7], "ttd_switching": [12802, 6454],
    "mirror_prox_5x7": [200, 100], "universal_mirror_prox_6x9": [1130, 377],
    "ttd_switch": [243202, 121714], "universal_mirror_prox_4x5": [157, 53],
    "mirror_prox_4x5": [200, 100], "adaptive_md_exact": [12, 11],
}

# the trace hash of the four VI configs with the f_value and oracle_calls
# cells zeroed too, recorded like GOLDEN_HASHES.  Certifying each row's gap
# from a running average of Phi moves the last bits of f_value, and reusing
# Phi(z) across the doubling trials lowers Universal Mirror Prox's
# oracle_calls; these pin every other column to the bytes before that change
VI_CONFIGS = ("mirror_prox", "universal_mirror_prox", *GAMES)
MASKED_HASHES = {
    "mirror_prox":
        "006c529e8b47a82e5d8736f7330417b5c3860adddc35ca4890d2e0e0f648de16",
    "universal_mirror_prox":
        "e6932ba7296187b7cb5a178f4955797b4b2f5fbbd3794b97da45b78221ed7ea4",
    "mirror_prox_5x7":
        "bcee79f8748f02000124ad72b12342d0961958dd9086e60b50ada0ee83bc2897",
    "universal_mirror_prox_6x9":
        "7cf0b5d668c3550039324ae80ed71b3172a1aa530c29c87c603a153a2b4cda5b",
}
_MASKED_RUN = """
import hashlib, json, sys, tempfile
from pathlib import Path
from mirropt.bench import run_experiment
masked = ("f_value", "oracle_calls", "elapsed_ns")
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, cfg in json.loads(sys.argv[1]).items():
        run_experiment(cfg, out_dir=tmp, stem=name)
        header, *rows = Path(tmp, name + "_trace.csv").read_text().splitlines()
        drop = [header.split(",").index(c) for c in masked]
        text = header + "\\n"
        for row in rows:
            cells = row.split(",")
            for i in drop:
                cells[i] = "0"
            text += ",".join(cells) + "\\n"
        out[name] = hashlib.sha256(text.encode("ascii")).hexdigest()
print(json.dumps(out))
"""


# a MaxStructure built like the maxstruct_stream workload (4 nonzeros per
# row, nonzero normal entries) fed 3-sparse updates with a read after each;
# prints the SHA-256 of the reads (values, then 1-based argmaxes) and of
# the final z
_STREAM_RUN = """
import hashlib, json, sys
import numpy as np
import scipy.sparse as sp
from mirropt.maxstruct import MaxStructure, SparseVector
cfg = json.loads(sys.argv[1])
m, n, updates = cfg["m"], cfg["n"], cfg["updates"]
rng = np.random.default_rng(cfg["seed"])
def distinct_sorted(count, k):
    idx = np.sort(rng.integers(0, n, size=(count, k)), axis=1)
    while True:
        dup = np.flatnonzero((np.diff(idx, axis=1) == 0).any(axis=1))
        if dup.size == 0:
            return idx
        idx[dup] = np.sort(rng.integers(0, n, size=(dup.size, k)), axis=1)
def nonzero_normals(shape):
    vals = rng.standard_normal(shape)
    vals[vals == 0.0] = 1.0
    return vals
cols = distinct_sorted(m, 4)
A = sp.csr_matrix((nonzero_normals((m, 4)).ravel(), cols.ravel(),
                   np.arange(0, 4 * m + 1, 4)), shape=(m, n))
s = MaxStructure(A, rng.standard_normal(n))
idx, delta = distinct_sorted(updates, 3), nonzero_normals((updates, 3))
values, argmaxes = np.zeros(updates), np.zeros(updates, dtype=np.int64)
for u in range(updates):
    s.apply_sparse_update(SparseVector(idx[u], delta[u]))
    values[u], argmaxes[u] = s.query()
print(json.dumps({
    "reads": hashlib.sha256(values.tobytes() + argmaxes.tobytes()).hexdigest(),
    "z": hashlib.sha256(s.z.tobytes()).hexdigest()}))
"""


ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}


def _run_in_process(configs, script=_PROCESS_RUN, **env):
    src = str(Path(mirropt.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(configs)],
        env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True,
        text=True, timeout=300, check=True)
    return json.loads(run.stdout)


def reference_csv(trace):
    """The per-cell formatter the one-pass row template replaced."""
    def fmt(col, x):
        if col in ("k", "oracle_calls", "elapsed_ns"):
            return str(int(x))
        xf = float(x)
        if math.isnan(xf):
            return "nan"
        if math.isinf(xf):
            return "inf" if xf > 0 else "-inf"
        return format(xf, ".17g")

    lines = [",".join(TRACE_COLUMNS)]
    for row in trace:
        lines.append(",".join(fmt(col, getattr(row, col))
                              for col in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def build_trace(parts):
    """A RunTrace from (kind, first row, count, calls_step) parts: "rows"
    appends ``count`` rows whose k goes up by 1 and oracle_calls by
    ``calls_step``, "span" repeats the row as one RepeatSpan."""
    trace = RunTrace()
    for kind, row, count, step in parts:
        if kind == "span":
            trace.repeat(row, count, step)
            continue
        for j in range(count):
            trace.append(dataclasses.replace(
                row, k=row.k + j, oracle_calls=row.oracle_calls + step * j))
    return trace


@st.composite
def trace_parts(draw):
    """Parts for ``build_trace`` whose counters start just below a power of
    ten, so they cross digit boundaries, with oracle_calls up to about
    1e15; a quarter of the traces have one span longer than a chunk."""
    parts, k, calls = [], 0, 0
    cells = st.floats()     # with nan, +-inf, -0.0 and subnormals
    long_span = draw(st.sampled_from([False, False, False, True]))
    for _ in range(draw(st.integers(1, 5))):
        k = max(k, 10 ** draw(st.integers(0, 6)) - draw(st.integers(1, 12)))
        calls = max(calls, 10 ** draw(st.integers(0, 15))
                    - draw(st.integers(1, 40)))
        kind = draw(st.sampled_from(["rows", "span"]))
        count = draw(st.integers(1, 40))
        if kind == "span" and long_span:
            count = _CHUNK_ROWS + draw(st.integers(1, 99))
            long_span = False
        step = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 10**6)))
        row = TraceRow(k, draw(cells), draw(cells), draw(cells), draw(cells),
                       calls, draw(st.integers(0, 10**12)), draw(cells))
        parts.append((kind, row, count, step))
        k, calls = k + count, calls + step * (count - 1)
    return parts


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fitted_value_refused(self, bad):
        """NaN <= 0 is False, so a NaN once passed as positive."""
        values = np.full(20, 2.0)
        values[15] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_rate(np.arange(1, 21), values)
        values[3] = bad         # the first half is not fitted
        values[15] = 2.0
        assert fit_rate(np.arange(1, 21), values) == \
            pytest.approx(0.0, abs=1e-12)


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

    def test_one_blas_thread_for_the_run(self, monkeypatch):
        """The build (and so the solve after it) sees one OpenBLAS thread,
        and the old count is back after the run, also after a failed one."""
        blas = bench._openblas_threads()
        if blas is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        get, put = blas
        build, seen = bench.PROBLEMS["abs_value"], []

        def recording(raw, seed):
            seen.append(get())
            if raw.get("dim") == 2:
                raise RuntimeError("build failed")
            return build(raw, seed)
        monkeypatch.setitem(bench.PROBLEMS, "abs_value", recording)
        old = get()
        put(2)
        try:
            before = get()
            run_experiment(fixed_md_config())
            assert get() == before
            cfg = fixed_md_config()
            cfg["problem"]["dim"] = 2
            with pytest.raises(RuntimeError, match="build failed"):
                run_experiment(cfg)
            assert get() == before
        finally:
            put(old)
        assert seen == [1, 1]

    def test_without_a_bundled_openblas(self, monkeypatch, tmp_path):
        """Without numpy's OpenBLAS nothing is pinned, and a run gives the
        same bytes (at any thread count for a run this small)."""
        monkeypatch.setattr(np, "__file__",
                            str(tmp_path / "numpy" / "__init__.py"))
        assert bench._openblas_threads.__wrapped__() is None
        monkeypatch.undo()
        _, pinned = run_experiment(fixed_md_config())
        monkeypatch.setattr(bench, "_openblas_threads", lambda: None)
        code, summary = run_experiment(fixed_md_config())
        assert code == 0
        assert summary["trace_sha256"] == pinned["trace_sha256"]

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

    @pytest.mark.parametrize("setup", [{"theta0_sq": "abc"},
                                       {"kind": "bogus"}, {"origin": "x"},
                                       {"origen": [0.0, 0.0]}])
    def test_setup_checked_before_build(self, monkeypatch, setup):
        # toy_lp's generator solves an LP for f_star
        calls = []
        lp = problems.linprog
        monkeypatch.setattr(problems, "linprog",
                            lambda *a, **kw: calls.append(1) or lp(*a, **kw))
        cfg = {"seed": 1, "problem": {"generator": "toy_lp"}, "setup": setup,
               "method": {"name": "constrained_nonsmooth", "eps": 0.1}}
        with pytest.raises(ConfigError, match=next(iter(setup))):
            run_experiment(cfg)
        assert calls == []
        del cfg["setup"]
        run_experiment(cfg)
        assert calls == [1]

    @pytest.mark.parametrize("name", sorted(bench.PROBLEMS))
    def test_direct_build_checks_its_keys(self, monkeypatch, name):
        """A generator called directly refuses a key it does not declare,
        before its build runs an LP."""
        monkeypatch.setattr(problems, "linprog",
                            lambda *a, **kw: pytest.fail("LP ran"))
        with pytest.raises(ConfigError, match="unknown problem key 'bogus'"):
            bench.PROBLEMS[name]({"bogus": 1}, 1)

    def test_setup_kind_and_theta0_sq(self):
        """A setup's kind and theta0_sq reach the run: toy_lp's box takes
        the Euclidean setup with theta0_sq 1 by default, and a switching run
        stops once its step sum reaches 2 theta0_sq / eps^2, so halving or
        doubling theta0_sq about halves or doubles its iterations."""
        def run(**setup):
            cfg = {"seed": 1, "problem": {"generator": "toy_lp"},
                   "setup": setup,
                   "method": {"name": "constrained_nonsmooth", "eps": 0.1}}
            code, summary = run_experiment(cfg, check_bounds=True)
            assert code == 0 and summary["bounds_ok"]
            return summary["iterations"], summary["trace_sha256"]

        default = run()
        assert default[0] == 163
        assert run(kind="euclidean") == run(theta0_sq=1) == default
        assert run(kind="euclidean", theta0_sq=0.5)[0] == 82
        assert run(theta0_sq=2.0)[0] == 325

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
    outputs = [_run_in_process(METHOD_CONFIGS, PYTHONHASHSEED=hash_seed)
               for hash_seed in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_same_bytes_at_any_blas_thread_count():
    """The runner pins OpenBLAS to one thread for the run.  Unpinned, two
    threads split a dot product this long and sum it in another order,
    and the hash moved."""
    n = 30000
    box = {"seed": 1, "problem": {"generator": "quadratic_box", "dim": n},
           "method": {"name": "fixed_md", "R": math.sqrt(n),
                      "M": 2.0 * math.sqrt(n), "N": 5}}
    outputs = [_run_in_process({"box": box}, OPENBLAS_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_golden_trace_hashes():
    """Every method's trace hash is the recorded one, so a change that moves
    the numerics the same way in every process is caught too."""
    out = _run_in_process({**METHOD_CONFIGS, "ttd_switching": TTD_SWITCHING,
                           **GAMES, **EXTRA_CONFIGS}, **ONE_THREAD)
    assert out["hashes"] == GOLDEN_HASHES
    assert out["counts"] == GOLDEN_COUNTS


# oracle classes whose calls count as oracle calls; a call made inside
# another (an inexact oracle's exact one, a bundle's pieces) does not
_ORACLE_CLASSES = (oracles.FunctionOracle, oracles.LinearOracle,
                   oracles.AbsLinearOracle, oracles.InexactOracle,
                   oracles.SaddleOperator, problems.TransportDualOracle,
                   smoothing.SmoothedMaxResidual)
# METHOD_CONFIGS' switching runs never stop moving; these two stop at 255
COUNT_CONFIGS = {
    **METHOD_CONFIGS, "ttd_switching": TTD_SWITCHING,
    "ttd_switching_general": {**TTD_SWITCHING, "method": {
        "name": "constrained_general", "eps": 0.1}}}


@pytest.mark.parametrize("name", COUNT_CONFIGS)
def test_oracle_calls_are_the_calls_made(monkeypatch, name):
    """The summary's oracle_calls is every oracle call the solver made, less
    Mirror Prox's one uncounted audit of its last gap, plus the answers a
    switching run reuses once its iterate stops moving."""
    cfg = COUNT_CONFIGS[name]
    method = cfg["method"]["name"]
    state = {"solving": False, "depth": 0, "calls": 0}
    reports = []

    def counted(fn):
        def call(*args):
            if state["solving"] and state["depth"] == 0:
                state["calls"] += 1
            state["depth"] += 1
            try:
                return fn(*args)
            finally:
                state["depth"] -= 1
        return call

    for cls in _ORACLE_CLASSES:
        monkeypatch.setattr(cls, "__call__", counted(cls.__call__))
    monkeypatch.setattr(constrained, "aggregate_max",
                        counted(constrained.aggregate_max))
    kinds, required, optional, solve = bench._METHODS[method]

    def solve_counted(*args):
        state["solving"] = True
        try:
            reports.append(solve(*args))
        finally:
            state["solving"] = False
        return reports[-1]

    monkeypatch.setitem(bench._METHODS, method,
                        (kinds, required, optional, solve_counted))
    _, summary = run_experiment(cfg)
    rep, = reports
    uncounted = 1 if method in ("mirror_prox", "universal_mirror_prox") else 0
    rows = list(rep.trace)
    start = rep.extras.get("stationary_at")
    reused = 0 if start is None else \
        rows[-1].oracle_calls - rows[start - 1].oracle_calls
    assert (reused > 0) == name.startswith("ttd_switching")
    assert state["calls"] > 0
    assert summary["oracle_calls"] == state["calls"] - uncounted + reused


# the runner's bound check as it was before each solver listed its own
# checks in ``Report.checks``: the runner chose them by method name.  The
# premise max_k ||g^k||_* <= M of fixed_md, and of strongly_convex_md given
# an M, follows the headline check
def reference_check_bounds(report, mname, problem, kind, eps=None, M=None):
    """Collect (error, bound) comparisons the run certifies."""
    verdicts = []

    def check(k, error, bound):
        verdicts.append({"k": k, "error": error, "bound": bound,
                         "ok": error <= bound + BOUND_SLACK})

    if kind == "vi":
        for row in report.trace:
            if math.isfinite(row.bound_value) and math.isfinite(row.f_value):
                check(row.k, row.f_value, row.bound_value)
        return verdicts
    f_star, gap, bound = problem.f_star, report.gap, report.bound
    n = report.iterations
    # agm's row N checks its headline (N, gap, bound), which is checked once
    rows_hold_headline = mname == "agm" and f_star is not None and n > 0
    if gap is not None and bound is not None and math.isfinite(bound) \
            and not rows_hold_headline:
        check(n, gap, bound)
    if mname in ("fixed_md", "strongly_convex_md") and M is not None:
        check(n, max(row.M_k for row in report.trace), M * (1 + 1e-12))
    if mname.startswith("constrained") and eps is not None:
        f_bar, g_bar = report.f_out, report.g_bar
        if mname == "constrained_nonsmooth" and f_star is not None \
                and math.isfinite(f_bar):
            check(n, f_bar - f_star, eps)
        if math.isfinite(g_bar):
            check(n, g_bar, eps)
        if report.iteration_bound is not None:
            check(n, float(n), float(report.iteration_bound))
    if f_star is not None and mname in ("agm", "universal_agm"):
        for row in report.trace:
            if math.isfinite(row.bound_value):
                check(row.k, row.f_value - f_star, row.bound_value)
    return verdicts


def verdict_bits(verdicts):
    """Each verdict's k, raw error and bound bytes, and ok."""
    return [(v["k"], np.float64(v["error"]).tobytes(),
             np.float64(v["bound"]).tobytes(), v["ok"]) for v in verdicts]


def checked_run(monkeypatch, cfg):
    """Run ``cfg`` with its bounds checked.  Returns the exit code, the
    Report, and the verdicts of ``_check_bounds`` and of
    ``reference_check_bounds`` on that Report, as ``verdict_bits``."""
    seen = {}
    pname = cfg["problem"]["generator"]
    build, check = bench.PROBLEMS[pname], bench._check_bounds

    def building(*args):
        seen["problem"], seen["kind"] = build(*args)
        return seen["problem"], seen["kind"]

    def checking(report):
        seen["report"], seen["verdicts"] = report, check(report)
        return seen["verdicts"]

    monkeypatch.setitem(bench.PROBLEMS, pname, building)
    monkeypatch.setattr(bench, "_check_bounds", checking)
    code, summary = run_experiment(cfg, check_bounds=True)
    reference = reference_check_bounds(
        seen["report"], cfg["method"]["name"], seen["problem"], seen["kind"],
        eps=cfg["method"].get("eps"), M=cfg["method"].get("M"))
    assert summary["bounds_checked"] == len(reference)
    return (code, seen["report"], verdict_bits(seen["verdicts"]),
            verdict_bits(reference))


CHECKED_CONFIGS = {**METHOD_CONFIGS, "ttd_switching": TTD_SWITCHING, **GAMES,
                   **EXTRA_CONFIGS}
# the golden configs whose Report has no bound and lists no check: Shor's
# method has none, and the other two run on all of R^n, which has no theta0_sq
CERTIFY_NOTHING = {"shor", "universal_agm", "adaptive_md_exact"}


@pytest.mark.parametrize("name", CHECKED_CONFIGS)
def test_written_trace_is_the_hashed_bytes(tmp_path, name):
    """The summary's trace_sha256 is the SHA-256 of the written trace file,
    the run's wall time is its elapsed_ns, and a run with nothing to check
    says so with bounds_ok null, not true."""
    code, summary = run_experiment(CHECKED_CONFIGS[name], out_dir=tmp_path,
                                   check_bounds=True, stem=name)
    written = (tmp_path / f"{name}_trace.csv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == summary["trace_sha256"]
    assert type(summary["elapsed_ns"]) is int and summary["elapsed_ns"] >= 0
    assert json.loads((tmp_path / f"{name}_summary.json").read_text()) == \
        summary
    assert code == 0
    certifies = name not in CERTIFY_NOTHING
    assert (summary["bounds_checked"] > 0) == certifies
    assert summary["bounds_ok"] is (True if certifies else None)


class TestOverwriteInPlace:
    """A run writes its trace CSV and summary JSON over any files already
    there, in place: the old bytes past the new end are cut off."""

    JUNK = bytes(range(256)) * 4096     # 1 MiB, longer than either file

    @staticmethod
    def outputs(out_dir):
        return out_dir / "cfg_trace.csv", out_dir / "cfg_summary.json"

    def test_junk_is_replaced_by_a_fresh_runs_bytes(self, tmp_path,
                                                    monkeypatch):
        # a constant clock, so the two summaries' elapsed_ns agree
        monkeypatch.setattr(bench.time, "perf_counter_ns", lambda: 0)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        reused.mkdir()
        for path in self.outputs(reused):
            path.write_bytes(self.JUNK)
        cfg = CHECKED_CONFIGS["ttd_switching"]
        run_experiment(cfg, out_dir=fresh, stem="cfg")
        _, summary = run_experiment(cfg, out_dir=reused, stem="cfg")
        for want, got in zip(self.outputs(fresh), self.outputs(reused)):
            assert got.read_bytes() == want.read_bytes()
        trace, written = self.outputs(reused)
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
            summary["trace_sha256"]
        assert written.read_bytes() == (json.dumps(
            summary, sort_keys=True, indent=2) + "\n").encode("ascii")

    def test_a_failed_write_leaves_only_what_it_wrote(self, tmp_path):
        """The second part's row cannot be formatted (k is None): the file
        holds the header and the first part's row, and nothing of the old
        bytes."""
        path = tmp_path / "cfg_trace.csv"
        path.write_bytes(self.JUNK)
        good = TraceRow(1, 0.5)
        trace = RunTrace()
        trace.parts = [[good], [TraceRow(None, 0.25)]]
        with pytest.raises(TypeError):
            trace_hash(trace, path)
        assert path.read_bytes() == trace_csv_text([good]).encode("ascii")

    def test_reruns_rewrite_the_files(self, tmp_path, monkeypatch):
        """A rerun keeps each file's inode and opens it without O_TRUNC, so
        the old blocks are rewritten, not freed first."""
        flags = {}
        os_open = os.open

        def spy(path, flag, *args):
            if Path(path).name.startswith("cfg_"):
                flags[Path(path).name] = flag
            return os_open(path, flag, *args)

        monkeypatch.setattr(os, "open", spy)
        inodes = []
        for _ in range(2):
            run_experiment(fixed_md_config(), out_dir=tmp_path, stem="cfg")
            inodes.append([p.stat().st_ino for p in self.outputs(tmp_path)])
        assert inodes[0] == inodes[1]
        assert sorted(flags) == ["cfg_summary.json", "cfg_trace.csv"]
        assert not any(f & os.O_TRUNC for f in flags.values())


@pytest.mark.parametrize("name", CHECKED_CONFIGS)
def test_checks_match_the_reference(monkeypatch, name):
    """The runner checks what each solver's Report lists, and that is what
    it checked when it chose the checks by method name."""
    code, _, verdicts, reference = checked_run(monkeypatch,
                                               CHECKED_CONFIGS[name])
    assert verdicts == reference
    assert code == (0 if all(ok for *_, ok in verdicts) else 3)


@pytest.mark.parametrize("N, checked", [(5, 5), (0, 1)])
def test_agm_headline_checked_once(N, checked):
    """agm's rows list (k, gap_k, bound_k) for k = 1..N, so row N is the
    headline: each is checked once.  With N = 0 there are no rows and the
    headline is the one check."""
    cfg = {"seed": 1, "problem": {"generator": "quadratic_box", "dim": 4},
           "method": {"name": "agm", "N": N}}
    code, summary = run_experiment(cfg, check_bounds=True)
    assert (code, summary["bounds_checked"]) == (0, checked)
    assert summary["trace_rows"] == N


# one config per kind of check whose bound is understated, so that check
# fails: M below fixed_md's subgradient norm (the headline gap <= bound),
# agm's and mirror_prox's L below the Lipschitz constant (their rows), and
# an iteration bound of 1 (a switching run's k <= bound)
SHRUNK = {
    "headline": fixed_md_config(method={"name": "fixed_md", "R": 1.0,
                                        "M": 0.3, "N": 4}),
    "switching": METHOD_CONFIGS["constrained_nonsmooth"],
    "agm_row": {**METHOD_CONFIGS["agm"],
                "method": {"name": "agm", "N": 64, "L": 0.25}},
    "mirror_prox_row": {**METHOD_CONFIGS["mirror_prox"],
                        "method": {"name": "mirror_prox", "N": 100,
                                   "L": 0.1}},
}


@pytest.mark.parametrize("name", SHRUNK)
def test_shrunk_bounds_fail_as_before(monkeypatch, name):
    if name == "switching":
        monkeypatch.setattr(constrained, "_iteration_bound", lambda *args: 1)
    code, report, verdicts, reference = checked_run(monkeypatch, SHRUNK[name])
    assert verdicts == reference
    assert code == 3
    # the headline verdict, when there is one, comes first
    own = verdicts[len(verdicts) - len(report.checks):]
    failed = verdicts[:1] if name == "headline" else own
    assert not all(ok for *_, ok in failed)


def _perfbench_module(name):
    """perfbench's module ``name``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_points_resolve(monkeypatch):
    """Every (owner, attribute) perfbench wraps or times is an attribute of
    its owner, or a key of a dict owner.  ``CallTimer`` looks its points up
    with getattr, so a renamed one would fail only when the benchmark runs."""
    tracer = _perfbench_module("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # workloads imports it
    points = tracer._patch_points() + \
        _perfbench_module("workloads")._latency_points()
    missing = [(owner, attr) for owner, attr, *_ in points
               if not (attr in owner if isinstance(owner, dict)
                       else hasattr(owner, attr))]
    assert missing == []


def test_perfbench_observers_read_the_reports(monkeypatch):
    """perfbench's tracer reads ``productive``, ``iterations`` and
    ``inner_trials`` off a switching and a universal method's Report, so a
    Report without them would fail only when ``--trace 1`` runs."""
    tracer = _perfbench_module("tracer")
    observers = {attr: options["observe"] for owner, attr, _, *opts
                 in tracer._patch_points() for options in opts
                 if "observe" in options}
    rec = tracer.SpanRecorder()
    for name, owner, solver in (
            ("constrained_nonsmooth", constrained,
             "solve_constrained_nonsmooth"),
            ("universal_agm", smoothing, "universal_agm")):
        reports = []
        solve = getattr(owner, solver)
        monkeypatch.setattr(owner, solver,
                            lambda *a, solve=solve: reports.append(solve(*a))
                            or reports[-1])
        run_experiment(METHOD_CONFIGS[name])
        report, = reports
        for attr in ("productive", "iterations", "inner_trials"):
            assert hasattr(report, attr)
        observers[solver](rec, (), report)
    counted = {key for _, key in rec.counters}
    assert counted == {"constrained.productive", "constrained.iterations",
                       "smoothing.trials", "smoothing.trial_iters"}


@pytest.mark.parametrize("name", METHOD_CONFIGS)
def test_runner_calls_the_patched_solver(monkeypatch, name):
    """Every method reaches exactly one of the solver functions perfbench
    wraps, looked up on its module at call time: a runner that called a
    private loop instead would leave that layer unmeasured."""
    reached = []

    def recording(solver):
        def call(*args, **kwargs):
            reached.append(solver)
            return solver(*args, **kwargs)
        return call

    for owner, attr, span, *_ in _perfbench_module("tracer")._patch_points():
        if span in ("subgradient", "constrained", "smoothing", "mirrorprox"):
            monkeypatch.setattr(owner, attr, recording(getattr(owner, attr)))
    run_experiment(METHOD_CONFIGS[name])
    assert len(reached) == 1


def test_masked_trace_hashes():
    """Every trace column of the VI configs but f_value and oracle_calls
    keeps its recorded bytes."""
    configs = {**METHOD_CONFIGS, **GAMES}
    out = _run_in_process({name: configs[name] for name in VI_CONFIGS},
                          script=_MASKED_RUN, **ONE_THREAD)
    assert out == MASKED_HASHES


def test_golden_stream_hash():
    """The reads and the final z of a seeded MaxStructure stream are the
    recorded ones (one BLAS thread, numpy 2.4.6, OpenBLAS 0.3.31).  The
    other tests compare the structure with its own brute force, which a
    change moving the bits of both would pass."""
    out = _run_in_process({"seed": 2024, "m": 5000, "n": 5000,
                           "updates": 2000}, script=_STREAM_RUN, **ONE_THREAD)
    assert out == {
        "reads":
            "75d35444d9f63b40bc0eecad4c78f2a6e2702b20a0e8941e2dbd2981d68ec22e",
        "z": "bedac3e263b90eb44e6c75153a5e2eb30a99c5ea3dba7f653a0ae9674c631f05"}


class TestTraceSerialization:
    EDGE_ROWS = [
        TraceRow(0, float("nan"), g_value=float("inf"), step=float("-inf"),
                 M_k=-0.0, oracle_calls=1, elapsed_ns=7, bound_value=0.0),
        TraceRow(1, 5e-324, g_value=1.7976931348623157e308, step=0.1,
                 M_k=-1.7976931348623157e308, oracle_calls=2,
                 bound_value=-5e-324),
        TraceRow(np.int64(2), np.float64(1.0 / 3.0), g_value=np.float64(-0.0),
                 step=np.float64("nan"), M_k=np.float64(1e-300),
                 oracle_calls=np.int64(2**40), elapsed_ns=np.int64(123),
                 bound_value=np.float64(2.5e15)),
        TraceRow(3, 7, g_value=-12, step=2**53 + 1, M_k=np.int64(-3),
                 oracle_calls=4.0, elapsed_ns=9.0, bound_value=True),
        TraceRow(4.0, 1e16, g_value=123456789.125, step=1e-7,
                 oracle_calls=np.float64(5.0), bound_value=np.float32(0.1)),
    ]

    def test_edge_rows_match_reference(self):
        assert trace_csv_text(self.EDGE_ROWS) == reference_csv(self.EDGE_ROWS)
        assert trace_csv_text([]) == reference_csv([])

    def test_repeated_spans_match_reference(self):
        # spans that share each edge row's odd cells, a span of one, one
        # with a constant counter, and plain rows between and after them
        trace = RunTrace()
        for i, row in enumerate(self.EDGE_ROWS):
            base = row.oracle_calls + 2 * 10**13 * (i + 1)
            trace.repeat(dataclasses.replace(row, oracle_calls=base),
                         3 + i, i % 3)
            trace.repeat(TraceRow(row.k, 0.5, oracle_calls=base + 10**6), 1, 7)
            trace.append(TraceRow(1, -0.0, oracle_calls=base + 2 * 10**6))
        trace.repeat(TraceRow(0, 1.0), 0, 1)
        assert sum(isinstance(p, RepeatSpan) for p in trace.parts) == \
            2 * len(self.EDGE_ROWS)
        text = trace_csv_text(trace)
        rows = list(trace)          # builds the spans' rows
        assert len(rows) == len(trace) and len(trace.parts) == 1
        assert text == reference_csv(rows) == trace_csv_text(trace)
        assert [r.oracle_calls - rows[0].oracle_calls for r in rows[:3]] == \
            [0, 0, 0]
        assert [r.k for r in rows[:3]] == [0, 1, 2]

    def test_repeat_keeps_counter_non_decreasing(self):
        trace = RunTrace()
        trace.append(TraceRow(0, 1.0, oracle_calls=5))
        with pytest.raises(ValueError):
            trace.repeat(TraceRow(1, 1.0, oracle_calls=4), 3, 1)
        with pytest.raises(ValueError):
            trace.repeat(TraceRow(1, 1.0, oracle_calls=6), 3, -1)
        assert len(trace) == 1
        trace.repeat(TraceRow(1, 1.0, oracle_calls=6), 3, 2)
        with pytest.raises(ValueError):     # the span ends at 10
            trace.append(TraceRow(4, 1.0, oracle_calls=9))
        trace.append(TraceRow(4, 1.0, oracle_calls=10))
        assert [r.oracle_calls for r in trace] == [5, 6, 8, 10, 10]

    @pytest.mark.parametrize("row, count, calls_step", [
        (TraceRow(-1, 1.0), 1, 0),
        (TraceRow(0.5, 1.0), 1, 0),
        (TraceRow(float("nan"), 1.0), 1, 0),
        (TraceRow(0, 1.0, oracle_calls=-2), 1, 0),
        (TraceRow(0, 1.0, oracle_calls=2.5), 1, 0),
        (TraceRow(0, 1.0, oracle_calls=float("inf")), 1, 0),
        (TraceRow(0, 1.0), 2, 1.5),
        (TraceRow(2**63 - 2, 1.0), 3, 0),             # last k is 2**63
        (TraceRow(0, 1.0, oracle_calls=2**63 - 10), 6, 2),
        (TraceRow(0, 1.0, oracle_calls=2.0**63), 1, 0),
    ])
    def test_repeat_refuses_counters_outside_int64(self, row, count,
                                                   calls_step):
        trace = RunTrace()
        with pytest.raises(ValueError):
            trace.repeat(row, count, calls_step)
        assert len(trace) == 0 and len(trace.parts) == 1

    def test_span_counters_up_to_int64_max(self):
        trace = RunTrace()
        trace.repeat(TraceRow(2**63 - 3, 1.0, oracle_calls=2.0**62), 3,
                     2**61 - 1)
        text = trace_csv_text(trace)
        assert text == reference_csv(list(trace))
        assert text.splitlines()[-1].startswith(f"{2**63 - 1},")

    @settings(max_examples=20, deadline=None)
    @given(trace_parts())
    @example([("span", TraceRow(9_995, 0.25, oracle_calls=10**15 - 7),
               _CHUNK_ROWS + 10, 3),
              ("rows", TraceRow(10**5, -0.0, oracle_calls=10**15 + 10**6),
               _CHUNK_ROWS // 2, 1)])
    def test_mixed_traces_match_reference(self, parts):
        trace = build_trace(parts)
        text = trace_csv_text(trace)
        digest = trace_hash(trace)
        rows = list(trace)          # builds the spans' rows
        assert text == reference_csv(rows)
        assert digest == hashlib.sha256(text.encode("ascii")).hexdigest()

    def test_list_trace_longer_than_a_chunk(self, tmp_path):
        N = 70_000
        cfg = fixed_md_config(method={"name": "fixed_md", "R": 1.0, "M": 1.0,
                                      "N": N})
        problem, _ = bench.PROBLEMS["abs_value"]({"dim": 1}, cfg["seed"])
        setup = bench._make_setup(problem, bench._validate(cfg)[3])
        trace = subgradient.run_fixed_md(problem, setup, 1.0, 1.0, N).trace
        assert len(trace) > _CHUNK_ROWS and len(trace.parts) == 1
        _, summary = run_experiment(cfg, out_dir=tmp_path, stem="long")
        written = (tmp_path / "long_trace.csv").read_bytes()
        assert written.decode("ascii") == trace_csv_text(trace) == \
            reference_csv(trace)
        assert hashlib.sha256(written).hexdigest() == \
            summary["trace_sha256"] == trace_hash(trace)

    def test_trace_hash_memory_is_per_chunk(self):
        def peak(count):
            trace = RunTrace()
            trace.repeat(TraceRow(0, 0.5, g_value=1.0, oracle_calls=1),
                         count, 2)
            tracemalloc.start()
            try:
                trace_hash(trace)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(800_000)
        assert abs(large - small) <= 0.1 * small

    def test_ttd_trace_matches_reference(self, tmp_path):
        cfg = METHOD_CONFIGS["constrained_nonsmooth"]
        params = {k: v for k, v in cfg["problem"].items() if k != "generator"}
        problem, _ = bench.PROBLEMS["ttd_dual"](params, cfg["seed"])
        setup = bench._make_setup(problem, None)
        trace = constrained.solve_constrained_nonsmooth(
            problem, setup, cfg["method"]["eps"]).trace
        text = reference_csv(trace)
        assert trace_csv_text(trace) == text
        assert trace_hash(trace) == \
            hashlib.sha256(text.encode("ascii")).hexdigest()
        # the runner's file and hash come from the same rows
        _, summary = run_experiment(cfg, out_dir=tmp_path, stem="ttd")
        written = (tmp_path / "ttd_trace.csv").read_bytes()
        assert written.decode("ascii") == trace_csv_text(trace) == text
        assert hashlib.sha256(written).hexdigest() == \
            summary["trace_sha256"] == trace_hash(trace)


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

    # M below the largest subgradient norm (1.457 on this box), with a
    # headline gap that still passes: only the premise check fails
    SMALL_M = {
        "fixed_md": {"name": "fixed_md", "R": 2.0, "M": 0.5, "N": 100},
        "strongly_convex_md": {"name": "strongly_convex_md", "mu": 1.0,
                               "M": 0.3, "N": 100}}

    @pytest.mark.parametrize("method", SMALL_M)
    def test_small_M_fails_the_premise(self, tmp_path, capsys, method):
        p = self.write(tmp_path, {
            "seed": 1, "problem": {"generator": "quadratic_box", "dim": 4},
            "method": self.SMALL_M[method]})
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["bounds_ok"] is False and out["bounds_checked"] == 2
        assert out["gap"] <= out["bound"]

    def test_memory_error_exit(self, tmp_path, capsys, monkeypatch):
        """A run that exhausts memory exits 4 with one line, like a failed
        run.  The generator raises MemoryError; nothing is allocated."""
        def exhausted(params, seed):
            raise MemoryError("Unable to allocate 7.28 TiB")
        monkeypatch.setitem(bench.PROBLEMS, "abs_value", exhausted)
        p = self.write(tmp_path, fixed_md_config())
        assert main(["solve", "--config", str(p)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == \
            "error: the run failed: Unable to allocate 7.28 TiB\n"

    # a constant far below the operator's makes the first step's exponents
    # overflow, so Phi of the second query point is NaN
    FAILING = {"seed": 1,
               "problem": {"generator": "matrix_game", "rows": 3, "cols": 4},
               "method": {"name": "mirror_prox", "L": 1e-320, "N": 5}}

    def test_failed_run_exit(self, tmp_path, capsys):
        """A run that raises RuntimeError exits 4 with one error line and no
        traceback.  numpy's overflow warnings on the way are silenced (the
        test configuration would turn one into an error)."""
        p = self.write(tmp_path, self.FAILING)
        assert main(["solve", "--config", str(p)]) == 4
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        assert captured.err == \
            "error: the run failed: non-finite objective value\n"

    def test_failed_run_prints_one_line_as_a_program(self, tmp_path):
        """Run as a program, where numpy's warnings go to stderr."""
        p = self.write(tmp_path, self.FAILING)
        src = str(Path(mirropt.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "mirropt.cli", "solve", "--config", str(p)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert run.returncode == 4 and run.stdout == ""
        assert run.stderr == \
            "error: the run failed: non-finite objective value\n"

    def test_flat_run_on_all_space_passes(self, tmp_path, capsys):
        """|x| is 0 from universal AGM's first step on, so M_k / 2 halves at
        every accepted step; its floor L_min keeps C finite to the end."""
        p = self.write(tmp_path, {
            "seed": 1, "problem": {"generator": "abs_value", "dim": 1},
            "setup": {"origin": [1.0]},
            "method": {"name": "universal_agm", "eps": 0.01, "L0": 1.0,
                       "N": 1100}})
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bounds_ok"] and out["bounds_checked"] == 1100
        assert out["gap"] == 0.0

    @pytest.mark.parametrize("method", [
        {"name": "mirror_prox", "L": 1e-320, "N": 5},
        {"name": "universal_mirror_prox", "eps": 0.1, "M_init": 1e-320,
         "N": 5}])
    def test_non_finite_operator_exit(self, tmp_path, capsys, method):
        """A Mirror Prox run whose Phi turns non-finite exits 4 with one
        error line, not with NaN gap rows or the doubling cap's message."""
        p = self.write(tmp_path, {
            "seed": 1, "method": method,
            "problem": {"generator": "matrix_game", "rows": 3, "cols": 4}})
        assert main(["solve", "--config", str(p)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: the run failed: non-finite objective value\n"

    # a starting constant 2^100 below the one the run settles on: more
    # doublings than the 64 (universal AGM) or 65 trials (universal Mirror
    # Prox) that once ended such a run as "oracle likely inconsistent"
    SMALL_START = {
        "universal_agm": {
            "seed": 1, "problem": {"generator": "quadratic_box", "dim": 4},
            "method": {"name": "universal_agm", "eps": 1e-3, "L0": 1e-30,
                       "N": 5}},
        "universal_mirror_prox": {
            "seed": 1, "problem": {"generator": "matrix_game", "rows": 4,
                                   "cols": 4},
            "method": {"name": "universal_mirror_prox", "eps": 1e-3,
                       "M_init": 1e-30, "N": 5}}}

    @pytest.mark.parametrize("method", SMALL_START)
    def test_small_starting_constant_runs(self, tmp_path, capsys, method):
        p = self.write(tmp_path, self.SMALL_START[method])
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 5
        assert out["bounds_ok"] and out["bounds_checked"] == 5
        with open(tmp_path / "cfg_trace.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["M_k"]) > 2.0 ** 64 * 1e-30

    def test_euclidean_game_from_a_tiny_constant(self, tmp_path, capsys):
        """The first trials step by Phi/M with M near 1e-17: the simplex
        projection once raised IndexError (a traceback) there, or left the
        simplex and failed the bound (exit 3)."""
        p = self.write(tmp_path, {
            "seed": 1, "problem": {"generator": "matrix_game", "rows": 3,
                                   "cols": 5, "setup": "euclidean"},
            "method": {"name": "universal_mirror_prox", "eps": 0.01,
                       "M_init": 1e-20, "N": 5}})
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 5
        assert out["bounds_ok"] and out["bounds_checked"] == 5

    def test_out_dir_is_a_file(self, tmp_path, capsys):
        p = self.write(tmp_path, fixed_md_config())
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["solve", "--config", str(p), "--out-dir",
                     str(taken)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_rates_refuses_a_nan_column(self, tmp_path, capsys):
        """A switching run's rows have no bound (NaN): no slope to fit."""
        p = self.write(tmp_path, TTD_SWITCHING)
        assert main(["solve", "--config", str(p)]) == 0
        capsys.readouterr()
        assert main(["rates", "--trace", str(tmp_path / "cfg_trace.csv"),
                     "--column", "bound_value"]) == 2
        assert capsys.readouterr() == ("", "error: non-positive or "
                                       "non-finite value in the fitted "
                                       "half\n")

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

    def test_rates_refused_column(self, tmp_path, capsys):
        """A column fit_rate refuses (here: 4 rows, fewer than 10) exits 2
        with fit_rate's message."""
        main(["solve", "--config", str(self.write(tmp_path,
                                                  fixed_md_config()))])
        capsys.readouterr()
        assert main(["rates", "--trace", str(tmp_path / "cfg_trace.csv"),
                     "--column", "f_value"]) == 2
        assert capsys.readouterr().err == "error: need at least 10 rows\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cfg, names", [
        (fixed_md_config(problem=[1]), "'problem'"),
        (fixed_md_config(method={"name": "fixed_md", "R": 1.0, "M": 1.0,
                                 "N": "ten"}), "'N'"),
        (fixed_md_config(method={"name": "fixed_md", "R": 1.0, "M": 1.0,
                                 "N": -5}), "N >= 1"),
        (fixed_md_config(method={"name": "adaptive_md", "eps": 0.1, "N": 0}),
         "N >= 1"),
        ({"seed": 1, "problem": {"generator": "ttd_dual", "nodes": 1},
          "method": {"name": "constrained_nonsmooth", "eps": 0.1}},
         "free node"),
        (fixed_md_config(setup={"origin": [1.0, 2.0]}), "shape"),
        ({"seed": 5, "problem": {"generator": "quadratic_box", "dim": 4},
          "method": {"name": "strongly_convex_md", "mu": 1.0, "N": 10,
                     "M": "abc"}}, "'M'"),
        ({"seed": 5, "problem": {"generator": "matrix_game"},
          "method": {"name": "mirror_prox", "N": 10, "L": "abc"}}, "'L'"),
        (fixed_md_config(method={"name": "shor", "lam": 0.1, "N": 10,
                                 "x0": {"a": 1}}), "'x0'"),
        (game_config(rows=0, cols=3), "'rows'"),
        (game_config(rows=3, cols=0), "'cols'"),
        (game_config(A=[[]]), "shape (1, 0)"),
        (game_config(A=[]), "shape (0,)"),
        (game_config(A=[1.0, 2.0]), "shape (2,)"),
        (game_config(rows=None), "'rows'"),
        (game_config(rows=True), "'rows'"),
        (game_config(cols=2.5), "'cols'"),
        (game_config(N=1.5), "'N'"),
        (game_config(N=True), "'N'"),
        (game_config(N=None), "'N'"),
        (game_config(seed=1.5), "'seed'"),
        (game_config(seed=False), "'seed'"),
        (game_config(seed=None), "'seed'"),
        (fixed_md_config(problem={"generator": "abs_value", "dim": None}),
         "'dim'"),
        (fixed_md_config(problem={"generator": "abs_value", "dim": 0}),
         "'dim'"),
        (fixed_md_config(problem={"generator": "quadratic_box",
                                  "dim": 1.5}), "'dim'"),
        (fixed_md_config(problem={"generator": "max_residual", "cols": 0}),
         "'cols'"),
        ({"seed": 1, "problem": {"generator": "toy_lp", "pieces": -1},
          "method": {"name": "constrained_general", "eps": 0.1}}, "'pieces'"),
        ({"seed": 1, "problem": {"generator": "ttd_dual", "bars": "6.5"},
          "method": {"name": "constrained_nonsmooth", "eps": 0.1}}, "'bars'"),
        (game_config(setup="simplex"), "unknown setup 'simplex' for "
         "matrix_game; expected 'entropy' or 'euclidean'"),
        ({**game_config(A=[[0, 0], [0, 0]]),
          "method": {"name": "mirror_prox", "N": 20, "L": 0}},
         "L must be finite and positive"),
        ({"seed": 1, "problem": {"generator": "ttd_dual"},
          "method": {"name": "constrained_nonsmooth", "eps": math.nan}},
         "'eps'"),
        ({"seed": 1, "problem": {"generator": "ttd_dual"},
          "setup": {"theta0_sq": "abc"},
          "method": {"name": "constrained_nonsmooth", "eps": 0.1}},
         "'theta0_sq'"),
        ({"seed": 1, "problem": {"generator": "ttd_dual"},
          "setup": {"theta0_sq": math.nan},
          "method": {"name": "constrained_nonsmooth", "eps": 0.1}},
         "'theta0_sq'"),
        ({"seed": 1, "problem": {"generator": "ttd_dual"},
          "setup": {"theta0_sq": 0.0},
          "method": {"name": "constrained_nonsmooth", "eps": 0.1}},
         "'theta0_sq' must be positive"),
        (fixed_md_config(method={"name": "fixed_md", "R": math.inf, "M": 1.0,
                                 "N": 4}), "'R'"),
        (fixed_md_config(method={"name": "fixed_md", "R": 1.0, "M": -math.inf,
                                 "N": 4}), "'M'"),
        (fixed_md_config(method={"name": "fixed_md", "R": None, "M": 1.0,
                                 "N": 4}), "'R'"),
        (fixed_md_config(method={"name": "adaptive_md", "eps": True, "N": 4}),
         "'eps'"),
        ({"seed": 1, "problem": {"generator": "bilinear_box",
                                 "half_width": math.nan},
          "method": {"name": "mirror_prox", "N": 4}}, "'half_width'"),
        (fixed_md_config(setup={"origin": [None]}), "'origin'"),
        (fixed_md_config(setup={"origin": [math.nan]}), "'origin'"),
        (fixed_md_config(setup={"origin": [math.inf]}), "'origin'"),
        (fixed_md_config(method={"name": "shor", "lam": 0.1, "N": 10,
                                 "x0": [None]}), "'x0'"),
        (game_config(N=-3), "N must be >= 0"),
        ({**game_config(), "method": {"name": "universal_mirror_prox",
                                      "eps": 0.01, "M_init": 1.0, "N": -3}},
         "N must be >= 0"),
        ({**game_config(), "method": {"name": "universal_mirror_prox",
                                      "eps": 0.01, "M_init": 0.0, "N": 5}},
         "M_init must be finite and positive"),
        ({"seed": 1, "problem": {"generator": "quadratic_box"},
          "method": {"name": "agm", "N": -3}}, "N must be >= 0"),
        ({"seed": 1, "problem": {"generator": "quadratic_box"},
          "method": {"name": "agm", "L": -1.0, "N": 5}},
         "L must be finite and positive"),
        ({"seed": 1, "problem": {"generator": "quadratic_box"},
          "method": {"name": "universal_agm", "eps": 0.0, "L0": 1.0,
                     "N": 5}}, "eps must be finite and positive"),
        (fixed_md_config(method={"name": "fixed_md", "R": 1.0, "M": 1.0,
                                 "N": 4, "l": 2}), "unknown method key 'l'"),
        (fixed_md_config(setup={"origen": [0.0]}),
         "unknown setup key 'origen'"),
        ({**game_config(), "setup": {"kind": "entropy", "scale": 2}},
         "unknown setup key 'scale'"),
        (fixed_md_config(seeds=3), "unknown config key 'seeds'"),
        ({"seed": 1, "problem": {"generator": "ttd_dual", "node": 40},
          "method": {"name": "constrained_nonsmooth", "eps": 0.05}},
         "unknown problem key 'node'"),
        (game_config(rows=3, col=4),
         "unknown problem key 'col'"),
        (game_config(A="x"), "'A'"),
        ({**game_config(), "setup": {"theta0_sq": 0.0}},
         "setup key 'theta0_sq'"),
        (fixed_md_config(method={"name": "fixed_md", "R": 10 ** 400,
                                 "M": 1.0, "N": 4}), "'R'"),
        ([fixed_md_config()], "config must be a JSON object"),
        ({"seed": 1, "problem": {"generator": "quadratic_box"},
          "setup": {"kind": "entropy"},
          "method": {"name": "agm", "N": 5}},
         "entropy setup requires a simplex problem"),
        ({"seed": 1, "problem": {"generator": "abs_value"},
          "method": {"name": "agm", "N": 5}}, "agm needs L"),
    ], ids=["problem-not-object", "N-not-int", "N-negative",
            "adaptive-N-zero", "ttd-one-node", "origin-wrong-length",
            "M-not-float", "L-not-float", "x0-not-vector",
            "game-rows-0", "game-cols-0", "game-A-1x0", "game-A-empty",
            "game-A-1-D", "rows-null", "rows-bool", "cols-fractional",
            "N-fractional", "N-bool", "N-null", "seed-fractional",
            "seed-bool", "seed-null", "dim-null", "dim-0", "dim-fractional",
            "residual-cols-0", "pieces-negative", "bars-fractional-string",
            "game-setup-unknown", "zero-game-L-0", "eps-nan",
            "theta0_sq-not-number", "theta0_sq-nan", "theta0_sq-0", "R-inf",
            "M-minus-inf", "R-null", "eps-bool", "half_width-nan",
            "origin-null", "origin-nan", "origin-inf", "x0-null",
            "mirror_prox-N-negative", "ump-N-negative", "ump-M_init-0",
            "agm-N-negative", "agm-L-negative", "uagm-eps-0",
            "method-key-unknown", "setup-key-unknown", "vi-setup-key-unknown",
            "top-level-key-unknown", "problem-key-unknown",
            "vi-problem-key-unknown", "game-A-string", "vi-setup-theta0_sq-0",
            "R-huge-integer", "config-not-object", "entropy-setup-on-box",
            "agm-without-L"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, cfg,
                                              names):
        """A malformed config, an empty game included, a null, bool,
        fractional or too small size, N or seed, and a null, bool, nan or
        infinite real parameter end in one error line that names the
        culprit and exit 2, not a traceback, a warning or a run."""
        p = self.write(tmp_path, cfg)
        assert main(["solve", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert names in err

    @pytest.mark.parametrize("exact, integral", [
        (game_config(rows=3, cols=4), game_config(rows=3.0, cols=4.0)),
        (game_config(N=20), game_config(N=20.0)),
        (game_config(seed=3), game_config(seed=3.0)),
        (game_config(seed=3), game_config(seed="3")),
        (fixed_md_config(problem={"generator": "abs_value", "dim": 2},
                         setup={"origin": [1.0, -1.0]}),
         fixed_md_config(problem={"generator": "abs_value", "dim": 2.0},
                         setup={"origin": [1.0, -1.0]})),
    ], ids=["game-sizes", "N", "seed", "seed-string", "dim"])
    def test_integral_values_keep_their_hash(self, tmp_path, capsys, exact,
                                             integral):
        hashes = []
        for name, cfg in (("exact", exact), ("integral", integral)):
            p = self.write(tmp_path, cfg, name=f"{name}.json")
            assert main(["solve", "--config", str(p)]) == 0
            hashes.append(json.loads(capsys.readouterr().out)["trace_sha256"])
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("setup", ["entropy", "euclidean"])
    def test_zero_game_runs(self, tmp_path, capsys, setup):
        """Phi of an all-zero game is 0, so the default L falls back to 1 and
        every row certifies a gap of 0."""
        p = self.write(tmp_path, game_config(A=[[0, 0], [0, 0]], setup=setup))
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bounds_ok"] and out["bounds_checked"] == 20
        assert out["final_gap"] == 0.0
        with open(tmp_path / "cfg_trace.csv", newline="") as fh:
            assert [float(r["f_value"]) for r in csv.DictReader(fh)] == \
                [0.0] * 20

    def test_unchecked_run_is_null(self, tmp_path, capsys):
        """A run without --check-bounds exits 0 with bounds_ok null: it
        passed no check."""
        p = self.write(tmp_path, fixed_md_config())
        assert main(["solve", "--config", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bounds_checked"] == 0 and out["bounds_ok"] is None

    def test_summary_is_strict_json(self, tmp_path, capsys):
        """A run without a gap (N = 0) writes null for it: the summary file
        and stdout parse with nan, inf and -inf refused."""
        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        p = self.write(tmp_path, game_config(N=0))
        assert main(["solve", "--config", str(p), "--check-bounds"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        written = json.loads((tmp_path / "cfg_summary.json").read_text(),
                             parse_constant=refuse)
        assert out == written
        assert out["final_gap"] is None

    def test_rates_missing_file(self, tmp_path):
        assert main(["rates", "--trace", str(tmp_path / "none.csv"),
                     "--column", "f_value"]) == 1

    @pytest.mark.parametrize("body, err", [
        # no k column: KeyError
        (b"f_value\n1\n0.5\n", "error: column 'k' not in trace"),
        # a short row: float(None)
        (b"k,f_value\n1,1\n2\n",
         "error: row 2 of the trace has no number in column 'f_value'\n"),
        # a byte that is not UTF-8: UnicodeDecodeError
        (b"k,f_value\n1,1\xff\n", "error: malformed trace: "),
    ], ids=["no-k-column", "short-row", "not-utf8"])
    def test_rates_malformed_trace(self, tmp_path, capsys, body, err):
        """A malformed trace exits 2 with one error line, not a traceback."""
        trace = tmp_path / "bad_trace.csv"
        trace.write_bytes(body)
        assert main(["rates", "--trace", str(trace),
                     "--column", "f_value"]) == 2
        out, got = capsys.readouterr()
        assert out == "" and len(got.splitlines()) == 1
        assert got.startswith(err)
