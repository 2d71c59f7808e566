"""Configuration-driven experiment runner.

One JSON config describes one experiment: a problem (generator name, sizes,
seed), a method with its parameters, and a prox setup choice.  The runner
writes a trace CSV plus a summary JSON and can check the recorded theorem
bounds.  Identical configs produce byte-identical CSVs, and the summary's
``trace_sha256`` is the SHA-256 of the written file; the run's wall time is
the summary's ``elapsed_ns``.  A run uses one thread of numpy's bundled
OpenBLAS, so its bytes do not depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from . import constrained, mirrorprox, problems, smoothing, subgradient
from .geometry import (FeasibleSet, ProductSetup, entropy_setup,
                       euclidean_setup)
from .oracles import FunctionOracle, ProblemInstance, SaddleOperator
# the runner calls this module's trace_hash, the name a profiler can wrap
from .report import overwrite, trace_csv_text, trace_hash  # noqa: F401

BOUND_SLACK = 1e-9


class ConfigError(ValueError):
    pass


def fit_rate(k, values):
    """Least-squares slope of log(value) vs log(k) over the trailing half."""
    k = np.asarray(k, dtype=float)
    values = np.asarray(values, dtype=float)
    if k.size < 10:
        raise ValueError("need at least 10 rows")
    half = k.size // 2
    k, values = k[half:], values[half:]
    if not np.all((values > 0) & np.isfinite(values)) or np.any(k <= 0):
        raise ValueError("non-positive or non-finite value in the fitted half")
    return float(np.polyfit(np.log(k), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# config values and problem builders
# ---------------------------------------------------------------------------

def integer(value):
    """An int from an int, an integral float or a decimal string, never
    from null, a bool or a fractional value, which it would truncate."""
    n = int(value)
    if isinstance(value, (bool, np.bool_)) or \
            (not isinstance(value, str) and n != value):
        raise ValueError(value)
    return n


def real(value):
    """A finite float from a number or a decimal string, not a bool."""
    x = float(value)
    if isinstance(value, (bool, np.bool_)) or not math.isfinite(x):
        raise ValueError(value)
    return x


def size(value):
    """An integer >= 1."""
    if (n := integer(value)) < 1:
        raise ValueError(value)
    return n


def positive(value):
    """A real > 0."""
    if (x := real(value)) <= 0:
        raise ValueError(value)
    return x


def prox_kind(value):
    """A setup kind: null for the set's default, "euclidean" or "entropy"."""
    if value not in (None, "euclidean", "entropy"):
        raise ValueError(value)
    return value


def vector(value):
    """A 1-D array of finite floats."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or not np.isfinite(v).all():
        raise ValueError(value)
    return v


def matrix(value):
    """A float array; ``gen_matrix_game`` checks its shape and entries."""
    return np.asarray(value, dtype=float)


def mapping(value):
    """A JSON object."""
    if not isinstance(value, dict):
        raise ValueError(value)
    return value


def _coerce(where, params, required, optional):
    """Section ``where`` of a config, ``params``, with each value converted
    by its key's converter.  An unknown key (a misspelt one would leave its
    default in force unseen), a missing required key or a value whose
    converter raises TypeError, ValueError or OverflowError raises a
    ConfigError naming the section, the key and the converter."""
    declared = {**required, **optional}
    for key in params:
        if key not in declared:
            raise ConfigError(f"unknown {where} key '{key}'; allowed: "
                              + ", ".join(sorted(declared)))
    for key in required:
        if key not in params:
            raise ConfigError(f"missing {where} key '{key}'")
    out = {}
    for key, value in params.items():
        convert = declared[key]
        try:
            out[key] = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where} key '{key}' must be "
                              f"{convert.__name__}, got {value!r}") from None
    return out


# generator name -> builder(params, seed) returning (problem, kind), kind
# "convex", "constrained" or "vi"; it checks params first.  _GENERATORS
# holds each kind and the converters of the keys its builder reads, so a
# config is checked before any build, which may run an LP.
PROBLEMS = {}
_GENERATORS = {}


def _problem(name, kind, **params):
    def register(build):
        _GENERATORS[name] = kind, params
        PROBLEMS[name] = lambda raw, seed: (
            build(_coerce("problem", raw, {}, params), seed), kind)
        return build
    return register


@_problem("abs_value", "convex", dim=size)
def _build_abs_value(params, seed):
    n = params.get("dim", 1)
    oracle = FunctionOracle(lambda x: np.abs(x).sum(), np.sign)
    return ProblemInstance(
        objective=oracle, set=FeasibleSet.all_space(n),
        lipschitz_f=float(np.sqrt(n)), f_star=0.0, x_star=np.zeros(n),
        meta={"holder": (0.0, 2.0 * math.sqrt(n))})


@_problem("quadratic_box", "convex", dim=size)
def _build_quadratic_box(params, seed):
    n = params.get("dim", 4)
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=n)
    oracle = FunctionOracle(lambda x: 0.5 * np.sum((x - t) ** 2),
                            lambda x: x - t)
    return ProblemInstance(
        objective=oracle,
        set=FeasibleSet.box(np.full(n, -1.0), np.full(n, 1.0)),
        f_star=0.0, x_star=t.copy(),
        meta={"holder": (1.0, 1.0), "L": 1.0, "mu": 1.0})


@_problem("simplex_linear", "convex", dim=size)
def _build_simplex_linear(params, seed):
    n = params.get("dim", 10)
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 1.0, size=n)
    i = int(np.argmin(c))
    x_star = np.zeros(n)
    x_star[i] = 1.0
    oracle = FunctionOracle(lambda x: c @ x, lambda x: c.copy())
    return ProblemInstance(
        objective=oracle, set=FeasibleSet.simplex(n),
        lipschitz_f=float(np.abs(c).max()), f_star=float(c[i]), x_star=x_star,
        meta={"c": c})


@_problem("toy_lp", "constrained", dim=size, pieces=size)
def _build_toy_lp(params, seed):
    """Linear objective over a box with linear inequality constraints and a
    Slater point at the origin; f_star from an LP oracle."""
    n = params.get("dim", 2)
    m = params.get("pieces", 2)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n)
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    b = -rng.uniform(0.2, 1.0, size=m)    # g_i(0) = b_i < 0
    return problems.linear_box_instance(c, A, b, 1.0,
                                        {"c": c, "A": A, "b": b})


@_problem("max_residual", "convex", rows=size, cols=size)
def _build_max_residual(params, seed):
    """f(x) = ||A x - b||_inf over the box [-1, 1]^n with f_star from an LP."""
    m = params.get("rows", 8)
    n = params.get("cols", 16)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = A @ rng.uniform(-0.5, 0.5, size=n) + 0.1 * rng.standard_normal(m)
    cost = np.concatenate([np.zeros(n), [1.0]])
    A_ub = np.vstack([np.hstack([A, -np.ones((m, 1))]),
                      np.hstack([-A, -np.ones((m, 1))])])
    b_ub = np.concatenate([b, -b])
    bounds = [(-1.0, 1.0)] * n + [(None, None)]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise ConfigError(f"residual LP failed: {res.message}")

    def value(x):
        return float(np.abs(A @ x - b).max())

    def subgrad(x):
        r = A @ x - b
        i = int(np.argmax(np.abs(r)))
        return math.copysign(1.0, r[i]) * A[i]

    return ProblemInstance(
        objective=FunctionOracle(value, subgrad),
        set=FeasibleSet.box(np.full(n, -1.0), np.full(n, 1.0)),
        f_star=float(res.fun), x_star=np.asarray(res.x[:n], dtype=float),
        meta={"A": A, "b": b})


@_problem("matrix_game", "vi", A=matrix, rows=size, cols=size, setup=str)
def _build_matrix_game(params, seed):
    A = params.get("A")
    if A is None:
        A = np.random.default_rng(seed).uniform(
            0.0, 1.0, size=(params.get("rows", 4), params.get("cols", 4)))
    return problems.gen_matrix_game(A, params.get("setup", "entropy"))


@_problem("bilinear_box", "vi", half_width=real)
def _build_bilinear_box(params, seed):
    """Phi(x, u) = (u, -x) for the scalar game f(x, u) = x*u on [-1, 1]^2."""
    half = params.get("half_width", 1.0)
    box = FeasibleSet.box(np.array([-half]), np.array([half]))
    domain = ProductSetup(euclidean_setup(box), euclidean_setup(box))
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    op = SaddleOperator(phi=lambda z: G @ z, domain=domain, lipschitz=1.0,
                        holder_nu=1.0, holder_l=1.0, linear_part=G,
                        meta={"A": np.array([[1.0]]), "value": 0.0})
    return op


@_problem("transport_dual", "convex", rows=size, cols=size)
def _build_transport_dual(params, seed):
    return problems.gen_transport_dual(params.get("rows", 3),
                                       params.get("cols", 3), seed)


@_problem("ttd_dual", "constrained", nodes=size, bars=size)
def _build_ttd_dual(params, seed):
    return problems.gen_ttd_dual(params.get("nodes", 5),
                                 params.get("bars", 6), seed)


def _make_setup(problem, setup_cfg):
    """The prox setup of a built problem from a setup config that
    ``_validate`` returned.  The checks that need the built set are made
    here: an entropy setup needs a simplex, and ``origin`` the problem's
    dimension."""
    setup_cfg = setup_cfg or {}
    theta0_sq = setup_cfg.get("theta0_sq")
    kind = setup_cfg.get("kind") or (
        "entropy" if problem.set.kind == "simplex" else "euclidean")
    if kind == "entropy":
        if problem.set.kind != "simplex":
            raise ConfigError("entropy setup requires a simplex problem")
        return entropy_setup(problem.set.dim, problem.set.scale,
                             theta0_sq=theta0_sq)
    setup = euclidean_setup(problem.set, origin=setup_cfg.get("origin"),
                            theta0_sq=theta0_sq)
    if setup.theta0_sq is None and problem.set.kind in ("box", "ball", "simplex"):
        setup = dataclasses.replace(setup, theta0_sq=setup.max_d())
    return setup


# ---------------------------------------------------------------------------
# method table
# ---------------------------------------------------------------------------

def _agm(problem, setup, a):
    L = a.get("L", (problem.meta or {}).get("L"))
    if L is None:
        raise ConfigError("agm needs L")
    return smoothing.agm_solve(problem, setup, float(L), a["N"])


# minimize the objective; any constraints of the problem are not used
_MINIMIZE = ("convex", "constrained")

# method name -> (problem kinds it solves, required and optional parameters
# with their coercions, call(problem, setup, params)).  The calls look their
# solver up on its module at call time, so a solver wrapped there runs.
_METHODS = {
    "shor": (
        _MINIMIZE, {"lam": real, "N": integer}, {"x0": vector},
        lambda p, s, a: subgradient.run_shor(
            p, a.get("x0", s.prox_center()), a["lam"], a["N"])),
    "fixed_md": (
        _MINIMIZE, {"R": real, "M": real, "N": integer}, {},
        lambda p, s, a: subgradient.run_fixed_md(p, s, a["R"], a["M"], a["N"])),
    "adaptive_md": (
        _MINIMIZE, {"eps": real, "N": integer}, {},
        lambda p, s, a: subgradient.run_adaptive_md(p, s, a["eps"], a["N"])),
    "normalized_md": (
        _MINIMIZE, {"R": real, "N": integer}, {},
        lambda p, s, a: subgradient.run_normalized_md(p, s, a["R"], a["N"])),
    "strongly_convex_md": (
        _MINIMIZE, {"mu": real, "N": integer}, {"M": real},
        lambda p, s, a: subgradient.run_strongly_convex_md(
            p, s, a["mu"], a["N"], M=a.get("M"))),
    "constrained_nonsmooth": (
        ("constrained",), {"eps": real}, {},
        lambda p, s, a: constrained.solve_constrained_nonsmooth(p, s, a["eps"])),
    "constrained_general": (
        ("constrained",), {"eps": real}, {},
        lambda p, s, a: constrained.solve_constrained_general(p, s, a["eps"])),
    "agm": (_MINIMIZE, {"N": integer}, {"L": real}, _agm),
    "universal_agm": (
        _MINIMIZE, {"eps": real, "L0": real, "N": integer}, {},
        lambda p, s, a: smoothing.universal_agm(p, s, a["eps"], a["L0"],
                                                a["N"])),
    "mirror_prox": (
        ("vi",), {"N": integer}, {"L": real},
        # Phi of an all-zero game is 0, so any L > 0 is valid for it
        lambda op, s, a: mirrorprox.mirror_prox_solve(
            op, op.domain, a.get("L", op.lipschitz or 1.0), a["N"])),
    "universal_mirror_prox": (
        ("vi",), {"eps": real, "M_init": real, "N": integer}, {},
        lambda op, s, a: mirrorprox.universal_mirror_prox_solve(
            op, op.domain, a["eps"], a["M_init"], a["N"])),
}
METHODS = frozenset(_METHODS)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _validate(config):
    """Every name, kind, key and value of a config, checked before anything
    is built.  Returns the names, the seed, the coerced setup (None for a
    ``vi`` problem, which ignores it) and the coerced method parameters."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    config = _coerce("config", config, {"problem": mapping, "method": mapping,
                                        "seed": integer}, {"setup": mapping})
    pname = config["problem"].get("generator")
    if not isinstance(pname, str) or pname not in _GENERATORS:
        raise ConfigError(f"unknown problem '{pname}'; available: "
                          + ", ".join(sorted(_GENERATORS)))
    mname = config["method"].get("name")
    if not isinstance(mname, str) or mname not in METHODS:
        raise ConfigError(f"unknown method '{mname}'; available: "
                          + ", ".join(sorted(METHODS)))
    pkind, pparams = _GENERATORS[pname]
    _coerce("problem", config["problem"], {"generator": str}, pparams)
    kinds, required, optional, _ = _METHODS[mname]
    mparams = _coerce("method", config["method"], {"name": str, **required},
                      optional)
    if pkind not in kinds:
        raise ConfigError(f"method '{mname}' does not apply to '{pname}', "
                          f"a {pkind} problem")
    setup = _coerce("setup", config.get("setup", {}), {}, {
        "kind": prox_kind, "theta0_sq": positive, "origin": vector})
    return (pname, mname, config["seed"], None if pkind == "vi" else setup,
            mparams)


def _check_bounds(report):
    """One verdict per (k, error, bound) the run certifies: its headline
    gap <= bound when both are known and ``report.checks`` does not list
    that triple already (agm's last row does), then ``report.checks``."""
    checks = report.checks
    headline = (report.iterations, report.gap, report.bound)
    if None not in headline and math.isfinite(report.bound) and \
            headline not in checks:
        checks = [headline, *checks]
    return [{"k": k, "error": error, "bound": bound,
             "ok": error <= bound + BOUND_SLACK} for k, error, bound in checks]


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside, its old count restored after: a dot
    product split over threads sums in another order, which moves the last
    bits of a long one.  Without numpy's bundled OpenBLAS, nothing."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def run_experiment(config, out_dir=None, check_bounds=False, stem="experiment"):
    """Run one experiment.  Returns (exit_code, summary dict).

    A malformed config raises ConfigError before anything is built.
    """
    pname, mname, seed, setup_cfg, mparams = _validate(config)
    pparams = {k: v for k, v in config["problem"].items() if k != "generator"}
    with _one_blas_thread():
        problem, kind = PROBLEMS[pname](pparams, seed)
        setup = None if kind == "vi" else _make_setup(problem, setup_cfg)

        t0 = time.perf_counter_ns()
        report = _METHODS[mname][3](problem, setup, mparams)
        elapsed = time.perf_counter_ns() - t0

        trace = report.trace
        out = None if out_dir is None else Path(out_dir)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        digest = trace_hash(
            trace, None if out is None else out / f"{stem}_trace.csv")

    verdicts = _check_bounds(report) if check_bounds else []
    all_ok = all(v["ok"] for v in verdicts)

    summary = {
        "problem": pname,
        "method": mname,
        "seed": seed,
        "iterations": int(report.iterations),
        "oracle_calls": int(report.oracle_calls),
        "trace_rows": len(trace),
        "trace_sha256": digest,
        "bounds_checked": len(verdicts),
        # null when nothing was checked: no verdict is not a passed one
        "bounds_ok": all_ok if verdicts else None,
        "elapsed_ns": elapsed,
    }
    if kind == "vi":
        summary["final_gap"] = report.f_out
    else:
        summary["f_out"] = float(report.f_out)
        if problem.f_star is not None:
            summary["f_star"] = float(problem.f_star)
        if report.gap is not None:
            summary["gap"] = float(report.gap)
        if report.bound is not None and report.bound == report.bound:
            summary["bound"] = float(report.bound)
        if report.g_bar is not None:
            summary["g_bar"] = float(report.g_bar)
    if verdicts:
        summary["worst_margin"] = min(v["bound"] - v["error"] for v in verdicts)
    # JSON has no nan or inf: a non-finite float is written as null
    summary = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in summary.items()}

    if out is not None:
        with overwrite(out / f"{stem}_summary.json") as fh:
            fh.write((json.dumps(summary, sort_keys=True, indent=2,
                                 allow_nan=False) + "\n").encode("ascii"))

    code = 0 if all_ok else 3
    return code, summary
