"""Configuration-driven experiment runner.

One JSON config describes one experiment: a problem (generator name, sizes,
seed), a method with its parameters, and a prox setup choice.  The runner
writes a trace CSV plus a summary JSON and can check the recorded theorem
bounds.  Identical configs produce byte-identical CSVs, and the summary's
``trace_sha256`` is the SHA-256 of the written file; the run's wall time is
the summary's ``elapsed_ns``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from . import constrained, mirrorprox, problems, smoothing, subgradient
from .geometry import (FeasibleSet, ProductSetup, ProxSetup, entropy_setup,
                       euclidean_setup)
from .oracles import (FunctionOracle, LinearMaxBundle, LinearOracle,
                      ProblemInstance, SaddleOperator)
from .report import TRACE_COLUMNS, RepeatSpan

BOUND_SLACK = 1e-9


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

# One row template serves the whole trace: "%d" for the integer columns and
# "%.17g" for the floats, which also prints nan, inf, -inf and -0.
_TEMPLATE = {c: "%d" if c in ("k", "oracle_calls", "elapsed_ns") else "%.17g"
             for c in TRACE_COLUMNS}
_ROW = ",".join(_TEMPLATE.values()) + "\n"
_CELLS = attrgetter(*TRACE_COLUMNS)
_HEADER = (",".join(TRACE_COLUMNS) + "\n").encode("ascii")
# the columns of a RepeatSpan that count up from one row to the next
_COUNTERS = ("k", "oracle_calls")
# most rows formatted at once, so serialization memory is O(chunk)
_CHUNK_ROWS = 1 << 16


def _chunks(trace):
    """Header plus every row as ASCII chunks of at most ``_CHUNK_ROWS``
    rows.  A list of rows is formatted by one ``%`` over a flat tuple of
    its cells."""
    yield _HEADER
    for part in getattr(trace, "parts", [trace]):
        if isinstance(part, RepeatSpan):
            yield from _span_chunks(part)
            continue
        rows = iter(part)
        while batch := list(islice(rows, _CHUNK_ROWS)):
            cells = tuple(chain.from_iterable(map(_CELLS, batch)))
            yield ((_ROW * len(batch)) % cells).encode("ascii")


def _span_chunks(span):
    """A RepeatSpan's rows: its shared cells formatted once, its counters
    written as digits into a uint8 row matrix.  A chunk ends where either
    counter gains a digit, so each has one row width.  ``RunTrace.repeat``
    keeps the counters ints below 2**63, so int64 holds them."""
    cells = {c: _TEMPLATE[c] % getattr(span.row, c) for c in TRACE_COLUMNS}
    first = {c: getattr(span.row, c) for c in _COUNTERS}
    step = {"k": 1, "oracle_calls": span.calls_step}
    start = 0
    while start < span.count:
        low = {c: first[c] + step[c] * start for c in _COUNTERS}
        width = {c: len(str(low[c])) for c in _COUNTERS}
        # stop before the first row whose counter reaches 10**width
        stop = min([span.count, start + _CHUNK_ROWS]
                   + [start - (low[c] - 10 ** width[c]) // step[c]
                      for c in _COUNTERS if step[c]])
        at, pos = {}, 0
        for c in TRACE_COLUMNS:
            if c in _COUNTERS:
                cells[c] = "0" * width[c]
            at[c], pos = pos, pos + len(cells[c]) + 1
        yield _counted_rows(",".join(cells.values()) + "\n", stop - start,
                            [(at[c], width[c], low[c], step[c])
                             for c in _COUNTERS])
        start = stop


def _counted_rows(line, n, counters):
    """``n`` copies of ``line``, whose counter cells are zeros, with row
    i's value low + step * i of each (at, width, low, step) counter written
    into its cell as ASCII digits."""
    rows = np.empty((n, len(line)), dtype=np.uint8)
    rows[:] = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    i = np.arange(n, dtype=np.int64)
    for at, width, low, step in counters:
        values = low + step * i
        for col in reversed(range(at, at + width)):
            tens = values // 10
            rows[:, col] += (values - 10 * tens).astype(np.uint8)
            values = tens
    return rows.tobytes()


def _stream(trace, path=None):
    """The trace hash, from one format pass that also writes the same bytes
    to ``path`` when one is given."""
    digest = hashlib.sha256()
    with contextlib.nullcontext() if path is None else open(path, "wb") as fh:
        for chunk in _chunks(trace):
            digest.update(chunk)
            if fh is not None:
                fh.write(chunk)
            del chunk   # freed before the next chunk is formatted
    return digest.hexdigest()


def trace_csv_text(trace):
    """CSV body with the fixed header; LF endings, '.' decimal, 17 digits.
    It builds the whole text, for tests and inspection; the runner streams."""
    return b"".join(_chunks(trace)).decode("ascii")


def trace_hash(trace):
    """SHA-256 of the CSV serialization, computed one chunk at a time."""
    return _stream(trace)


def fit_rate(k, values):
    """Least-squares slope of log(value) vs log(k) over the trailing half."""
    k = np.asarray(k, dtype=float)
    values = np.asarray(values, dtype=float)
    if k.size < 10:
        raise ValueError("need at least 10 rows")
    half = k.size // 2
    k, values = k[half:], values[half:]
    if np.any(values <= 0) or np.any(k <= 0):
        raise ValueError("non-positive values in the fitted column")
    return float(np.polyfit(np.log(k), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------

def integer(value):
    """An int from an int, an integral float or a decimal string.  Null,
    bool and fractional values raise ValueError instead of truncating."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, (bool, np.bool_)) or \
            (not isinstance(value, str) and n != value):
        raise ValueError(f"not an integer: {value!r}")
    return n


def real(value):
    """A finite float from a number or a decimal string.  Null, bool, nan
    and infinite values raise ValueError."""
    try:
        x = None if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError):
        x = None
    if x is None or not math.isfinite(x):
        raise ValueError(f"not a finite number: {value!r}")
    return x


def _size(params, name, default):
    """Problem parameter ``name`` as an integer >= 1."""
    value = params.get(name, default)
    try:
        n = integer(value)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"parameter '{name}' must be an integer >= 1, "
                          f"got {value!r}") from None
    return n


# generator name -> builder(params, seed) returning (problem, kind), with
# kind "convex", "constrained" or "vi".  _PROBLEM_KINDS keeps the kinds and
# _PROBLEM_KEYS the parameters each builder reads, so a config is checked
# against its problem before the build, which may run an LP.
PROBLEMS = {}
_PROBLEM_KINDS = {}
_PROBLEM_KEYS = {}


def _problem(name, kind, keys):
    def register(build):
        _PROBLEM_KINDS[name] = kind
        _PROBLEM_KEYS[name] = keys
        PROBLEMS[name] = lambda params, seed: (build(params, seed), kind)
        return build
    return register


@_problem("abs_value", "convex", ("dim",))
def _build_abs_value(params, seed):
    n = _size(params, "dim", 1)
    oracle = FunctionOracle(lambda x: np.abs(x).sum(), np.sign)
    return ProblemInstance(
        objective=oracle, set=FeasibleSet.all_space(n),
        lipschitz_f=float(np.sqrt(n)), f_star=0.0, x_star=np.zeros(n),
        meta={"holder": (0.0, 2.0 * math.sqrt(n))})


@_problem("quadratic_box", "convex", ("dim",))
def _build_quadratic_box(params, seed):
    n = _size(params, "dim", 4)
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=n)
    oracle = FunctionOracle(lambda x: 0.5 * np.sum((x - t) ** 2),
                            lambda x: x - t)
    return ProblemInstance(
        objective=oracle,
        set=FeasibleSet.box(np.full(n, -1.0), np.full(n, 1.0)),
        f_star=0.0, x_star=t.copy(),
        meta={"holder": (1.0, 1.0), "L": 1.0, "mu": 1.0})


@_problem("simplex_linear", "convex", ("dim",))
def _build_simplex_linear(params, seed):
    n = _size(params, "dim", 10)
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


@_problem("toy_lp", "constrained", ("dim", "pieces"))
def _build_toy_lp(params, seed):
    """Linear objective over a box with linear inequality constraints and a
    Slater point at the origin; f_star from an LP oracle."""
    n = _size(params, "dim", 2)
    m = _size(params, "pieces", 2)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n)
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    b = -rng.uniform(0.2, 1.0, size=m)    # g_i(0) = b_i < 0
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    res = linprog(c, A_ub=A, b_ub=-b, bounds=list(zip(lo, hi)), method="highs")
    if not res.success:
        raise ConfigError(f"toy LP infeasible: {res.message}")
    return ProblemInstance(
        objective=LinearOracle(c),
        set=FeasibleSet.box(lo, hi),
        constraints=LinearMaxBundle(A, b),
        lipschitz_f=float(np.linalg.norm(c)),
        lipschitz_g=float(max(np.linalg.norm(A[i]) for i in range(m))),
        f_star=float(res.fun), x_star=np.asarray(res.x, dtype=float),
        meta={"c": c, "A": A, "b": b})


@_problem("max_residual", "convex", ("rows", "cols"))
def _build_max_residual(params, seed):
    """f(x) = ||A x - b||_inf over the box [-1, 1]^n with f_star from an LP."""
    m = _size(params, "rows", 8)
    n = _size(params, "cols", 16)
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


@_problem("matrix_game", "vi", ("A", "rows", "cols", "setup"))
def _build_matrix_game(params, seed):
    if "A" in params:
        A = np.asarray(params["A"], dtype=float)
    else:
        m = _size(params, "rows", 4)
        n = _size(params, "cols", 4)
        A = np.random.default_rng(seed).uniform(0.0, 1.0, size=(m, n))
    return problems.gen_matrix_game(A, params.get("setup", "entropy"))


@_problem("bilinear_box", "vi", ("half_width",))
def _build_bilinear_box(params, seed):
    """Phi(x, u) = (u, -x) for the scalar game f(x, u) = x*u on [-1, 1]^2."""
    half = _coerce(params, {}, {"half_width": real}).get("half_width", 1.0)
    box = FeasibleSet.box(np.array([-half]), np.array([half]))
    domain = ProductSetup(euclidean_setup(box), euclidean_setup(box))
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    op = SaddleOperator(phi=lambda z: G @ z, domain=domain, lipschitz=1.0,
                        holder_nu=1.0, holder_l=1.0, linear_part=G,
                        meta={"A": np.array([[1.0]]), "value": 0.0})
    return op


@_problem("transport_dual", "convex", ("rows", "cols"))
def _build_transport_dual(params, seed):
    return problems.gen_transport_dual(_size(params, "rows", 3),
                                       _size(params, "cols", 3), seed)


@_problem("ttd_dual", "constrained", ("nodes", "bars"))
def _build_ttd_dual(params, seed):
    return problems.gen_ttd_dual(_size(params, "nodes", 5),
                                 _size(params, "bars", 6), seed)


def _make_setup(problem, setup_cfg):
    """The prox setup of a built problem from a setup config that
    ``_validate`` returned.  The checks that need the built set are made
    here: an entropy setup needs a simplex, and ``origin`` the problem's
    dimension."""
    setup_cfg = setup_cfg or {}
    theta0_sq = setup_cfg.get("theta0_sq")
    kind = setup_cfg.get("kind")
    if kind is None:
        kind = "entropy" if problem.set.kind == "simplex" else "euclidean"
    if kind == "entropy":
        if problem.set.kind != "simplex":
            raise ConfigError("entropy setup requires a simplex problem")
        return entropy_setup(problem.set.dim, problem.set.scale,
                             theta0_sq=theta0_sq)
    setup = euclidean_setup(problem.set, origin=setup_cfg.get("origin"),
                            theta0_sq=theta0_sq)
    if setup.theta0_sq is None and problem.set.kind in ("box", "ball", "simplex"):
        setup = ProxSetup(problem.set, "euclidean", origin=setup.origin,
                          theta0_sq=setup.max_d())
    return setup


# ---------------------------------------------------------------------------
# method table
# ---------------------------------------------------------------------------

def _agm(problem, setup, a):
    L = a.get("L", (problem.meta or {}).get("L"))
    if L is None:
        raise ConfigError("agm needs L")
    return smoothing.agm_solve(problem, setup, float(L), a["N"])


def vector(value):
    """A 1-D array of finite floats.  Null, nan and infinite entries raise
    ValueError."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or not np.isfinite(v).all():
        raise ValueError("not a 1-D array of finite numbers")
    return v


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


def _coerce(params, required, optional):
    """``params`` with each required entry present, and each required or
    optional entry that is present coerced."""
    out = dict(params)
    for name, convert in {**required, **optional}.items():
        if name not in params:
            if name in required:
                raise ConfigError(f"missing parameter '{name}'")
            continue
        try:
            out[name] = convert(params[name])
        except (TypeError, ValueError):
            raise ConfigError(f"parameter '{name}' must be {convert.__name__}, "
                              f"got {params[name]!r}") from None
    return out


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _known(where, params, allowed):
    """Refuse the first key of ``params`` that is not in ``allowed``: a
    misspelt key would otherwise leave its default in force unseen."""
    for key in params:
        if key not in allowed:
            raise ConfigError(f"unknown {where} key '{key}'; allowed: "
                              + ", ".join(sorted(allowed)))


def _validate(config):
    """Names, kinds, seed and setup of a config, checked before anything
    is built.  Returns the names, the seed and the coerced setup; a ``vi``
    problem ignores the setup."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _known("config", config, ("seed", "problem", "method", "setup"))
    for key in ("problem", "method"):
        if not isinstance(config.get(key), dict):
            raise ConfigError(f"config needs a '{key}' object")
    if not isinstance(config.get("setup", {}), dict):
        raise ConfigError("'setup' must be a JSON object")
    pname = config["problem"].get("generator")
    if not isinstance(pname, str) or pname not in PROBLEMS:
        raise ConfigError(f"unknown problem '{pname}'; available: "
                          + ", ".join(sorted(PROBLEMS)))
    mname = config["method"].get("name")
    if not isinstance(mname, str) or mname not in METHODS:
        raise ConfigError(f"unknown method '{mname}'; available: "
                          + ", ".join(sorted(METHODS)))
    _known("problem", config["problem"], ("generator", *_PROBLEM_KEYS[pname]))
    kinds, required, optional, _ = _METHODS[mname]
    _known("method", config["method"], ("name", *required, *optional))
    pkind = _PROBLEM_KINDS[pname]
    if pkind not in kinds:
        raise ConfigError(f"method '{mname}' does not apply to '{pname}', "
                          f"a {pkind} problem")
    seed = _coerce(config, {"seed": integer}, {})["seed"]
    _known("setup", config.get("setup", {}), ("kind", "theta0_sq", "origin"))
    if pkind == "vi":
        return pname, mname, seed, None
    setup = _coerce(config.get("setup", {}), {},
                    {"theta0_sq": real, "origin": vector})
    theta0_sq = setup.get("theta0_sq")
    if theta0_sq is not None and theta0_sq <= 0:
        raise ConfigError(f"parameter 'theta0_sq' must be positive, "
                          f"got {theta0_sq!r}")
    if setup.get("kind") not in (None, "euclidean", "entropy"):
        raise ConfigError(f"unknown setup kind '{setup['kind']}'")
    return pname, mname, seed, setup


def _check_bounds(report):
    """One verdict per (k, error, bound) the run certifies: its headline
    gap <= bound when both are known, then the solver's ``report.checks``."""
    checks = report.checks
    gap, bound = report.gap, report.bound
    if gap is not None and bound is not None and math.isfinite(bound):
        checks = [(report.iterations, gap, bound), *checks]
    return [{"k": k, "error": error, "bound": bound,
             "ok": error <= bound + BOUND_SLACK} for k, error, bound in checks]


def run_experiment(config, out_dir=None, check_bounds=False, stem="experiment"):
    """Run one experiment.  Returns (exit_code, summary dict).

    A malformed config raises ConfigError before anything is built.
    """
    pname, mname, seed, setup_cfg = _validate(config)
    _, required, optional, call = _METHODS[mname]
    mparams = _coerce({k: v for k, v in config["method"].items()
                       if k != "name"}, required, optional)
    pparams = {k: v for k, v in config["problem"].items() if k != "generator"}
    problem, kind = PROBLEMS[pname](pparams, seed)
    setup = None if kind == "vi" else _make_setup(problem, setup_cfg)

    t0 = time.perf_counter_ns()
    report = call(problem, setup, mparams)
    elapsed = time.perf_counter_ns() - t0

    trace = report.trace
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    digest = _stream(trace, None if out is None else out / f"{stem}_trace.csv")

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
        (out / f"{stem}_summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
            + "\n", newline="\n")

    code = 0 if all_ok else 3
    return code, summary
