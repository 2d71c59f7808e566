"""The five subgradient methods run one loop, ``subgradient._Descent``.
The loops it replaced are kept here as ``reference_*`` and every entry
point must reproduce its reference byte for byte."""

import math

import numpy as np
import pytest

from mirropt import bench
from mirropt.bench import trace_csv_text
from mirropt.geometry import FeasibleSet, euclidean_setup
from mirropt.oracles import FunctionOracle, OracleResponse, ProblemInstance
from mirropt.report import Report, RunTrace, TraceRow
from mirropt.subgradient import (run_adaptive_md, run_fixed_md,
                                 run_normalized_md, run_shor,
                                 run_strongly_convex_md)


# -- the separate loops, as they were -------------------------------------

class _Counted:
    """``fn`` with a count of the calls made through it."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def _maybe_dist(x, x_star):
    if x_star is None:
        return None
    return float(np.linalg.norm(x - x_star))


def reference_shor(problem, x0, lam, N):
    """Constant-step-length normalized subgradient iteration.

    x^{k+1} = x^k - lam * g^k / ||g^k||_2; a zero subgradient stops the run
    with an exact optimum.  The report carries the min over iterates of the
    distance to x_star when it is known.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    f = _Counted(problem.objective)
    x = np.asarray(x0, dtype=float).copy()
    trace = RunTrace()
    min_dist = _maybe_dist(x, problem.x_star)
    stopped_exact = False
    for k in range(N):
        resp = f(x)
        gn = np.linalg.norm(resp.subgradient)
        trace.append(TraceRow(k, resp.value, step=lam, M_k=float(gn),
                              oracle_calls=f.calls))
        if gn == 0.0:
            stopped_exact = True
            break
        x = x - lam * resp.subgradient / gn
        d = _maybe_dist(x, problem.x_star)
        if d is not None:
            min_dist = d if min_dist is None else min(min_dist, d)
    f_out = f(x).value
    return Report(
        method="shor", x_out=x, f_out=f_out, iterations=len(trace),
        oracle_calls=f.calls, trace=trace, min_dist=min_dist,
        stopped_exact=stopped_exact,
        gap=None if problem.f_star is None else f_out - problem.f_star,
    )


def reference_fixed_md(problem, setup, R, M, N):
    """Fixed-step Mirror Descent with uniform averaging of x^0..x^{N-1}.

    Euclidean setup: h = R/(M sqrt(N)) with guarantee M R / sqrt(N)
    (R = ||x^0 - x_star||).  General setup: h = sqrt(2) R / (M sqrt(N)) with
    guarantee sqrt(2) M R / sqrt(N) (R^2 >= V[x^0](x_star)).
    """
    if R <= 0 or M <= 0 or N < 1:
        raise ValueError("R, M must be positive and N >= 1")
    euclidean = setup.kind == "euclidean"
    h = R / (M * math.sqrt(N)) if euclidean else math.sqrt(2.0) * R / (M * math.sqrt(N))
    bound = M * R / math.sqrt(N) if euclidean else math.sqrt(2.0) * M * R / math.sqrt(N)
    f = _Counted(problem.objective)
    x = setup.prox_center()
    total = np.zeros_like(x)
    trace = RunTrace()
    m_obs = 0.0
    for k in range(N):
        resp = f(x)
        gd = setup.dual_norm(resp.subgradient)
        m_obs = max(m_obs, gd)
        total += x
        trace.append(TraceRow(k, resp.value, step=h, M_k=gd,
                              oracle_calls=f.calls, bound_value=bound))
        x = setup.mirror_step(x, h * resp.subgradient)
    x_bar = total / N
    f_bar = f(x_bar).value
    return Report(
        method="fixed_md", x_out=x_bar, f_out=f_bar, iterations=N,
        oracle_calls=f.calls, trace=trace, bound=bound,
        checks=[(N, m_obs, M * (1 + 1e-12))],
        gap=None if problem.f_star is None else f_bar - problem.f_star,
        extras={"h": h, "x_last": x},
    )


def reference_adaptive_md(problem, setup, eps, N):
    """Adaptive-norm Mirror Descent: h_k = eps / ||g^k||_*^2 with step-weighted
    averaging.  A zero subgradient stops the run at an exact optimum."""
    if eps <= 0 or N < 1:
        raise ValueError("eps must be positive and N >= 1")
    f = _Counted(problem.objective)
    x = setup.prox_center()
    trace = RunTrace()
    steps = []
    weighted = np.zeros_like(x)
    stopped_exact = False
    for k in range(N):
        resp = f(x)
        gd = setup.dual_norm(resp.subgradient)
        if gd == 0.0:
            weighted = x.copy()
            steps = [1.0]
            stopped_exact = True
            trace.append(TraceRow(k, resp.value, step=float("inf"), M_k=0.0,
                                  oracle_calls=f.calls))
            break
        h = eps / gd**2
        steps.append(h)
        weighted += h * x
        trace.append(TraceRow(k, resp.value, step=h, M_k=gd,
                              oracle_calls=f.calls))
        x = setup.mirror_step(x, h * resp.subgradient)
    h_sum = float(np.sum(steps))
    x_bar = weighted if stopped_exact else weighted / h_sum
    f_bar = f(x_bar).value
    r_sq = setup.theta0_sq
    if r_sq is None and problem.x_star is not None:
        r_sq = setup.bregman(setup.prox_center(), problem.x_star)
    realized_bound = None if (r_sq is None or stopped_exact) \
        else r_sq / h_sum + eps / 2.0
    return Report(
        method="adaptive_md", x_out=x_bar, f_out=f_bar, iterations=len(trace),
        oracle_calls=f.calls, trace=trace, bound=realized_bound,
        stopped_exact=stopped_exact,
        gap=None if problem.f_star is None else f_bar - problem.f_star,
        extras={"h_sum": h_sum},
    )


def reference_normalized_md(problem, setup, R, N):
    """Normalized-step subgradient method, valid for quasi-convex objectives.

    h_k = R / (||g^k||_2 sqrt(N)); returns the best iterate.  The realized
    bound uses the largest observed normalizer when no Lipschitz constant is
    supplied.
    """
    if setup.kind != "euclidean":
        raise ValueError("normalized method requires the Euclidean setup")
    if R <= 0 or N < 1:
        raise ValueError("R must be positive and N >= 1")
    f = _Counted(problem.objective)
    x = setup.prox_center()
    trace = RunTrace()
    best_x, best_f = None, math.inf
    m_obs = 0.0
    stopped_exact = False
    for k in range(N):
        resp = f(x)
        if resp.value < best_f:
            best_f, best_x = resp.value, x.copy()
        gn = float(np.linalg.norm(resp.subgradient))
        m_obs = max(m_obs, gn)
        if gn == 0.0:
            stopped_exact = True
            trace.append(TraceRow(k, resp.value, step=float("inf"), M_k=0.0,
                                  oracle_calls=f.calls))
            break
        h = R / (gn * math.sqrt(N))
        trace.append(TraceRow(k, resp.value, step=h, M_k=gn,
                              oracle_calls=f.calls))
        x = setup.mirror_step(x, h * resp.subgradient)
    bound = m_obs * R / math.sqrt(N)
    return Report(
        method="normalized_md", x_out=best_x, f_out=best_f,
        iterations=len(trace), oracle_calls=f.calls, trace=trace, bound=bound,
        stopped_exact=stopped_exact,
        gap=None if problem.f_star is None else best_f - problem.f_star,
        extras={"M_observed": m_obs},
    )


def reference_strongly_convex_md(problem, setup, mu, N, M=None):
    """Projected subgradient method for mu-strongly convex objectives.

    h_k = 2 / (mu (k+1)), d(x) = 0.5*||x - x^0||_2^2; output is the weighted
    average sum_{k=1..N} 2k/(N(N+1)) x^k with guarantee 2 M^2 / (mu (N+1)).
    """
    if setup.kind != "euclidean":
        raise ValueError("strongly convex variant requires the Euclidean setup")
    if mu <= 0 or N < 1:
        raise ValueError("mu must be positive and N >= 1")
    f = _Counted(problem.objective)
    x = setup.prox_center()
    trace = RunTrace()
    m_obs = 0.0
    weighted = np.zeros_like(x)
    wsum = N * (N + 1) / 2.0
    for k in range(N):
        resp = f(x)
        gn = float(np.linalg.norm(resp.subgradient))
        m_obs = max(m_obs, gn)
        h = 2.0 / (mu * (k + 1))
        trace.append(TraceRow(k, resp.value, step=h, M_k=gn,
                              oracle_calls=f.calls))
        x = setup.mirror_step(x, h * resp.subgradient)
        # x is now x^{k+1}, weight 2(k+1)/(N(N+1))
        weighted += (k + 1) * x / wsum
    m_eff = M if M is not None else m_obs
    bound = 2.0 * m_eff**2 / (mu * (N + 1))
    f_bar = f(weighted).value
    return Report(
        method="strongly_convex_md", x_out=weighted, f_out=f_bar,
        iterations=N, oracle_calls=f.calls, trace=trace, bound=bound,
        gap=None if problem.f_star is None else f_bar - problem.f_star,
        checks=[] if M is None else [(N, m_obs, M * (1 + 1e-12))],
        extras={"M_observed": m_obs},
    )


# -- what the entry points must reproduce -----------------------------------

def _bits(value):
    """Raw float64 bytes of a float or array (the sign of zero and NaN
    payloads count); other values as they are."""
    if isinstance(value, (float, np.floating, np.ndarray)):
        return np.asarray(value, dtype=np.float64).tobytes()
    return value


def assert_same_run(rep, ref):
    """Trace CSV, output, counts, bound, gap, the exact-stop flag, the
    checks, min_dist and every extra are the reference's, byte for byte."""
    assert trace_csv_text(rep.trace) == trace_csv_text(ref.trace)
    assert rep.x_out.tobytes() == ref.x_out.tobytes()
    for name in ("f_out", "iterations", "oracle_calls", "bound", "gap",
                 "stopped_exact", "min_dist"):
        assert _bits(getattr(rep, name)) == _bits(getattr(ref, name)), name
    assert [tuple(map(_bits, c)) for c in rep.checks] == \
        [tuple(map(_bits, c)) for c in ref.checks]
    assert rep.extras.keys() == ref.extras.keys()
    assert {k: _bits(v) for k, v in rep.extras.items()} == \
        {k: _bits(v) for k, v in ref.extras.items()}


SOLVERS = {"shor": (run_shor, reference_shor),
           "fixed_md": (run_fixed_md, reference_fixed_md),
           "adaptive_md": (run_adaptive_md, reference_adaptive_md),
           "normalized_md": (run_normalized_md, reference_normalized_md),
           "strongly_convex_md": (run_strongly_convex_md,
                                  reference_strongly_convex_md)}


def _call(solver, problem, setup, params):
    """Shor from the setup's prox center, as the runner starts it; the other
    methods on the setup."""
    if solver in (run_shor, reference_shor):
        return solver(problem, setup.prox_center(), **params)
    return solver(problem, setup, **params)


def _bench(generator, params, seed, setup=None):
    problem, _ = bench.PROBLEMS[generator](params, seed)
    return problem, bench._make_setup(problem, setup)


def _box():
    return _bench("quadratic_box", {"dim": 4}, 3)


def _simplex():
    return _bench("simplex_linear", {"dim": 10}, 2)


def _residual():
    return _bench("max_residual", {"rows": 6, "cols": 8}, 4)


def _abs(*origin):
    """|x|_1 from ``origin``, whose subgradient sign(x) is 0 at 0."""
    return _bench("abs_value", {"dim": len(origin)}, 0,
                  {"origin": list(origin)})


CASES = {
    # Euclidean boxes
    "shor-box": ("shor", _box, {"lam": 0.05, "N": 60}),
    "fixed-box": ("fixed_md", _box, {"R": 2.0, "M": 4.0, "N": 100}),
    "adaptive-box": ("adaptive_md", _box, {"eps": 0.01, "N": 200}),
    "normalized-box": ("normalized_md", _box, {"R": 2.0, "N": 100}),
    "strongly-box": ("strongly_convex_md", _box, {"mu": 1.0, "N": 100}),
    "strongly-box-M": ("strongly_convex_md", _box,
                       {"mu": 0.5, "N": 50, "M": 3.0}),
    # the entropy simplex
    "fixed-simplex": ("fixed_md", _simplex,
                      {"R": math.sqrt(math.log(10)), "M": 1.0, "N": 100}),
    "adaptive-simplex": ("adaptive_md", _simplex, {"eps": 0.01, "N": 200}),
    # max_residual
    "shor-residual": ("shor", _residual, {"lam": 0.02, "N": 80}),
    "fixed-residual": ("fixed_md", _residual, {"R": 3.0, "M": 10.0, "N": 80}),
    "adaptive-residual": ("adaptive_md", _residual, {"eps": 0.05, "N": 80}),
    "normalized-residual": ("normalized_md", _residual, {"R": 2.0, "N": 100}),
    "strongly-residual": ("strongly_convex_md", _residual,
                          {"mu": 2.0, "N": 80}),
    # one iteration
    "shor-N-1": ("shor", _box, {"lam": 0.05, "N": 1}),
    "fixed-N-1": ("fixed_md", _box, {"R": 2.0, "M": 4.0, "N": 1}),
    "adaptive-N-1": ("adaptive_md", _box, {"eps": 0.01, "N": 1}),
    "normalized-N-1": ("normalized_md", _box, {"R": 2.0, "N": 1}),
    "strongly-N-1": ("strongly_convex_md", _box, {"mu": 1.0, "N": 1}),
    # an exact zero subgradient: these three stop there ...
    "shor-exact": ("shor", lambda: _abs(1.0), {"lam": 0.5, "N": 10}),
    "adaptive-exact": ("adaptive_md", lambda: _abs(2.5),
                       {"eps": 0.25, "N": 50}),
    "normalized-exact": ("normalized_md", lambda: _abs(1.0),
                         {"R": 2.0, "N": 4}),
    # ... and these two step through it
    "fixed-zero": ("fixed_md", lambda: _abs(1.0),
                   {"R": 1.0, "M": 1.0, "N": 4}),
    "strongly-zero": ("strongly_convex_md", lambda: _abs(2.0),
                      {"mu": 1.0, "N": 6}),
    # dual norms above M
    "fixed-violations": ("fixed_md", lambda: _abs(1.0, -0.5),
                         {"R": 1.0, "M": 0.5, "N": 4}),
    "strongly-violations": ("strongly_convex_md", lambda: _abs(2.0, -1.5),
                            {"mu": 1.0, "N": 6, "M": 0.5}),
}


@pytest.mark.parametrize("case", CASES)
def test_matches_reference(case):
    method, build, params = CASES[case]
    solver, reference = SOLVERS[method]
    problem, setup = build()
    assert_same_run(_call(solver, problem, setup, params),
                    _call(reference, problem, setup, params))


def test_cases_cover_exact_stops_and_violations():
    """The cases above reach what they are named for."""
    def run(case):
        method, build, params = CASES[case]
        return _call(SOLVERS[method][1], *build(), params), params["N"]

    for case in ("shor-exact", "adaptive-exact", "normalized-exact"):
        rep, N = run(case)
        assert rep.stopped_exact and rep.iterations < N
    for case in ("fixed-zero", "strongly-zero"):
        rep, N = run(case)
        assert not rep.stopped_exact and rep.iterations == N
        assert rep.trace.column("M_k")[-1] == 0.0
    for case in ("fixed-violations", "strongly-violations"):
        (_, m_obs, M), = run(case)[0].checks
        assert m_obs > M
    assert run("shor-box")[0].min_dist is not None


# -- inputs refused before any oracle call ----------------------------------

def _never_called(x):
    raise AssertionError("oracle called")


VALID = {run_shor: {"lam": 0.1}, run_fixed_md: {"R": 1.0, "M": 1.0},
         run_adaptive_md: {"eps": 0.1}, run_normalized_md: {"R": 1.0},
         run_strongly_convex_md: {"mu": 1.0, "M": 1.0}}
BAD_INPUTS = [(solver, name, value) for solver, params in VALID.items()
              for name in params
              for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)] \
    + [(solver, "N", -3) for solver in VALID]


@pytest.mark.parametrize("solver, name, value", BAD_INPUTS,
                         ids=[f"{s.__name__}-{n}-{v}"
                              for s, n, v in BAD_INPUTS])
def test_entry_points_refuse_bad_inputs(solver, name, value):
    """N < 0 and a non-finite or non-positive constant raise ValueError
    that names it, before any oracle call: a NaN constant otherwise runs a
    NaN trajectory to its end."""
    problem = ProblemInstance(FunctionOracle(_never_called, _never_called),
                              FeasibleSet.all_space(2))
    with pytest.raises(ValueError, match=f"^{name} (must be|>= 1)"):
        _call(solver, problem, euclidean_setup(problem.set),
              {**VALID[solver], "N": 5, name: value})


@pytest.mark.parametrize("solver", [s for s in VALID if s is not run_shor],
                         ids=lambda s: s.__name__)
def test_averages_need_one_iterate(solver):
    problem = ProblemInstance(FunctionOracle(_never_called, _never_called),
                              FeasibleSet.all_space(2))
    with pytest.raises(ValueError, match="N >= 1"):
        _call(solver, problem, euclidean_setup(problem.set),
              {**VALID[solver], "N": 0})


def test_shor_with_no_iterations_evaluates_its_start():
    problem, setup = _abs(1.0, -0.5)
    rep = run_shor(problem, setup.prox_center(), 0.1, 0)
    assert (rep.iterations, rep.oracle_calls, rep.f_out) == (0, 1, 1.5)
    assert rep.min_dist == float(np.linalg.norm([1.0, -0.5]))


# -- the non-finite guard ---------------------------------------------------

class _NonFiniteAtSecond:
    """An objective that answers 1.0 once and ``value`` from then on."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return OracleResponse(1.0 if self.calls == 1 else self.value,
                              np.ones(2))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("solver", VALID, ids=lambda s: s.__name__)
def test_non_finite_objective_raises(solver, value):
    """Every method stops at the first non-finite objective value, as the
    accelerated ones do, instead of stepping or averaging with it."""
    oracle = _NonFiniteAtSecond(value)
    problem = ProblemInstance(oracle, FeasibleSet.all_space(2))
    with pytest.raises(RuntimeError, match="^non-finite objective value$"):
        _call(solver, problem, euclidean_setup(problem.set),
              {**VALID[solver], "N": 5})
    assert oracle.calls == 2


@pytest.mark.parametrize("solver", [run_fixed_md, run_normalized_md,
                                    run_strongly_convex_md],
                         ids=lambda s: s.__name__)
def test_nan_subgradient_on_a_simplex_raises(solver):
    """A NaN subgradient reached the Euclidean simplex projection, which
    raised IndexError; the run now ends with a RuntimeError, as on a
    non-finite objective value.  (Shor's step does not project, and adaptive
    MD refuses the NaN step size first.)"""
    problem = ProblemInstance(
        FunctionOracle(lambda x: 1.0, lambda x: [math.nan, 0.0, 0.0]),
        FeasibleSet.simplex(3))
    with pytest.raises(RuntimeError, match="^non-finite"):
        _call(solver, problem, euclidean_setup(problem.set),
              {**VALID[solver], "N": 5})
