"""Both accelerated methods and both Mirror Prox methods each run one
loop.  The loops they replaced are kept here as ``reference_*`` and every
entry point must reproduce its reference byte for byte."""

import math

import numpy as np
import pytest

from mirropt import bench
from mirropt.bench import trace_csv_text
from mirropt.geometry import FeasibleSet, euclidean_setup
from mirropt.mirrorprox import (mirror_prox_solve, saddle_gap,
                                universal_mirror_prox_solve)
from mirropt.oracles import (FunctionOracle, OracleResponse, ProblemInstance,
                             SaddleOperator)
from mirropt.problems import gen_matrix_game
from mirropt.report import Report, RunTrace, TraceRow
from mirropt.smoothing import (agm_solve, alpha_root, universal_agm,
                               universal_conv_bound)

from test_bench_cli import reference_check_bounds, verdict_bits


# -- the separate loops, as they were -------------------------------------

class _Counted:
    """``fn`` with a count of the calls made through it."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def _agm_checks(trace, f_star):
    """(k, f - f*, bound) of each row with a finite bound, when f* is
    known: the checks both accelerated methods certify."""
    if f_star is None:
        return []
    return [(row.k, row.f_value - f_star, row.bound_value) for row in trace
            if math.isfinite(row.bound_value)]


def _mp_checks(trace):
    """Each row whose certified gap and bound are both finite: the checks
    both Mirror Prox methods certify."""
    return [(row.k, row.f_value, row.bound_value) for row in trace
            if math.isfinite(row.f_value) and math.isfinite(row.bound_value)]


def reference_agm(problem, setup, L, N):
    """Accelerated gradient method with a known Lipschitz constant.

    Guarantee: f(y^k) - f* <= 4 L V[z^0](x*) / (k+1)^2 for all k.
    """
    if L <= 0 or N < 0:
        raise ValueError("L must be positive and N >= 0")
    f = _Counted(problem.objective)
    x0 = setup.prox_center()
    y = x0.copy()
    z = x0.copy()
    C = 0.0
    trace = RunTrace()
    v0 = None
    if problem.x_star is not None:
        v0 = setup.bregman(x0, problem.x_star)
    for k in range(N):
        alpha = alpha_root(C, L)
        C_next = C + alpha
        x = (alpha * z + C * y) / C_next
        resp = f(x)
        z = setup.mirror_step(z, alpha * resp.subgradient)
        y = (alpha * z + C * y) / C_next
        C = C_next
        fy = f(y).value
        bound = float("nan") if v0 is None else 4.0 * L * v0 / (k + 2) ** 2
        trace.append(TraceRow(k + 1, fy, step=alpha, M_k=L,
                              oracle_calls=f.calls, bound_value=bound))
    f_out = f(y).value if N == 0 else trace.rows[-1].f_value
    return Report(
        method="agm", x_out=y, f_out=f_out, iterations=N,
        oracle_calls=f.calls, trace=trace,
        bound=None if v0 is None else 4.0 * L * v0 / (N + 1) ** 2,
        gap=None if problem.f_star is None else f_out - problem.f_star,
        extras={"V0": v0, "C": C}, checks=_agm_checks(trace, problem.f_star),
    )



def reference_universal_agm(problem, setup, eps, L0, N):
    """Universal accelerated gradient method with doubling backtracking.

    Each outer iteration starts the line search at L_k (first trial M = L_k
    after the initial halving-then-doubling), accepts once the inexact
    descent condition with slack alpha*eps/(2C) holds, and sets
    L_{k+1} = M_k / 2.
    """
    if eps <= 0 or L0 <= 0 or N < 0:
        raise ValueError("eps and L0 must be positive and N >= 0")
    f = _Counted(problem.objective)
    x0 = setup.prox_center()
    y = x0.copy()
    z = x0.copy()
    C = 0.0
    L = float(L0)
    trace = RunTrace()
    inner_trials = []
    v0 = None
    if problem.x_star is not None:
        v0 = setup.bregman(x0, problem.x_star)
    for k in range(N):
        M = L / 2.0
        trials = 0
        while True:
            M *= 2.0
            trials += 1
            if M == math.inf:
                raise RuntimeError("backtracking failed to terminate; "
                                   "oracle likely inconsistent")
            alpha = alpha_root(C, M)
            C_next = C + alpha
            x = (alpha * z + C * y) / C_next
            rx = f(x)
            if not np.isfinite(rx.value):
                raise RuntimeError("non-finite objective during backtracking")
            z_try = setup.mirror_step(z, alpha * rx.subgradient)
            y_try = (alpha * z_try + C * y) / C_next
            fy = f(y_try).value
            if not np.isfinite(fy):
                raise RuntimeError("non-finite objective during backtracking")
            lin = rx.value + float(rx.subgradient @ (y_try - x))
            quad = 0.5 * M * setup.norm(y_try - x) ** 2
            if fy <= lin + quad + alpha * eps / (2.0 * C_next):
                break
        z, y, C = z_try, y_try, C_next
        L = M / 2.0
        inner_trials.append(trials)
        bound = float("nan")
        if v0 is not None and problem.meta and "holder" in (problem.meta or {}):
            nu, l_nu = problem.meta["holder"]
            bound = universal_conv_bound(nu, l_nu=l_nu, eps=eps, k=k + 1,
                                         v0=v0)
        trace.append(TraceRow(k + 1, fy, step=alpha, M_k=M,
                              oracle_calls=f.calls, bound_value=bound))
    f_out = f(y).value if N == 0 else trace.rows[-1].f_value
    return Report(
        method="universal_agm", x_out=y, f_out=f_out, iterations=N,
        oracle_calls=f.calls, trace=trace,
        gap=None if problem.f_star is None else f_out - problem.f_star,
        inner_trials=inner_trials, extras={"V0": v0, "C": C},
        checks=_agm_checks(trace, problem.f_star),
    )


def _row_gap(op, w_hat, phi_hat, last):
    """A trace row's certified gap (nan without a linear part): from the
    running Phi average, or on the last row from one uncounted Phi(w_hat)."""
    if op.linear_part is None:
        return float("nan")
    return saddle_gap(op, w_hat, None if last else phi_hat)


def reference_mirror_prox(op, setup, L, N):
    """Fixed-constant Mirror Prox.

    Extragradient steps with step 1/L and uniform averaging of the w-points;
    the averaged point satisfies
    max_z <Phi(z), w_hat - z> <= (L/k) max_z V[z^0](z), the gap each row's
    f_value certifies by ``saddle_gap`` when ``op.linear_part`` is set.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    phi = _Counted(op)
    z = setup.prox_center()
    total = np.zeros_like(z)
    phi_total = np.zeros_like(z)
    trace = RunTrace()
    max_v = setup.max_bregman_from(z)
    for k in range(N):
        w = setup.mirror_step(z, phi(z) / L)
        phi_w = phi(w)
        z = setup.mirror_step(z, phi_w / L)
        total += w
        phi_total += phi_w
        w_hat = total / (k + 1)
        gap = _row_gap(op, w_hat, phi_total / (k + 1), k == N - 1)
        trace.append(TraceRow(k + 1, gap, step=1.0 / L, M_k=L,
                              oracle_calls=phi.calls,
                              bound_value=L * max_v / (k + 1)))
    w_hat = total / N if N > 0 else z
    f_out = trace.rows[-1].f_value if N > 0 else float("nan")
    return Report(method="mirror_prox", x_out=w_hat, f_out=f_out,
                  iterations=N, oracle_calls=phi.calls, trace=trace,
                  extras={"max_v": max_v, "z_last": z},
                  checks=_mp_checks(trace))


def reference_universal_mirror_prox(op, setup, eps, M_init, N):
    """Universal Mirror Prox with per-iteration doubling of M_k.

    The first inner trial of iteration k uses M = M_{k-1}/2 and doubles until
    the smoothed Lipschitz check holds with slack eps/2.  Each iteration
    calls Phi(z) once and Phi(w) once per trial, so ``oracle_calls`` is
    k + sum of the trials = 3k + log2(M_k / M_init).  The output averages
    the w-points with weights 1/M_i, and rows are certified as in
    ``mirror_prox_solve``; the adaptive stop fires once
    D / sum_i 1/M_i <= eps/2 with D = max_z V[z^0](z).
    """
    if eps <= 0 or M_init <= 0:
        raise ValueError("eps and M_init must be positive")
    phi = _Counted(op)
    z = setup.prox_center()
    d_max = setup.max_bregman_from(z)
    weighted = np.zeros_like(z)
    phi_weighted = np.zeros_like(z)
    wsum = 0.0
    trace = RunTrace()
    m_prev = float(M_init)
    inner_trials = []
    stopped_adaptive = False
    k = 0
    for k in range(1, N + 1):
        phi_z = phi(z)
        M, i_k = m_prev / 2.0, 1
        while True:
            w = setup.mirror_step(z, phi_z / M)
            phi_w = phi(w)
            z_next = setup.mirror_step(z, phi_w / M)
            lhs = float((phi_w - phi_z) @ (w - z_next))
            rhs = 0.5 * M * (setup.norm(w - z) ** 2 + setup.norm(w - z_next) ** 2) \
                + eps / 2.0
            if lhs <= rhs:
                break
            M, i_k = 2.0 * M, i_k + 1
            if M == math.inf:
                raise RuntimeError("inner doubling overflowed M; operator "
                                   "likely non-Hoelder or oracle "
                                   "inconsistent")
        z = z_next
        m_prev = M
        inner_trials.append(i_k)
        weighted += w / M
        phi_weighted += phi_w / M
        wsum += 1.0 / M
        stopped_adaptive = d_max / wsum <= eps / 2.0
        w_hat = weighted / wsum
        gap = _row_gap(op, w_hat, phi_weighted / wsum, stopped_adaptive or k == N)
        trace.append(TraceRow(k, gap, step=1.0 / M, M_k=M,
                              oracle_calls=phi.calls,
                              bound_value=d_max / wsum + eps / 2.0))
        if stopped_adaptive:
            break
    w_hat = weighted / wsum if wsum > 0 else z
    f_out = trace.rows[-1].f_value if k > 0 else float("nan")
    return Report(method="universal_mirror_prox", x_out=w_hat, f_out=f_out,
                  iterations=k, oracle_calls=phi.calls, trace=trace,
                  inner_trials=inner_trials,
                  extras={"max_v": d_max,
                          "stopped_adaptive": stopped_adaptive,
                          "weight_sum": wsum, "M_init": M_init},
                  checks=_mp_checks(trace))


# -- what the entry points must reproduce -----------------------------------

def _bits(value):
    """Raw float64 bytes of a float or array (the sign of zero and NaN
    payloads count); other values as they are."""
    if isinstance(value, (float, np.floating, np.ndarray)):
        return np.asarray(value, dtype=np.float64).tobytes()
    return value


def assert_same_run(rep, ref):
    """Trace CSV, output, counts, bound, gap, the checks, every extra the
    reference reports and its trial counts are the reference's, byte for
    byte."""
    assert trace_csv_text(rep.trace) == trace_csv_text(ref.trace)
    assert rep.x_out.tobytes() == ref.x_out.tobytes()
    for name in ("f_out", "iterations", "oracle_calls", "bound", "gap"):
        assert _bits(getattr(rep, name)) == _bits(getattr(ref, name)), name
    assert [tuple(map(_bits, c)) for c in rep.checks] == \
        [tuple(map(_bits, c)) for c in ref.checks]
    assert ref.extras.keys() <= rep.extras.keys()
    assert {k: _bits(rep.extras[k]) for k in ref.extras} == \
        {k: _bits(v) for k, v in ref.extras.items()}
    if ref.inner_trials:        # the universal methods'
        assert rep.inner_trials == ref.inner_trials


def _bench(generator, params, seed, setup=None):
    problem, _ = bench.PROBLEMS[generator](params, seed)
    return problem, bench._make_setup(problem, setup)


def _free_quadratic():
    """0.5 ||x - t||^2 over all of R^3 with no x_star, so no row bound."""
    t = np.array([0.3, -1.2, 2.0])
    problem = ProblemInstance(
        FunctionOracle(lambda x: 0.5 * float((x - t) @ (x - t)),
                       lambda x: x - t), FeasibleSet.all_space(3))
    return problem, euclidean_setup(problem.set,
                                    origin=np.array([1.0, 0.5, -0.5]))


def _quadratic_box():
    return _bench("quadratic_box", {"dim": 4}, 3)


class TestAccelerated:
    @pytest.mark.parametrize("N", [0, 1, 64])
    @pytest.mark.parametrize("build, L", [(_quadratic_box, 1.0),
                                          (_quadratic_box, 1.7),
                                          (_free_quadratic, 1.0),
                                          (_free_quadratic, 3.0)])
    def test_agm_matches_reference(self, build, L, N):
        problem, setup = build()
        assert_same_run(agm_solve(problem, setup, L, N),
                        reference_agm(problem, setup, L, N))

    def test_agm_instances_cover_both_bounds(self):
        assert _quadratic_box()[0].x_star is not None
        rep = agm_solve(*_free_quadratic(), 1.0, 64)
        assert rep.bound is None
        assert all(math.isnan(b) for b in rep.trace.column("bound_value"))

    @pytest.mark.parametrize("build, eps, L0, N", [
        (lambda: _bench("transport_dual", {"rows": 2, "cols": 3}, 9),
         0.1, 1.0, 50),
        (lambda: _bench("transport_dual", {"rows": 3, "cols": 4}, 2),
         0.01, 4.0, 80),
        (lambda: _bench("abs_value", {"dim": 2}, 0,
                        {"origin": [1.0, -0.5]}), 0.01, 1.0, 300),
        (_quadratic_box, 1e-6, 0.7, 60),
        (_quadratic_box, 1e-3, 1.0, 0),
        (_quadratic_box, 1e-3, 1.0, 1),
    ], ids=["transport-2x3", "transport-3x4", "abs_value-holder",
            "quadratic_box", "N-0", "N-1"])
    def test_universal_agm_matches_reference(self, build, eps, L0, N):
        problem, setup = build()
        rep = universal_agm(problem, setup, eps, L0, N)
        assert_same_run(rep, reference_universal_agm(problem, setup, eps,
                                                     L0, N))
        if N > 1:
            # the line search moves: some iteration needs several trials
            assert len(set(rep.trace.column("M_k"))) > 1


def _linear_box():
    """<c, x> over [-1, 1]^5 without a Hoelder meta: the rows' bound can
    only come from D."""
    c = np.array([0.5, -1.0, 0.25, 2.0, -0.75])
    problem = ProblemInstance(
        FunctionOracle(lambda x: float(c @ x), lambda x: c.copy()),
        FeasibleSet.box(np.full(5, -1.0), np.full(5, 1.0)),
        f_star=-float(np.abs(c).sum()), x_star=-np.sign(c))
    return problem, euclidean_setup(problem.set)


def _without_holder(generator, params, seed, setup=None):
    problem, setup = _bench(generator, params, seed, setup)
    problem.meta = {}
    return problem, setup


class TestUniversalAgmStop:
    """On a compact set universal AGM stops once D / C_k <= eps/2, with
    D = max_y V[x^0](y), and row k's bound is D / C_k + eps/2."""

    @pytest.mark.parametrize("build, eps, N", [
        (lambda: _bench("simplex_linear", {"dim": 10}, 2), 0.01, 1100),
        (lambda: _bench("simplex_linear", {"dim": 10}, 2,
                        {"kind": "euclidean"}), 0.01, 1100),
        (lambda: _without_holder("quadratic_box", {"dim": 4}, 1), 0.01, 1000),
        (_linear_box, 0.05, 1000),
    ], ids=["simplex-entropy", "simplex-euclidean", "quadratic_box",
            "linear_box"])
    def test_stops_on_its_guarantee(self, build, eps, N):
        problem, setup = build()
        rep = universal_agm(problem, setup, eps, 1.0, N)
        assert rep.extras["stopped_adaptive"] is True
        assert 0 < rep.iterations == len(rep.trace.rows) < N
        assert len(rep.inner_trials) == rep.iterations
        assert rep.gap <= eps
        D = setup.max_bregman_from(setup.prox_center())
        C = 0.0
        for row in rep.trace:
            C += row.step
            assert _bits(row.bound_value) == _bits(D / C + eps / 2.0)
            # the run ends at the first row that meets the stop
            assert (D / C <= eps / 2.0) == (row.k == rep.iterations)
        assert _bits(C) == _bits(rep.extras["C"])
        verdicts = bench._check_bounds(rep)
        assert [v["k"] for v in verdicts] == list(range(1, rep.iterations + 1))
        assert all(v["ok"] for v in verdicts)
        assert verdict_bits(verdicts) == verdict_bits(reference_check_bounds(
            rep, "universal_agm", problem, "convex", eps))

    @pytest.mark.parametrize("build, eps, N", [
        (lambda: _bench("transport_dual", {"rows": 2, "cols": 3}, 9),
         0.1, 50),
        (lambda: _bench("abs_value", {"dim": 2}, 0,
                        {"origin": [1.0, -0.5]}), 0.01, 300),
        (_free_quadratic, 0.01, 40),
    ], ids=["transport-2x3", "abs_value", "free_quadratic"])
    def test_no_stop_on_all_space(self, build, eps, N):
        problem, setup = build()
        rep = universal_agm(problem, setup, eps, 1.0, N)
        assert rep.extras["stopped_adaptive"] is False
        assert_same_run(rep, reference_universal_agm(problem, setup, eps,
                                                     1.0, N))
        assert verdict_bits(bench._check_bounds(rep)) == verdict_bits(
            reference_check_bounds(rep, "universal_agm", problem, "convex",
                                   eps))


def _game(rows, cols, setup, seed=31):
    A = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, cols))
    return gen_matrix_game(A, setup)


# every x width mod 4, in both geometries, and the scalar box game
GAME_OPS = {f"{setup}-3x{cols}": (lambda c=cols, s=setup: _game(3, c, s))
            for setup in ("entropy", "euclidean") for cols in (4, 5, 6, 7)}
GAME_OPS["bilinear_box"] = lambda: bench.PROBLEMS["bilinear_box"]({}, 0)[0]


class TestMirrorProxLoop:
    @pytest.mark.parametrize("N", [0, 1, 100])
    @pytest.mark.parametrize("game", GAME_OPS)
    def test_mirror_prox_matches_reference(self, game, N):
        op = GAME_OPS[game]()
        assert_same_run(mirror_prox_solve(op, op.domain, op.lipschitz, N),
                        reference_mirror_prox(op, op.domain, op.lipschitz, N))

    @pytest.mark.parametrize("N", [0, 1, 300])
    @pytest.mark.parametrize("game", GAME_OPS)
    def test_universal_mirror_prox_matches_reference(self, game, N):
        op = GAME_OPS[game]()
        for eps, m_init in ((0.01, 1.0), (0.05, 1.4)):
            rep = universal_mirror_prox_solve(op, op.domain, eps, m_init, N)
            assert_same_run(rep, reference_universal_mirror_prox(
                op, op.domain, eps, m_init, N))


# -- inputs refused before any oracle call ----------------------------------

def _never_called(x):
    raise AssertionError("oracle called")


def _first_args(solver):
    """(problem, setup) or (op, domain) whose oracle must not be called."""
    if solver in (agm_solve, universal_agm):
        problem = ProblemInstance(FunctionOracle(_never_called, _never_called),
                                  FeasibleSet.all_space(2))
        return problem, euclidean_setup(problem.set)
    op = bench.PROBLEMS["bilinear_box"]({}, 0)[0]
    op.phi = _never_called
    return op, op.domain


SOLVERS = {agm_solve: {"L": 1.0}, universal_agm: {"eps": 0.1, "L0": 1.0},
           mirror_prox_solve: {"L": 1.0},
           universal_mirror_prox_solve: {"eps": 0.1, "M_init": 1.0}}
BAD_INPUTS = [(solver, name, value) for solver, params in SOLVERS.items()
              for name in params
              for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)] \
    + [(solver, "N", -3) for solver in SOLVERS]


@pytest.mark.parametrize("solver, name, value", BAD_INPUTS,
                         ids=[f"{s.__name__}-{n}-{v}"
                              for s, n, v in BAD_INPUTS])
def test_entry_points_refuse_bad_inputs(solver, name, value):
    """N < 0 and a non-finite or non-positive constant raise ValueError
    that names it, before any oracle call: a NaN constant otherwise runs a
    NaN trajectory or a line search that can never accept."""
    kwargs = {**SOLVERS[solver], "N": 5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solver(*_first_args(solver), **kwargs)


# -- the line searches double M until it would overflow ---------------------

class _Alternating:
    """Objective values 0 and 1 in turn, with a zero subgradient: each
    trial evaluates f twice at one point and reads 1 after 0, so no M
    passes the descent test."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return OracleResponse(float(self.calls % 2 == 0), np.zeros(x.size))


class _Runaway:
    """Phi(0) = 0.5; at w = -0.5 / M, Phi(w) = -0.5 M, so the Lipschitz
    check misses by 0.125 (M + 2) - eps/2 at every M."""

    def __init__(self):
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return np.array([0.5 if z[0] == 0.0 else 0.25 / z[0]])


class TestDoublingUntilOverflow:
    def test_universal_agm_from_a_tiny_L0_matches_reference(self):
        problem, setup = _free_quadratic()
        rep = universal_agm(problem, setup, 0.01, 1e-30, 40)
        assert_same_run(rep, reference_universal_agm(problem, setup, 0.01,
                                                     1e-30, 40))
        assert rep.inner_trials[0] > 64

    def test_universal_mirror_prox_from_a_tiny_M_init_matches_reference(
            self):
        op = GAME_OPS["entropy-3x5"]()
        rep = universal_mirror_prox_solve(op, op.domain, 0.01, 1e-30, 50)
        assert_same_run(rep, reference_universal_mirror_prox(
            op, op.domain, 0.01, 1e-30, 50))
        assert rep.inner_trials[0] > 65

    def test_inconsistent_objective_still_raises(self):
        """M = 1, 2, ..., 2^1023 are tried, two calls each; 2^1024 would
        overflow."""
        f = _Alternating()
        problem = ProblemInstance(f, FeasibleSet.all_space(2))
        with pytest.raises(RuntimeError, match="^backtracking failed"):
            universal_agm(problem, euclidean_setup(problem.set), 0.1, 1.0, 5)
        assert f.calls == 2 * 1024

    def test_inconsistent_operator_still_raises(self):
        """From M_init = 2 the first trial is M = 1; Phi(z) once, then
        Phi(w) for M = 1, ..., 2^1023."""
        phi = _Runaway()
        op = SaddleOperator(phi, euclidean_setup(FeasibleSet.box([-10.0],
                                                                 [10.0])))
        with pytest.raises(RuntimeError, match="^inner doubling overflowed"):
            universal_mirror_prox_solve(op, op.domain, 0.01, 2.0, 5)
        assert phi.calls == 1 + 1024
