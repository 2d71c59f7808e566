import math

import numpy as np
import pytest

from mirropt import bench, constrained, problems
from mirropt.constrained import (InfeasibleAtEpsError, _add_repeated,
                                 _iteration_bound, _stop_count, _theta0_sq,
                                 certify, directional_merit,
                                 solve_constrained_general,
                                 solve_constrained_nonsmooth)
from mirropt.geometry import FeasibleSet, euclidean_setup
from mirropt.oracles import (ConstraintBundle, FunctionOracle, InexactOracle,
                             LinearOracle, OracleResponse, ProblemInstance,
                             aggregate_max)
from mirropt.report import Report, RunTrace, TraceRow


def toy_lp():
    """f(x) = x1 + x2 over [-1,1]^2, g(x) = -1 - x1 - x2 <= 0; f* = -1."""
    c = np.array([1.0, 1.0])
    prob = ProblemInstance(
        objective=LinearOracle(c),
        set=FeasibleSet.box(np.full(2, -1.0), np.full(2, 1.0)),
        constraints=ConstraintBundle([LinearOracle(-c, -1.0)]),
        lipschitz_f=np.sqrt(2.0), lipschitz_g=np.sqrt(2.0),
        f_star=-1.0, x_star=np.array([-0.5, -0.5]))
    return prob


def toy_lp_phi(lam):
    """phi(lambda) = min over the box of f + lambda * g, in closed form."""
    lam = float(np.asarray(lam).ravel()[0])
    # (1 - lam)(x1 + x2) - lam, coordinate-wise minimization over [-1, 1]
    return -2.0 * abs(1.0 - lam) - lam


def flat_objective():
    """A constant objective: the prox center is an optimum at step 0."""
    prob = ProblemInstance(
        objective=FunctionOracle(lambda x: 1.0, lambda x: np.zeros(2)),
        set=FeasibleSet.box(np.full(2, -1.0), np.full(2, 1.0)),
        constraints=ConstraintBundle([LinearOracle(np.zeros(2), -1.0)]))
    return prob, euclidean_setup(prob.set, theta0_sq=0.5)


def quad_problem():
    """f(x) = x^2 over [-2, 2] with |x| <= 1; f* = 0 at x* = 0."""
    return ProblemInstance(
        objective=FunctionOracle(lambda x: float(x @ x), lambda x: 2.0 * x),
        set=FeasibleSet.box(np.array([-2.0]), np.array([2.0])),
        constraints=ConstraintBundle([
            LinearOracle(np.array([1.0]), -1.0),
            LinearOracle(np.array([-1.0]), -1.0)]),
        lipschitz_g=1.0, f_star=0.0, x_star=np.zeros(1))


class TestAlgorithmTwo:
    def test_stop_arithmetic_exact_count(self):
        # every subgradient has unit dual norm and every step is productive
        prob = ProblemInstance(
            objective=LinearOracle(np.array([1.0, 0.0])),
            set=FeasibleSet.box(np.full(2, -1.0), np.full(2, 1.0)),
            constraints=ConstraintBundle(
                [LinearOracle(np.array([-1.0, 0.0]), -10.0)]),
            lipschitz_f=1.0, lipschitz_g=1.0)
        setup = euclidean_setup(prob.set, theta0_sq=1.0)
        rep = solve_constrained_nonsmooth(prob, setup, eps=0.1)
        assert rep.iterations == 200
        assert rep.iteration_bound == 200

    def test_toy_lp_guarantees(self):
        prob = toy_lp()
        setup = euclidean_setup(prob.set, theta0_sq=0.25)
        rep = solve_constrained_nonsmooth(prob, setup, eps=0.1)
        assert rep.iterations <= 100
        assert rep.f_out - prob.f_star <= 0.1 + 1e-9
        assert rep.f_out <= -0.9 + 1e-9
        assert rep.g_bar <= 0.1 + 1e-9
        assert np.all(rep.lambda_bar >= 0.0)

    def test_immediate_productive_optimum(self):
        prob, setup = flat_objective()
        rep = solve_constrained_nonsmooth(prob, setup, eps=0.1)
        assert rep.productive == 1
        assert np.allclose(rep.x_out, setup.prox_center())
        assert rep.g_bar <= 0.1

    def test_productive_iterates_feasible_at_eps(self):
        prob = toy_lp()
        setup = euclidean_setup(prob.set, theta0_sq=0.25)
        eps = 0.05
        rep = solve_constrained_nonsmooth(prob, setup, eps=eps)
        # convexity carries per-iterate feasibility to the average
        assert rep.g_bar <= eps + 1e-9

    def test_dual_certificate(self):
        prob = toy_lp()
        setup = euclidean_setup(prob.set, theta0_sq=setup_theta(prob))
        for eps in (0.1, 0.01):
            rep = solve_constrained_nonsmooth(prob, setup, eps=eps)
            cert = certify(prob, rep, toy_lp_phi)
            assert cert.duality_gap <= eps + 1e-9

    def test_negative_multiplier_rejected(self):
        prob = toy_lp()
        setup = euclidean_setup(prob.set, theta0_sq=0.25)
        rep = solve_constrained_nonsmooth(prob, setup, eps=0.1)
        rep.lambda_bar = np.array([-0.1])
        with pytest.raises(ValueError):
            certify(prob, rep, toy_lp_phi)

    def test_eps_tilde_formula(self):
        prob = toy_lp()
        setup = euclidean_setup(prob.set, theta0_sq=0.25)
        rep = solve_constrained_nonsmooth(prob, setup, eps=0.1)
        cert = certify(prob, rep, toy_lp_phi, eps=0.1,
                       grad_norms_at_opt=[0.0], lipschitz_grads=[2.0])
        assert cert.eps_tilde == pytest.approx(0.1)


def setup_theta(prob):
    # max of d over the box (primal-dual certification needs max d, not d(x*))
    return euclidean_setup(prob.set).max_d()


class TestInexactOracle:
    def test_delta_gap(self):
        prob = toy_lp()
        eps, delta = 0.1, 0.05
        exact = prob.objective
        prob.objective = InexactOracle(exact, delta, lipschitz=np.sqrt(2.0),
                                       seed=0)
        setup = euclidean_setup(prob.set, theta0_sq=0.25)
        rep = solve_constrained_nonsmooth(prob, setup, eps=eps)
        f_bar_exact = exact(rep.x_out).value
        assert f_bar_exact - prob.f_star <= eps + delta + 1e-9


class TestAlgorithmThree:
    def test_quadratic_guarantees(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([2.0]), theta0_sq=2.0)
        eps = 0.05
        rep = solve_constrained_general(prob, setup, eps=eps)
        assert rep.extras["min_vf"] <= eps + 1e-9
        assert rep.g_bar <= eps + 1e-9
        assert rep.iterations <= rep.iteration_bound

    def test_step_formulas(self):
        # productive h = eps/||grad f||_* (so ||grad f||_* = 4 gives 0.025),
        # non-productive h = eps/||grad g||_*^2
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([2.0]), theta0_sq=2.0)
        eps = 0.1
        rep = solve_constrained_general(prob, setup, eps=eps)
        saw_productive = saw_nonproductive = False
        for r in rep.trace:
            if not np.isfinite(r.step):
                continue
            if r.f_value == r.f_value:      # productive rows carry f
                assert r.step == pytest.approx(eps / r.M_k)
                saw_productive = True
            else:
                assert r.step == pytest.approx(eps / r.M_k ** 2)
                saw_nonproductive = True
        assert saw_productive and saw_nonproductive
        assert eps / 4.0 == pytest.approx(0.025)

    def test_zero_grad_productive_returns_optimal(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.zeros(1), theta0_sq=2.0)
        rep = solve_constrained_general(prob, setup, eps=0.1)
        assert rep.f_out == 0.0
        assert np.allclose(rep.x_out, 0.0)

    def test_merit_modulus_consistency(self):
        """f(x) - f(x*) <= omega(v_f[x*](x)) with omega from a grid max."""
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([2.0]))
        grid = np.linspace(-2.0, 2.0, 4001)
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=1)
            v = directional_merit(prob, setup, prob.x_star, x)
            if v < 0:
                continue
            ball = grid[np.abs(grid - prob.x_star[0]) <= v]
            ends = np.clip([prob.x_star[0] - v, prob.x_star[0] + v], -2.0, 2.0)
            ball = np.concatenate([ball, ends])
            omega = max((g * g for g in ball), default=0.0)
            assert prob.objective(x).value - prob.f_star <= omega + 1e-6


class TestDirectionalMerit:
    def test_zero_grad_is_zero(self):
        prob = ProblemInstance(
            objective=FunctionOracle(lambda x: 0.0, lambda x: np.zeros(2)),
            set=FeasibleSet.all_space(2))
        setup = euclidean_setup(prob.set)
        assert directional_merit(prob, setup, np.zeros(2), np.ones(2)) == 0.0

    def test_normalization(self):
        prob = ProblemInstance(
            objective=FunctionOracle(lambda x: float(x @ x), lambda x: 2 * x),
            set=FeasibleSet.all_space(1))
        setup = euclidean_setup(prob.set)
        v = directional_merit(prob, setup, np.zeros(1), np.array([1.5]))
        assert v == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# reference switching loops: every iteration queries the oracles and takes
# the mirror step, with no reuse of answers once x stops moving
# ---------------------------------------------------------------------------

def reference_nonsmooth(problem, setup, eps, max_iter=10**7):
    theta0_sq = _theta0_sq(problem, setup, eps)
    m = len(problem.constraints)
    x = setup.prox_center()
    trace = RunTrace()
    iterates = []
    stop_target = 2.0 * theta0_sq / eps**2
    stop_sum = 0.0
    weighted = np.zeros_like(x)
    h_prod_sum = 0.0
    n_prod = 0
    lam_raw = np.zeros(m)
    calls = 0
    k = 0
    while True:
        g_resp = aggregate_max(problem.constraints, x)
        calls += 1
        if g_resp.value <= eps:
            f_resp = problem.objective(x)
            calls += 1
            m_k = setup.dual_norm(f_resp.subgradient)
            h_k = eps / m_k**2 if m_k != 0.0 else 1.0
            weighted += h_k * x
            h_prod_sum += h_k
            n_prod += 1
            if m_k == 0.0:
                trace.append(TraceRow(k, f_resp.value, g_value=g_resp.value,
                                      step=h_k, M_k=0.0, oracle_calls=calls))
                k += 1
                break
            step_grad = f_resp.subgradient
            f_val = f_resp.value
        else:
            m_k = setup.dual_norm(g_resp.subgradient)
            if m_k == 0.0:
                raise InfeasibleAtEpsError("zero constraint subgradient")
            h_k = eps / m_k**2
            step_grad = g_resp.subgradient
            lam_raw[g_resp.active_index - 1] += h_k
            f_val = float("nan")
        iterates.append(x.copy())
        trace.append(TraceRow(k, f_val, g_value=g_resp.value, step=h_k,
                              M_k=m_k, oracle_calls=calls))
        x = setup.mirror_step(x, h_k * step_grad)
        stop_sum += 1.0 / m_k**2
        k += 1
        if stop_sum >= stop_target:
            break
        if k >= max_iter:
            raise RuntimeError("iteration cap reached before the stop rule")
    it_bound = _iteration_bound(problem.lipschitz_f, problem.lipschitz_g,
                                theta0_sq, eps)
    x_bar = weighted / h_prod_sum
    f_bar = problem.objective(x_bar).value
    g_bar = aggregate_max(problem.constraints, x_bar).value
    calls += 2
    return Report(method="constrained_nonsmooth", x_out=x_bar, f_out=f_bar,
                  iterations=k, oracle_calls=calls, trace=trace, g_bar=g_bar,
                  productive=n_prod, lambda_bar=lam_raw / h_prod_sum,
                  iteration_bound=it_bound,
                  extras={"iterates": iterates, "h_prod_sum": h_prod_sum})


def reference_general(problem, setup, eps, max_iter=10**7):
    theta0_sq = _theta0_sq(problem, setup, eps)
    x = setup.prox_center()
    trace = RunTrace()
    iterates = []
    productive_points = []
    stop_target = 2.0 * theta0_sq / eps**2
    stop_sum = 0.0
    best_f, best_x = math.inf, None
    n_prod = 0
    calls = 0
    k = 0
    while True:
        g_resp = aggregate_max(problem.constraints, x)
        calls += 1
        if g_resp.value <= eps:
            f_resp = problem.objective(x)
            calls += 1
            nf = setup.dual_norm(f_resp.subgradient)
            if f_resp.value < best_f:
                best_f, best_x = f_resp.value, x.copy()
            productive_points.append(x.copy())
            n_prod += 1
            if nf == 0.0:
                trace.append(TraceRow(k, f_resp.value, g_value=g_resp.value,
                                      step=float("inf"), M_k=0.0,
                                      oracle_calls=calls))
                k += 1
                break
            h_k = eps / nf
            step_grad = f_resp.subgradient
            stop_sum += 1.0
            f_val = f_resp.value
            m_k = nf
        else:
            ng = setup.dual_norm(g_resp.subgradient)
            if ng == 0.0:
                raise InfeasibleAtEpsError("zero constraint subgradient")
            h_k = eps / ng**2
            step_grad = g_resp.subgradient
            stop_sum += 1.0 / ng**2
            f_val = float("nan")
            m_k = ng
        iterates.append(x.copy())
        trace.append(TraceRow(k, f_val, g_value=g_resp.value, step=h_k,
                              M_k=m_k, oracle_calls=calls))
        x = setup.mirror_step(x, h_k * step_grad)
        k += 1
        if stop_sum >= stop_target:
            break
        if k >= max_iter:
            raise RuntimeError("iteration cap reached before the stop rule")
    g_best = aggregate_max(problem.constraints, best_x).value
    calls += 1
    rep = Report(method="constrained_general", x_out=best_x, f_out=best_f,
                 iterations=k, oracle_calls=calls, trace=trace, g_bar=g_best,
                 productive=n_prod,
                 extras={"iterates": iterates,
                         "productive_points": productive_points})
    if problem.x_star is not None:
        rep.extras["min_vf"] = min(
            directional_merit(problem, setup, problem.x_star, p)
            for p in productive_points)
    return rep


class TestBulkSums:
    """The bulk sums must give a loop's floats: one add at a time, in order."""

    TERMS = [0.1, 1.0 / 3.0, 7.0, 5e-324, 1e-300, 1.7e308, 2.0**-60,
             float("inf"), -0.0]

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(constrained, "_BLOCK", 64)

    @pytest.mark.parametrize("term", TERMS)
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000])
    def test_add_repeated_matches_loop(self, term, count):
        rng = np.random.default_rng(count)
        acc = rng.standard_normal(5) * 1e3
        vec = np.array([term, -term, 0.0, 1.0, term / 3.0])
        want_vec, want = acc.copy(), 0.25
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(count):
                want_vec += vec
                want += term
            got_vec = _add_repeated(acc, vec, count)
            got = _add_repeated(0.25, term, count)
        assert got_vec.tobytes() == want_vec.tobytes()
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("term", [0.1, 1.0 / 3.0, 2.0**-60, 0.0,
                                      float("inf")])
    @pytest.mark.parametrize("start", [0.0, 0.3, 1e3])
    def test_stop_count_matches_loop(self, term, start):
        for target, limit in ((1.0, 500), (50.0, 500), (0.0, 3),
                              (float("nan"), 100), (start + 1e-3, 70)):
            want, s = None, start
            for t in range(1, limit + 1):
                s += term
                if s >= target:
                    want = t
                    break
            assert _stop_count(start, term, target, limit) == want


def _bits(*values):
    """Raw float64 bytes: the sign of zero and NaN payloads count."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _report_bytes(rep):
    rows = [(r.k, r.oracle_calls, _bits(r.f_value, r.g_value, r.step, r.M_k,
                                        r.bound_value)) for r in rep.trace]
    arrays = [rep.x_out]
    if rep.lambda_bar is not None:
        arrays.append(rep.lambda_bar)
    extras = _bits(*(rep.extras.get(key, np.nan)
                     for key in ("min_vf", "h_prod_sum")))
    return (rows, [a.tobytes() for a in arrays], _bits(rep.f_out, rep.g_bar),
            extras, rep.productive, rep.iterations, rep.oracle_calls)


def _ttd(nodes, bars, seed):
    problem = problems.gen_ttd_dual(nodes, bars, seed)
    return problem, bench._make_setup(problem, None)


def _bench_toy_lp(dim, pieces, seed):
    problem, _ = bench.PROBLEMS["toy_lp"]({"dim": dim, "pieces": pieces}, seed)
    return problem, bench._make_setup(problem, None)


def _local_toy_lp():
    problem = toy_lp()
    return problem, euclidean_setup(problem.set,
                                    theta0_sq=setup_theta(problem))


# (instance builder, args, eps): the truss duals stop moving after a few
# hundred of their 6-11k steps; the toy LPs mostly never do (bench toy_lp
# 2x2 seed 0 and 3x3 seed 3 do)
REUSE_INSTANCES = (
    [(_ttd, (nodes, bars, seed), 0.1)
     for nodes, bars in ((10, 20), (12, 24), (16, 36)) for seed in range(4)]
    + [(_bench_toy_lp, (dim, dim, seed), 0.1)
       for dim in (2, 3) for seed in range(4)]
    + [(_local_toy_lp, (), eps) for eps in (0.1, 0.05)])


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _assert_matches_reference(monkeypatch, solver, reference, problem, setup,
                              eps, **kw):
    """The solver's report is the reference loop's, byte for byte, and so
    are its iterates: the points its constraint oracle is asked about, each
    iterate once up to the repeats and then the output point.  From
    ``stationary_at`` on, the reference's iterates are the last of them."""
    points = []

    def recording(bundle, x):
        points.append(np.array(x))
        return aggregate_max(bundle, x)

    with monkeypatch.context() as patch:
        patch.setattr(constrained, "aggregate_max", recording)
        rep = solver(problem, setup, eps, **kw)
    ref = reference(problem, setup, eps, **kw)
    assert _report_bytes(rep) == _report_bytes(ref)
    iterates = [x.tobytes() for x in ref.extras["iterates"]]
    start = rep.extras["stationary_at"] or len(iterates)
    queried = [x.tobytes() for x in points]
    assert queried[:start] == iterates[:start]
    assert iterates[start:] == [queried[start - 1]] * (len(iterates) - start)
    assert len(queried) == start + (rep.productive > 0)


class TestAnswerReuse:
    """Once a step leaves x unchanged the switching solvers reuse their last
    oracle answers; the result must be the reference loop's, byte for byte."""

    @pytest.mark.parametrize("solver, reference", [
        (solve_constrained_nonsmooth, reference_nonsmooth),
        (solve_constrained_general, reference_general)])
    @pytest.mark.parametrize("build, args, eps", REUSE_INSTANCES)
    def test_matches_reference_loop(self, monkeypatch, solver, reference,
                                    build, args, eps):
        _assert_matches_reference(monkeypatch, solver, reference,
                                  *build(*args), eps)

    def test_instances_cover_both_cases(self):
        frozen = [solve_constrained_nonsmooth(*build(*args)[:2], eps)
                  .extras["stationary_at"] is not None
                  for build, args, eps in REUSE_INSTANCES]
        assert 12 <= sum(frozen) < len(frozen)

    @pytest.mark.parametrize("solver, audits", [
        (solve_constrained_nonsmooth, 2), (solve_constrained_general, 1)])
    def test_no_oracle_calls_after_stationary(self, monkeypatch, solver,
                                              audits):
        # the golden ttd_switching instance: step 254 leaves x unchanged
        problem, setup = _ttd(10, 20, 1)
        g = _Counted(constrained.aggregate_max)
        f = problem.objective = _Counted(problem.objective)
        steps = _Counted(type(setup).mirror_step)
        monkeypatch.setattr(constrained, "aggregate_max", g)
        monkeypatch.setattr(type(setup), "mirror_step",
                            lambda self, x, p: steps(self, x, p))
        rep = solver(problem, setup, 0.1)
        rows = list(rep.trace)
        start = rep.extras["stationary_at"]
        assert start == 255 and rep.iterations == 6454
        assert steps.calls == start
        # the method's own count stays that of a loop without reuse
        assert rep.oracle_calls == rows[-1].oracle_calls + audits
        assert g.calls + f.calls - audits == rows[start - 1].oracle_calls

    @pytest.mark.parametrize("solver, reference", [
        (solve_constrained_nonsmooth, reference_nonsmooth),
        (solve_constrained_general, reference_general)])
    def test_iteration_cap_inside_repeats(self, monkeypatch, solver,
                                          reference):
        # the golden instance stops moving at 255 and stops at 6454
        problem, setup = _ttd(10, 20, 1)
        for cap in (300, 6453):
            for run in (solver, reference):
                with pytest.raises(RuntimeError, match="iteration cap"):
                    run(problem, setup, 0.1, max_iter=cap)
        _assert_matches_reference(monkeypatch, solver, reference, problem,
                                  setup, 0.1, max_iter=6454)

    @pytest.mark.parametrize("solver, reference", [
        (solve_constrained_nonsmooth, reference_nonsmooth),
        (solve_constrained_general, reference_general)])
    @pytest.mark.parametrize("instance", ["flat", "quad-at-optimum"])
    def test_zero_gradient_row_matches_reference(self, solver, reference,
                                                 instance):
        # the one row the two methods write differently: step 1 for
        # constrained_nonsmooth, inf for constrained_general
        if instance == "flat":
            problem, setup = flat_objective()
        else:
            problem = quad_problem()
            setup = euclidean_setup(problem.set, origin=np.zeros(1),
                                    theta0_sq=2.0)
        rep = solver(problem, setup, 0.1)
        assert rep.iterations == 1 and rep.trace.rows[0].M_k == 0.0
        assert _report_bytes(rep) == \
            _report_bytes(reference(problem, setup, 0.1))

    def test_never_stationary_reports_none(self):
        rep = solve_constrained_nonsmooth(*_local_toy_lp(), 0.1)
        assert rep.extras["stationary_at"] is None


@pytest.mark.parametrize("solver", [solve_constrained_nonsmooth,
                                    solve_constrained_general])
@pytest.mark.parametrize("name", ["eps", "theta0_sq"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_non_finite_or_zero_input_rejected_before_any_call(
        monkeypatch, solver, name, bad):
    # with a NaN the stop rule is never met: the run would go to max_iter
    problem = toy_lp()
    f = problem.objective = _Counted(problem.objective)
    g = _Counted(constrained.aggregate_max)
    monkeypatch.setattr(constrained, "aggregate_max", g)
    values = {"eps": 0.1, "theta0_sq": 0.25, name: bad}
    setup = euclidean_setup(problem.set, theta0_sq=values["theta0_sq"])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        solver(problem, setup, values["eps"], max_iter=10)
    assert f.calls == g.calls == 0


class _NonFiniteAtSecond:
    """``oracle`` answered once, then with the value ``value``."""

    def __init__(self, oracle, value):
        self.oracle, self.value, self.calls = oracle, value, 0

    def __call__(self, x):
        self.calls += 1
        resp = self.oracle(x)
        if self.calls > 1:
            resp = OracleResponse(self.value, resp.subgradient)
        return resp


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("which", ["objective", "constraint"])
@pytest.mark.parametrize("solver", [solve_constrained_nonsmooth,
                                    solve_constrained_general])
def test_non_finite_value_raises(solver, which, value):
    """A non-finite f or g value stops the run before any step is taken
    from it; a NaN g value would otherwise count as non-productive and step
    along g's subgradient.  Every step of this run is productive, so both
    oracles are asked twice by the second iteration."""
    problem = toy_lp()
    if which == "objective":
        oracle = problem.objective = _NonFiniteAtSecond(problem.objective,
                                                        value)
    else:
        oracle = _NonFiniteAtSecond(problem.constraints.pieces[0], value)
        problem.constraints = ConstraintBundle([oracle])
    setup = euclidean_setup(problem.set, theta0_sq=0.25)
    with pytest.raises(RuntimeError, match="^non-finite objective value$"):
        solver(problem, setup, 0.5, max_iter=50)
    assert oracle.calls == 2
