import re

import numpy as np
import pytest

from mirropt.geometry import FeasibleSet, entropy_setup, euclidean_setup
from mirropt.oracles import FunctionOracle, ProblemInstance
from mirropt.subgradient import (run_adaptive_md, run_fixed_md,
                                 run_normalized_md, run_shor,
                                 run_strongly_convex_md)


def abs_problem(dim=1):
    return ProblemInstance(
        FunctionOracle(lambda x: np.abs(x).sum(), np.sign),
        FeasibleSet.all_space(dim), lipschitz_f=float(np.sqrt(dim)),
        f_star=0.0, x_star=np.zeros(dim))


def recording(problem):
    """``problem``, whose objective now records each point it is asked
    about with the answer: the solver's iterates, then any audit point."""
    seen = []
    oracle = problem.objective

    def objective(x):
        resp = oracle(x)
        seen.append((np.array(x), resp))
        return resp
    problem.objective = objective
    return problem, seen


def norm2_problem(dim, x_star=None):
    t = np.zeros(dim) if x_star is None else np.asarray(x_star, dtype=float)

    def subgrad(x):
        d = x - t
        n = np.linalg.norm(d)
        return d / n if n > 0 else np.zeros(dim)

    return ProblemInstance(
        FunctionOracle(lambda x: np.linalg.norm(x - t), subgrad),
        FeasibleSet.all_space(dim), lipschitz_f=1.0, f_star=0.0, x_star=t)


class TestShor:
    def test_stop_at_optimum(self):
        rep = run_shor(abs_problem(), np.zeros(1), lam=0.4, N=10)
        assert rep.stopped_exact
        assert rep.min_dist == 0.0

    def test_hand_simulation(self):
        prob, seen = recording(abs_problem())
        rep = run_shor(prob, np.array([1.0]), lam=0.4, N=10)
        xs = [float(x[0]) for x, _ in seen]
        assert xs[:5] == pytest.approx([1.0, 0.6, 0.2, -0.2, 0.2], abs=1e-12)
        assert rep.min_dist <= 0.4 * 1.1 / 2 + 1e-12

    def test_theorem_bound_2d(self):
        rep = run_shor(norm2_problem(2), np.array([1.0, 0.0]), lam=0.3, N=20)
        assert rep.min_dist <= 0.3 * 1.1 / 2


class TestFixedMd:
    def test_hand_worked_example(self):
        setup = euclidean_setup(FeasibleSet.all_space(1), origin=np.array([1.0]))
        prob, seen = recording(abs_problem())
        rep = run_fixed_md(prob, setup, R=1.0, M=1.0, N=4)
        xs = [float(x[0]) for x, _ in seen[:4]]
        assert xs == pytest.approx([1.0, 0.5, 0.0, 0.0], abs=1e-15)
        assert rep.f_out == pytest.approx(0.375, abs=1e-15)
        assert rep.bound == pytest.approx(0.5)
        assert rep.gap <= rep.bound

    def test_start_at_optimum(self):
        setup = euclidean_setup(FeasibleSet.all_space(1), origin=np.zeros(1))
        rep = run_fixed_md(abs_problem(), setup, R=1.0, M=1.0, N=16)
        assert rep.gap <= rep.bound + 1e-12
        assert rep.f_out == pytest.approx(0.0, abs=1e-12)

    def test_entropy_simplex_bound(self):
        n, N = 2, 100
        c = np.array([0.0, 1.0])
        prob = ProblemInstance(
            FunctionOracle(lambda x: c @ x, lambda x: c.copy()),
            FeasibleSet.simplex(n), lipschitz_f=1.0, f_star=0.0,
            x_star=np.array([1.0, 0.0]))
        setup = entropy_setup(n)
        R = np.sqrt(np.log(n))
        rep = run_fixed_md(prob, setup, R=R, M=1.0, N=N)
        bound = 1.0 * np.sqrt(2 * np.log(n) / N)
        assert rep.gap <= bound + 1e-12
        assert rep.bound == pytest.approx(bound)

    def test_violation_flagged(self):
        setup = euclidean_setup(FeasibleSet.all_space(1), origin=np.array([1.0]))
        rep = run_fixed_md(abs_problem(), setup, R=1.0, M=0.5, N=4)
        (k, m_obs, M), = rep.checks
        assert k == 4 and m_obs == 1.0 and M == 0.5 * (1 + 1e-12)

    def test_eq7_boundedness(self):
        rng = np.random.default_rng(12)
        for seed in range(5):
            t = rng.standard_normal(3)
            prob, seen = recording(norm2_problem(3, x_star=t))
            x0 = t + rng.standard_normal(3)
            setup = euclidean_setup(prob.set, origin=x0)
            R = np.linalg.norm(x0 - t)
            run_fixed_md(prob, setup, R=R, M=1.0, N=50)
            for x, _ in seen[:50]:
                assert np.linalg.norm(x - t) <= np.sqrt(2) * R + 1e-9


class TestPerStepInequality:
    def test_mirror_step_descent_inequality(self):
        """h(f(x^k) - f(z)) <= h^2/2 ||g||_*^2 + V[x^k](z) - V[x^{k+1}](z)."""
        rng = np.random.default_rng(13)
        prob, seen = recording(abs_problem(2))
        setup = euclidean_setup(FeasibleSet.all_space(2),
                                origin=np.array([1.0, -0.5]))
        rep = run_fixed_md(prob, setup, R=2.0, M=np.sqrt(2), N=30)
        xs = [x for x, _ in seen[:30]] + [rep.extras["x_last"]]
        gs = [resp.subgradient for _, resp in seen[:30]]
        h = rep.extras["h"]
        f = prob.objective
        for k in range(len(gs)):
            fk = f(xs[k]).value
            for _ in range(20):
                z = rng.standard_normal(2)
                lhs = h * (fk - f(z).value)
                rhs = 0.5 * h * h * setup.dual_norm(gs[k]) ** 2 \
                    + setup.bregman(xs[k], z) - setup.bregman(xs[k + 1], z)
                assert lhs <= rhs + 1e-9


class TestAdaptiveMd:
    def test_step_formula(self):
        prob = abs_problem(4)   # ||g||_2 = 2 everywhere off the axes
        setup = euclidean_setup(prob.set, origin=np.full(4, 1.0))
        rep = run_adaptive_md(prob, setup, eps=0.1, N=1)
        assert rep.trace.rows[0].step == pytest.approx(0.1 / 4.0)

    def test_eps_guarantee(self):
        # f=|x|, x0=1, eps=0.1, N = M^2 R^2 / eps^2 = 100
        setup = euclidean_setup(FeasibleSet.all_space(1),
                                origin=np.array([1.0]), theta0_sq=0.5)
        rep = run_adaptive_md(abs_problem(), setup, eps=0.1, N=100)
        assert rep.gap <= 0.1 + 1e-9
        assert rep.gap <= rep.bound + 1e-12

    def test_stop_at_optimum(self):
        setup = euclidean_setup(FeasibleSet.all_space(1), origin=np.zeros(1))
        rep = run_adaptive_md(abs_problem(), setup, eps=0.1, N=50)
        assert rep.stopped_exact
        assert rep.gap == 0.0

    @pytest.mark.parametrize("scale, norm", [(1e-170, "1.4142135623730951e-170"),
                                             (1e160, "1.414213562373095e+160")])
    def test_step_out_of_float_range_raises(self, scale, norm):
        """f = s ||x||_1 from (1, -1): at s = 1e-170, ||g||^2 underflows to
        0 and eps / ||g||^2 once overflowed after numpy's divide-by-zero
        warning (an error here); at s = 1e160 ||g||^2 overflowed."""
        prob = ProblemInstance(
            FunctionOracle(lambda x: scale * float(np.abs(x).sum()),
                           lambda x: scale * np.sign(x)),
            FeasibleSet.all_space(2))
        setup = euclidean_setup(prob.set, origin=np.array([1.0, -1.0]))
        with pytest.raises(RuntimeError, match=re.escape(
                f"eps/||g||^2 = 0.1/{norm}^2 is out of the float range")):
            run_adaptive_md(prob, setup, eps=0.1, N=100)


class TestNormalizedMd:
    def test_quasi_convex_sqrt(self):
        def subgrad(x):
            return np.sign(x) * 0.5 / np.sqrt(np.maximum(np.abs(x), 1e-18))
        prob = ProblemInstance(
            FunctionOracle(lambda x: np.sqrt(np.abs(x)).sum(), subgrad),
            FeasibleSet.all_space(1), f_star=0.0, x_star=np.zeros(1))
        setup = euclidean_setup(prob.set, origin=np.array([1.0]))
        rep = run_normalized_md(prob, setup, R=1.0, N=100)
        assert rep.gap <= rep.extras["M_observed"] * 1.0 / 10.0 + 1e-12

    def test_matches_fixed_md_on_abs(self):
        setup = euclidean_setup(FeasibleSet.all_space(1), origin=np.array([1.0]))
        prob_n, seen_n = recording(abs_problem())
        prob_f, seen_f = recording(abs_problem())
        run_normalized_md(prob_n, setup, R=1.0, N=4)
        run_fixed_md(prob_f, setup, R=1.0, M=1.0, N=4)
        for (a, _), (b, _) in zip(seen_n, seen_f[:4]):
            assert np.array_equal(a, b)

    def test_start_at_optimum(self):
        setup = euclidean_setup(FeasibleSet.all_space(2), origin=np.zeros(2))
        rep = run_normalized_md(abs_problem(2), setup, R=1.0, N=10)
        assert rep.f_out == 0.0


class TestStronglyConvexMd:
    def test_first_step(self):
        prob = ProblemInstance(
            FunctionOracle(lambda x: 0.5 * x @ x, lambda x: x.copy()),
            FeasibleSet.box(np.array([-1.0]), np.array([1.0])),
            f_star=0.0, x_star=np.zeros(1))
        setup = euclidean_setup(prob.set, origin=np.array([1.0]))
        rep = run_strongly_convex_md(prob, setup, mu=1.0, N=1)
        assert rep.trace.rows[0].step == pytest.approx(2.0)

    def test_weights_sum_to_one(self):
        for N in (1, 5, 40):
            k = np.arange(1, N + 1)
            assert np.sum(2 * k / (N * (N + 1))) == pytest.approx(1.0)

    def test_quadratic_bound(self):
        prob = ProblemInstance(
            FunctionOracle(lambda x: 0.5 * x @ x, lambda x: x.copy()),
            FeasibleSet.box(np.array([-1.0]), np.array([1.0])),
            f_star=0.0, x_star=np.zeros(1))
        setup = euclidean_setup(prob.set, origin=np.array([1.0]))
        rep = run_strongly_convex_md(prob, setup, mu=1.0, N=199, M=1.0)
        assert rep.bound == pytest.approx(2.0 / 200.0)
        assert rep.gap <= rep.bound + 1e-12


class TestDeterminism:
    def test_identical_traces(self):
        setup = euclidean_setup(FeasibleSet.all_space(1), origin=np.array([1.0]))
        r1 = run_adaptive_md(abs_problem(), setup, eps=0.05, N=50)
        r2 = run_adaptive_md(abs_problem(), setup, eps=0.05, N=50)
        for a, b in zip(r1.trace, r2.trace):
            assert (a.k, a.f_value, a.step, a.M_k) == (b.k, b.f_value, b.step, b.M_k)
