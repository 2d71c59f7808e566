import math

import numpy as np
import pytest
from scipy.special import logsumexp

from mirropt.bench import PROBLEMS
from mirropt.geometry import FeasibleSet, euclidean_setup
from mirropt.oracles import FunctionOracle, ProblemInstance
from mirropt.smoothing import (SmoothedMaxResidual, agm_solve, alpha_root,
                               choose_mu, universal_agm, universal_call_bound,
                               universal_conv_bound)


def quad_problem(dim=2, x0=None):
    prob = ProblemInstance(
        FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy()),
        FeasibleSet.all_space(dim), f_star=0.0, x_star=np.zeros(dim),
        meta={"holder": (1.0, 1.0)})
    return prob


class TestAlphaRoot:
    def test_values(self):
        assert alpha_root(0.0, 1.0) == pytest.approx(1.0)
        assert alpha_root(0.0, 2.0) == pytest.approx(0.5)
        assert alpha_root(2.0, 1.0) == pytest.approx(2.0)

    def test_root_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            C = rng.uniform(0.0, 100.0)
            M = rng.uniform(1e-3, 1e3)
            a = alpha_root(C, M)
            # C + alpha = M * alpha^2 exactly (to relative 1e-12)
            assert C + a == pytest.approx(M * a * a, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            alpha_root(0.0, 0.0)
        with pytest.raises(ValueError):
            alpha_root(-1.0, 1.0)


class TestAgm:
    def test_zero_iterations_returns_start(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([1.0, 0.0]))
        rep = agm_solve(prob, setup, L=1.0, N=0)
        assert np.allclose(rep.x_out, [1.0, 0.0])

    def test_per_iteration_bound(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([1.0, 0.0]))
        rep = agm_solve(prob, setup, L=1.0, N=100)
        v0 = 0.5
        for row in rep.trace:
            assert row.f_value - prob.f_star <= 4.0 * v0 / (row.k + 1) ** 2 + 1e-12
            assert row.bound_value == pytest.approx(4.0 * v0 / (row.k + 1) ** 2)

    def test_k0_sanity(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([1.0, 0.0]))
        rep = agm_solve(prob, setup, L=1.0, N=1)
        assert rep.trace.rows[0].f_value <= 2.0

    def test_feasibility_on_box(self):
        # the objective is asked about every x and every y the method forms
        queried = []

        def value(x):
            queried.append(x.copy())
            return 0.5 * float((x - 2) @ (x - 2))
        prob = ProblemInstance(FunctionOracle(value, lambda x: x - 2.0),
                               FeasibleSet.box(np.full(2, -1.0),
                                               np.full(2, 1.0)))
        setup = euclidean_setup(prob.set)
        rep = agm_solve(prob, setup, L=1.0, N=50)
        assert len(queried) == 100
        for y in queried:
            assert prob.set.contains(y)
        assert np.allclose(rep.x_out, [1.0, 1.0], atol=1e-6)

    def test_one_trial_per_iteration(self):
        # AGM is the universal loop's one-trial case, M_k = L
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([1.0, 0.0]))
        rep = agm_solve(prob, setup, L=1.5, N=20)
        assert rep.inner_trials == [1] * 20
        assert list(rep.trace.column("M_k")) == [1.5] * 20

    def test_nonfinite_raises(self):
        # the guard the universal method always had; it used to return
        prob = ProblemInstance(
            FunctionOracle(lambda x: float("inf"), lambda x: np.ones(1)),
            FeasibleSet.all_space(1))
        setup = euclidean_setup(prob.set)
        with pytest.raises(RuntimeError, match="non-finite"):
            agm_solve(prob, setup, L=1.0, N=5)


class TestSmoothedOracle:
    def make(self, seed=16, m=4, n=6, mu=0.05):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        return SmoothedMaxResidual(A, b, mu)

    def test_uniform_approximation(self):
        o = self.make()
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=o.n)
            f_mu = o(x).value
            f = o.unsmoothed_value(x)
            assert f_mu <= f + 1e-12
            assert f <= f_mu + o.mu * o.d2_max + 1e-12

    def test_gradient_finite_differences(self):
        o = self.make()
        rng = np.random.default_rng(18)
        h = 1e-7
        for _ in range(100):
            x = rng.uniform(-1, 1, size=o.n)
            g = o(x).subgradient
            for j in range(o.n):
                e = np.zeros(o.n)
                e[j] = h
                fd = (o(x + e).value - o(x - e).value) / (2 * h)
                scale = max(1.0, abs(g[j]))
                assert abs(fd - g[j]) / scale <= 1e-6

    def test_gradient_lipschitz(self):
        o = self.make()
        rng = np.random.default_rng(19)
        for _ in range(200):
            x = rng.uniform(-1, 1, size=o.n)
            y = rng.uniform(-1, 1, size=o.n)
            gx, gy = o(x).subgradient, o(y).subgradient
            assert np.linalg.norm(gx - gy) <= \
                o.l_mu * np.linalg.norm(x - y) + 1e-9

    def test_inner_argmax_feasible(self):
        o = self.make()
        u = o.inner_argmax(np.zeros(o.n))
        assert np.abs(u).sum() <= 1.0 + 1e-12

    def test_zero_map_reduces_to_h(self):
        h = FunctionOracle(lambda x: float(x @ x), lambda x: 2 * x)
        o = SmoothedMaxResidual(np.zeros((3, 2)), np.zeros(3), mu=0.1,
                                h_oracle=h, L_h=2.0)
        x = np.array([0.3, -0.4])
        assert o(x).value == pytest.approx(h(x).value, abs=1e-12)

    def test_one_residual_per_call(self, monkeypatch):
        """The oracle computes A x - b once and returns what the two-pass
        formula (value, then inner_argmax from a fresh residual) gave."""
        problem, _ = PROBLEMS["max_residual"]({"rows": 6, "cols": 8}, 4)
        o = SmoothedMaxResidual(problem.meta["A"], problem.meta["b"], mu=0.05)
        calls = []
        residual = o.residual
        monkeypatch.setattr(o, "residual",
                            lambda x: calls.append(1) or residual(x))
        rng = np.random.default_rng(21)
        for k in range(1, 51):
            x = rng.uniform(-1, 1, size=o.n)
            resp = o(x)
            assert len(calls) == k
            r = o.A @ x - o.b
            stacked = np.concatenate([r, -r]) / o.mu
            value = o.mu * (float(logsumexp(stacked)) - np.log(2 * o.m))
            stacked -= stacked.max()
            v = np.exp(stacked)
            v /= v.sum()
            grad = o.A.T @ (v[:o.m] - v[o.m:])
            assert resp.value == value
            assert resp.subgradient.tobytes() == grad.tobytes()

    def test_choose_mu(self):
        assert choose_mu(2.0, 1.0, 4.0, 3) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            choose_mu(1.0, 0.0, 1.0, 10)

    def test_end_to_end_bound(self):
        rng = np.random.default_rng(20)
        m, n, N = 4, 6, 300
        A = rng.standard_normal((m, n))
        b = A @ rng.uniform(-0.5, 0.5, size=n)
        from scipy.optimize import linprog
        cost = np.concatenate([np.zeros(n), [1.0]])
        A_ub = np.vstack([np.hstack([A, -np.ones((m, 1))]),
                          np.hstack([-A, -np.ones((m, 1))])])
        res = linprog(cost, A_ub=A_ub, b_ub=np.concatenate([b, -b]),
                      bounds=[(-1.0, 1.0)] * n + [(None, None)],
                      method="highs")
        f_star = float(res.fun)
        D1 = 0.5 * n
        a_norm = float(np.max(np.linalg.norm(A, axis=1)))
        D2 = math.log(2 * m)
        mu = choose_mu(a_norm, D1, D2, N)
        oracle = SmoothedMaxResidual(A, b, mu)
        prob = ProblemInstance(
            oracle, FeasibleSet.box(np.full(n, -1.0), np.full(n, 1.0)))
        setup = euclidean_setup(prob.set)
        rep = agm_solve(prob, setup, L=oracle.l_mu, N=N)
        err = oracle.unsmoothed_value(rep.x_out) - f_star
        bound = 4.0 * a_norm * math.sqrt(D1 * D2) / (N + 1)
        assert err <= bound + 1e-9


class TestUniversalAgm:
    def test_smooth_rate(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([1.0, 0.0]))
        eps = 1e-6
        rep = universal_agm(prob, setup, eps=eps, L0=1.0, N=60)
        v0 = 0.5
        for row in rep.trace:
            bound = universal_conv_bound(1.0, l_nu=1.0, eps=eps, k=row.k,
                                         v0=v0)
            assert row.f_value - prob.f_star <= bound + 1e-12
            assert bound == pytest.approx(8.0 * v0 / row.k ** 2 + eps / 2.0)

    def test_nonsmooth_rate(self):
        prob = ProblemInstance(
            FunctionOracle(lambda x: float(np.abs(x).sum()), np.sign),
            FeasibleSet.all_space(1), f_star=0.0, x_star=np.zeros(1),
            meta={"holder": (0.0, 2.0)})
        setup = euclidean_setup(prob.set, origin=np.array([1.0]))
        eps = 0.01
        rep = universal_agm(prob, setup, eps=eps, L0=1.0, N=300)
        v0 = 0.5
        l0 = 2.0
        for row in rep.trace:
            bound = universal_conv_bound(0.0, l_nu=l0, eps=eps, k=row.k,
                                         v0=v0)
            assert row.f_value - prob.f_star <= bound + 1e-12
            assert bound == pytest.approx(4.0 * l0 ** 2 * v0 / (eps * row.k)
                                          + eps / 2.0)

    def test_accepted_m_bounded_for_smooth(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([1.0, 0.0]))
        rep = universal_agm(prob, setup, eps=1e-8, L0=1.0, N=50)
        assert max(rep.trace.column("M_k")) <= 2.0 + 1e-12

    def test_oracle_call_audit(self):
        prob = quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([1.0, 0.0]))
        eps = 1e-6
        N = 50
        rep = universal_agm(prob, setup, eps=eps, L0=1.0, N=N)
        budget = universal_call_bound(1.0, l_nu=1.0, eps=eps, k=N, v0=0.5)
        assert rep.oracle_calls <= budget

    def test_nonfinite_raises(self):
        prob = ProblemInstance(
            FunctionOracle(lambda x: float("inf"), lambda x: np.ones(1)),
            FeasibleSet.all_space(1))
        setup = euclidean_setup(prob.set)
        with pytest.raises(RuntimeError):
            universal_agm(prob, setup, eps=0.1, L0=1.0, N=5)
