import numpy as np
import pytest

from mirropt.constrained import (certify, directional_merit,
                                 solve_constrained_general,
                                 solve_constrained_nonsmooth)
from mirropt.geometry import FeasibleSet, euclidean_setup
from mirropt.oracles import (ConstraintBundle, FunctionOracle, InexactOracle,
                             LinearOracle, ProblemInstance)


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
        prob = ProblemInstance(
            objective=FunctionOracle(lambda x: 1.0, lambda x: np.zeros(2)),
            set=FeasibleSet.box(np.full(2, -1.0), np.full(2, 1.0)),
            constraints=ConstraintBundle([LinearOracle(np.zeros(2), -1.0)]))
        setup = euclidean_setup(prob.set, theta0_sq=0.5)
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
    def quad_problem(self):
        return ProblemInstance(
            objective=FunctionOracle(lambda x: float(x @ x),
                                     lambda x: 2.0 * x),
            set=FeasibleSet.box(np.array([-2.0]), np.array([2.0])),
            constraints=ConstraintBundle([
                LinearOracle(np.array([1.0]), -1.0),
                LinearOracle(np.array([-1.0]), -1.0)]),
            lipschitz_g=1.0, f_star=0.0, x_star=np.zeros(1))

    def test_quadratic_guarantees(self):
        prob = self.quad_problem()
        setup = euclidean_setup(prob.set, origin=np.array([2.0]), theta0_sq=2.0)
        eps = 0.05
        rep = solve_constrained_general(prob, setup, eps=eps)
        assert rep.extras["min_vf"] <= eps + 1e-9
        assert rep.g_bar <= eps + 1e-9
        assert rep.iterations <= rep.iteration_bound

    def test_step_formulas(self):
        # productive h = eps/||grad f||_* (so ||grad f||_* = 4 gives 0.025),
        # non-productive h = eps/||grad g||_*^2
        prob = self.quad_problem()
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
        prob = self.quad_problem()
        setup = euclidean_setup(prob.set, origin=np.zeros(1), theta0_sq=2.0)
        rep = solve_constrained_general(prob, setup, eps=0.1)
        assert rep.f_out == 0.0
        assert np.allclose(rep.x_out, 0.0)

    def test_merit_modulus_consistency(self):
        """f(x) - f(x*) <= omega(v_f[x*](x)) with omega from a grid max."""
        prob = self.quad_problem()
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
