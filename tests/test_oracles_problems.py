import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirropt.geometry import FeasibleSet, euclidean_setup
from mirropt.oracles import (AbsLinearOracle, ConstraintBundle,
                             FunctionOracle, InexactOracle, LinearOracle,
                             aggregate_max)
from mirropt import problems
from mirropt.mirrorprox import mirror_prox_solve, saddle_gap
from mirropt.problems import (gen_matrix_game, gen_transport_dual,
                              gen_ttd_dual, make_ttd_instance,
                              matrix_game_equilibrium,
                              reconstruct_ttd_primal,
                              transport_dual_lp_optimum)
from mirropt.subgradient import run_adaptive_md


class TestAggregateMax:
    def test_tie_break_lowest_index(self):
        bundle = ConstraintBundle([
            LinearOracle(np.zeros(1), -1.0),
            LinearOracle(np.zeros(1), 3.0),
            LinearOracle(np.zeros(1), 3.0),
        ])
        resp = aggregate_max(bundle, np.zeros(1))
        assert resp.value == 3.0
        assert resp.active_index == 2

    def test_single_piece(self):
        piece = LinearOracle(np.array([2.0]), 1.0)
        bundle = ConstraintBundle([piece])
        resp = aggregate_max(bundle, np.array([3.0]))
        ref = piece(np.array([3.0]))
        assert resp.value == ref.value
        assert np.array_equal(resp.subgradient, ref.subgradient)
        assert resp.active_index == 1

    def test_negative_values(self):
        bundle = ConstraintBundle([LinearOracle(np.zeros(1), -2.0),
                                   LinearOracle(np.zeros(1), -1.0)])
        resp = aggregate_max(bundle, np.zeros(1))
        assert resp.value == -1.0
        assert resp.active_index == 2

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            ConstraintBundle([])


class TestAbsLinear:
    def test_sign_zero_is_zero(self):
        o = AbsLinearOracle(np.array([1.0, 1.0]))
        resp = o(np.array([1.0, -1.0]))
        assert resp.value == 0.0
        assert np.array_equal(resp.subgradient, np.zeros(2))


class TestTransportDual:
    def test_one_by_one(self):
        # a = b = (V), c arbitrary: f* = -primal = -V*c_00 at u+v = c
        prob = gen_transport_dual(1, 1, seed=0)
        o = prob.objective
        assert prob.f_star == pytest.approx(-o.c[0, 0] * o.a[0])

    def test_v_is_total_supply(self):
        for seed in range(5):
            prob = gen_transport_dual(3, 4, seed)
            o = prob.objective
            assert prob.meta["V"] == pytest.approx(o.a.sum())
            assert o.a.sum() == pytest.approx(o.b.sum())

    def test_penalty_subgradient_is_v_per_infeasible_cell(self):
        prob = gen_transport_dual(2, 2, seed=1)
        o = prob.objective
        # make every cell strictly infeasible
        x = np.full(o.n + o.m, o.c.max() + 1.0)
        resp = o(x)
        gu = resp.subgradient[:o.n]
        assert np.allclose(gu, -o.a + o.V * o.m)

    def test_strong_duality_vs_lp(self):
        for seed in range(5):
            prob = gen_transport_dual(3, 3, seed)
            lp_opt = transport_dual_lp_optimum(prob)
            assert lp_opt == pytest.approx(prob.f_star, abs=1e-6)

    def test_known_optimum_attained(self):
        for seed in range(5):
            prob = gen_transport_dual(3, 4, seed)
            assert prob.objective(prob.x_star).value == \
                pytest.approx(prob.f_star, abs=1e-7)

    def test_solver_reaches_lp_optimum(self):
        prob = gen_transport_dual(2, 2, seed=3)
        setup = euclidean_setup(prob.set, origin=prob.x_star + 0.5)
        rep = run_adaptive_md(prob, setup, eps=0.05, N=20000)
        assert rep.f_out - prob.f_star <= 0.2


class TestTtd:
    def test_sparsity(self):
        for seed in range(5):
            prob = gen_ttd_dual(6, 8, seed)
            for a in prob.meta["rows"]:
                assert np.count_nonzero(a) <= 4

    def test_one_bar_hand_instance(self):
        prob = make_ttd_instance(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
        assert prob.f_star == pytest.approx(-1.0)
        assert prob.x_star[0] == pytest.approx(1.0)

    def test_feasible_start(self):
        prob = gen_ttd_dual(5, 6, seed=0)
        resp = aggregate_max(prob.constraints, np.zeros(prob.set.dim))
        assert resp.value == pytest.approx(-1.0)

    def test_reconstruction_identities(self):
        prob = make_ttd_instance(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
        rec = reconstruct_ttd_primal(prob, np.array([1.0]),
                                     np.array([1.0, 0.0]), T=3.0)
        assert np.allclose(rec.w, [3.0])
        assert np.allclose(rec.z, [1 / 3, 0.0])
        assert rec.residual_inf == pytest.approx(0.0, abs=1e-12)
        # <e, w> = T exactly; w is invariant to the scale of the multipliers
        # while z absorbs it (their product w_i * <a_i, z> is what matters)
        rec10 = reconstruct_ttd_primal(prob, np.array([10.0]),
                                       np.array([1.0, 0.0]), T=3.0)
        assert rec.w.sum() == 3.0
        assert np.array_equal(rec.w, rec10.w)
        assert np.allclose(rec10.z, 10.0 * rec.z, atol=1e-12)

    def test_zero_multipliers_rejected(self):
        prob = make_ttd_instance(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            reconstruct_ttd_primal(prob, np.zeros(1), np.zeros(2), T=1.0)


def _game(m, n, seed, simplex):
    """An m x n payoff matrix and a point z = (x, u), either on the simplex
    product or signed normals with some entries exactly (+-) zero."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    if simplex:
        z = np.concatenate([rng.dirichlet(np.ones(n)),
                            rng.dirichlet(np.ones(m))])
    else:
        z = rng.standard_normal(n + m) * (rng.random(n + m) < 0.7)
    return A, z


# random games of every size in [1, 12]^2 that a seed picks, then the
# hand-solved ones
EQUILIBRIUM_GAMES = [
    np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, n))
    for seed, (m, n) in enumerate(
        np.random.default_rng(99).integers(1, 13, size=(24, 2)))
] + [np.ones((1, 1)), np.ones((1, 12)), np.ones((12, 1)),
     np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 3)), np.eye(3)]


class TestMatrixGame:
    def test_2x2_antidiagonal(self):
        op = gen_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        value, x_eq, u_eq = matrix_game_equilibrium(op)
        assert value == pytest.approx(0.5)
        assert np.allclose(x_eq, [0.5, 0.5])
        assert np.allclose(u_eq, [0.5, 0.5])

    def test_zero_matrix(self):
        op = gen_matrix_game(np.zeros((2, 3)))
        assert matrix_game_equilibrium(op)[0] == pytest.approx(0.0)
        z = op.domain.prox_center()
        assert np.allclose(op(z), 0.0)

    def test_identity(self):
        op = gen_matrix_game(np.eye(2))
        assert matrix_game_equilibrium(op)[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("A", [np.zeros((0, 3)), np.zeros((3, 0)),
                                   np.zeros((1, 0)), np.zeros((0, 0)),
                                   np.ones(3), np.ones((2, 2, 2)), 1.0],
                             ids=["0x3", "3x0", "1x0", "0x0", "1-D", "3-D",
                                  "scalar"])
    @pytest.mark.parametrize("setup_choice", ["entropy", "euclidean"])
    @pytest.mark.filterwarnings("error")
    def test_rejects_empty_or_non_matrix(self, A, setup_choice):
        shape = str(np.shape(A))
        with pytest.raises(ValueError, match=f"shape {re.escape(shape)}"):
            gen_matrix_game(A, setup_choice)

    @pytest.mark.parametrize("setup_choice", ["entropy", "euclidean"])
    def test_build_runs_no_lp(self, monkeypatch, setup_choice):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")
        monkeypatch.setattr(problems, "linprog", no_lp)
        op = gen_matrix_game(np.random.default_rng(3).uniform(size=(4, 5)),
                             setup_choice)
        assert set(op.meta) == {"A", "setup_choice"}
        with pytest.raises(AssertionError, match="linprog called"):
            matrix_game_equilibrium(op)

    @pytest.mark.parametrize("A", EQUILIBRIUM_GAMES,
                             ids=lambda A: "x".join(map(str, A.shape)))
    def test_equilibrium_agrees_with_gap_certificate(self, A):
        """The LP's equilibrium has a zero saddle gap, and its value lies
        between the bounds a Mirror Prox average certifies."""
        op = gen_matrix_game(A)
        value, x_eq, u_eq = matrix_game_equilibrium(op)
        assert saddle_gap(op, x_eq, u_eq) <= 1e-7
        rep = mirror_prox_solve(op, op.domain, op.lipschitz or 1.0, 30)
        x_hat, u_hat = op.domain.split(rep.x_out)
        lower = float((A.T @ u_hat).min())     # min_x f(x, u_hat)
        upper = float((A @ x_hat).max())       # max_u f(x_hat, u)
        assert lower - 1e-9 <= value <= upper + 1e-9

    def test_monotonicity(self):
        rng = np.random.default_rng(8)
        op = gen_matrix_game(rng.uniform(-1, 1, size=(3, 4)))
        for _ in range(1000):
            z1 = rng.uniform(0.01, 1.0, size=7)
            z2 = rng.uniform(0.01, 1.0, size=7)
            assert (op(z1) - op(z2)) @ (z1 - z2) >= -1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.builds(_game, st.integers(1, 64), st.integers(1, 64),
                     st.integers(0, 2**32 - 1), st.booleans()))
    @example(_game(1, 1, 0, True))
    @example(_game(1, 2, 1, False))
    @example(_game(1, 3, 2, True))
    @example(_game(1, 64, 3, False))
    @example(_game(7, 1, 4, False))
    @example(_game(64, 5, 5, True))
    @example(_game(2, 63, 6, False))
    def test_block_operator_bytes_equal_full_product(self, case):
        """Phi multiplies views of G's two nonzero blocks; its bytes are
        those of G @ z for every n % 4 and for one-row games."""
        A, z = case
        op = gen_matrix_game(A)
        z0 = z.copy()
        out = op(z)
        assert out.tobytes() == (op.linear_part @ z).tobytes()
        assert z.tobytes() == z0.tobytes()


class TestConvexityAndSubgradients:
    def instances(self):
        return [gen_transport_dual(2, 3, 0), gen_ttd_dual(5, 6, 1)]

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(9)
        for prob in self.instances():
            f = prob.objective
            for _ in range(100):
                x = rng.standard_normal(prob.set.dim)
                y = rng.standard_normal(prob.set.dim)
                assert f(0.5 * x + 0.5 * y).value <= \
                    0.5 * f(x).value + 0.5 * f(y).value + 1e-9

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(10)
        for prob in self.instances():
            f = prob.objective
            for _ in range(100):
                x = rng.standard_normal(prob.set.dim)
                z = rng.standard_normal(prob.set.dim)
                rx = f(x)
                assert f(z).value >= rx.value + rx.subgradient @ (z - x) - 1e-9


class TestInexactOracle:
    def test_delta_subgradient_inequality(self):
        base = FunctionOracle(lambda x: np.abs(x).sum(), np.sign)
        delta = 0.05
        oracle = InexactOracle(base, delta, lipschitz=1.0, seed=0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.standard_normal(3)
            z = rng.standard_normal(3)
            rx = oracle(x)
            assert rx.delta == delta
            exact_z = base(z).value
            assert exact_z >= rx.value + rx.subgradient @ (z - x) - 2 * delta - 1e-9

    def test_deterministic(self):
        base = FunctionOracle(lambda x: np.abs(x).sum(), np.sign)
        oracle = InexactOracle(base, 0.1, lipschitz=1.0, seed=4)
        x = np.array([0.3, -0.7])
        r1, r2 = oracle(x), oracle(x)
        assert r1.value == r2.value
        assert np.array_equal(r1.subgradient, r2.subgradient)
