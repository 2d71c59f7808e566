import dataclasses
import math

import numpy as np
import pytest

from mirropt.bench import fit_rate
from mirropt.geometry import FeasibleSet, ProductSetup, euclidean_setup
from mirropt import mirrorprox
from mirropt.mirrorprox import (mirror_prox_solve, saddle_gap, ump_rate_bound,
                                universal_mirror_prox_solve)
from mirropt.oracles import SaddleOperator
from mirropt.problems import gen_matrix_game


def bilinear_box_op(half=1.0):
    """f(x, u) = x*u on [-half, half]^2, Phi = (u, -x)."""
    box = FeasibleSet.box(np.array([-half]), np.array([half]))
    domain = ProductSetup(euclidean_setup(box), euclidean_setup(box))
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return SaddleOperator(phi=lambda z: G @ z, domain=domain, lipschitz=1.0,
                          holder_nu=1.0, holder_l=1.0, linear_part=G,
                          meta={"A": np.array([[1.0]]), "value": 0.0})


def counting(op):
    """``op`` with a counter of its real operator invocations."""
    calls = []

    def phi(z):
        calls.append(1)
        return op.phi(z)
    return dataclasses.replace(op, phi=phi), calls


class TestSaddleGap:
    def test_exact_saddle(self):
        op = bilinear_box_op()
        assert saddle_gap(op, np.array([0.0, 0.0])) == 0.0

    def test_corner(self):
        op = bilinear_box_op()
        assert saddle_gap(op, np.array([1.0, 1.0])) == 2.0

    def test_uniform_equilibrium(self):
        op = gen_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert saddle_gap(op, np.array([0.5, 0.5, 0.5, 0.5])) == \
            pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        op = gen_matrix_game(rng.uniform(-1, 1, size=(3, 4)))
        for _ in range(100):
            x = rng.dirichlet(np.ones(4))
            u = rng.dirichlet(np.ones(3))
            assert saddle_gap(op, np.concatenate([x, u])) >= -1e-9

    @pytest.mark.parametrize("method", ["mirror_prox",
                                        "universal_mirror_prox"])
    def test_running_gap_matches_exact(self, monkeypatch, method):
        """On a game_mp-size game every row's gap, certified from the running
        average of Phi, is the exact gap of its averaged point within
        1e-12 max|A|; the last row is the exact one."""
        A = np.random.default_rng(1).uniform(0.0, 1.0, size=(300, 300))
        op = gen_matrix_game(A)
        rows = []

        def recording(op, w_hat, phi_hat=None):
            rows.append((w_hat.copy(), phi_hat is None))
            return saddle_gap(op, w_hat, phi_hat)
        monkeypatch.setattr(mirrorprox, "saddle_gap", recording)
        if method == "mirror_prox":
            rep = mirror_prox_solve(op, op.domain, op.lipschitz, 2000)
        else:
            rep = universal_mirror_prox_solve(op, op.domain, 1e-3, 1.0, 20000)
        assert len(rows) == len(rep.trace) == rep.iterations > 1000
        assert [exact for _, exact in rows] == [False] * (len(rows) - 1) + [True]
        tol = 1e-12 * np.abs(A).max()
        for (w_hat, _), row in zip(rows, rep.trace):
            x_hat, u_hat = op.domain.split(w_hat)
            # max_u f(x_hat, u) - min_x f(x, u_hat) for f(x, u) = <u, A x>
            exact = (A @ x_hat).max() - (A.T @ u_hat).min()
            assert abs(row.f_value - exact) <= tol


class TestMirrorProx:
    def test_bilinear_box_rate(self):
        op = bilinear_box_op()
        rep = mirror_prox_solve(op, op.domain, L=1.0, N=200)
        for row in rep.trace:
            assert row.f_value <= 1.0 / row.k + 1e-9
            assert row.bound_value == pytest.approx(1.0 / row.k)

    def test_starts_at_prox_center(self):
        op = bilinear_box_op()
        rep = mirror_prox_solve(op, op.domain, L=1.0, N=1)
        assert np.allclose(rep.extras["z_last"].shape, (2,))
        assert np.allclose(op.domain.prox_center(), np.zeros(2))

    def test_one_trial_per_iteration(self):
        # Mirror Prox is the universal loop's one-trial case, M_k = L
        op = bilinear_box_op()
        op, calls = counting(op)
        rep = mirror_prox_solve(op, op.domain, L=2.0, N=30)
        assert rep.inner_trials == [1] * 30
        assert list(rep.trace.column("M_k")) == [2.0] * 30
        assert rep.oracle_calls == 2 * 30 == len(calls) - 1

    def test_matrix_game_entropy_rate(self):
        op = gen_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = mirror_prox_solve(op, op.domain, L=op.lipschitz, N=300)
        for row in rep.trace:
            assert row.f_value <= row.bound_value + 1e-9

    def test_residual_certificate(self):
        rng = np.random.default_rng(22)
        op = gen_matrix_game(rng.uniform(0, 1, size=(3, 3)))
        rep = mirror_prox_solve(op, op.domain, L=op.lipschitz, N=200)
        res = saddle_gap(op, rep.x_out)
        assert res >= -1e-9
        assert res <= op.lipschitz * rep.extras["max_v"] / rep.iterations + 1e-9

    def test_gap_decay_slope(self):
        rng = np.random.default_rng(23)
        op = gen_matrix_game(rng.uniform(0, 1, size=(4, 5)))
        rep = mirror_prox_solve(op, op.domain, L=op.lipschitz, N=500)
        gaps = rep.trace.column("f_value")
        ks = rep.trace.column("k")
        for a, b in zip(gaps, gaps[1:]):
            assert b <= 1.1 * a + 1e-15
        if np.all(gaps > 0):
            assert fit_rate(ks, gaps) <= -0.8

    def test_monotone_operator(self):
        rng = np.random.default_rng(24)
        op = bilinear_box_op()
        for _ in range(1000):
            z1 = rng.uniform(-1, 1, size=2)
            z2 = rng.uniform(-1, 1, size=2)
            assert (op(z1) - op(z2)) @ (z1 - z2) >= -1e-9


class TestUniversalMirrorProx:
    def test_first_trial_halves(self):
        op = bilinear_box_op()
        rep = universal_mirror_prox_solve(op, op.domain, eps=0.5, M_init=8.0,
                                          N=3)
        # a Lipschitz check passing on the first trial accepts M_init / 2
        assert rep.inner_trials[0] == 1
        assert rep.trace.rows[0].M_k == pytest.approx(4.0)

    def test_accepted_m_bounded(self):
        op = bilinear_box_op()
        rep = universal_mirror_prox_solve(op, op.domain, eps=1e-4, M_init=1.0,
                                          N=5000)
        assert max(rep.trace.column("M_k")) <= 2.0 * 1.0 + 1e-12

    def test_rate_and_stop(self):
        op = bilinear_box_op()
        eps = 0.01
        rep = universal_mirror_prox_solve(op, op.domain, eps=eps, M_init=1.0,
                                          N=5000)
        gap = saddle_gap(op, rep.x_out)
        for row in rep.trace:
            assert row.f_value <= row.bound_value + 1e-9
            rate = ump_rate_bound(1.0, l_nu=1.0, eps=eps, k=row.k,
                                  max_v=rep.extras["max_v"])
            assert row.f_value <= rate + 1e-9
        assert rep.extras["stopped_adaptive"]
        assert gap <= eps + 1e-9

    def test_rate_arithmetic(self):
        assert ump_rate_bound(1.0, l_nu=1.0, eps=0.01, k=100, max_v=1.0) \
            == pytest.approx(0.025)

    def test_oracle_call_telescoping(self):
        op = bilinear_box_op()
        op, calls = counting(bilinear_box_op())
        rep = universal_mirror_prox_solve(op, op.domain, eps=0.001, M_init=4.0,
                                          N=5000)
        # one Phi(z) per iteration and one Phi(w) per trial
        assert rep.oracle_calls == rep.iterations + sum(rep.inner_trials)
        # with t_k trials the accepted constant is M_k = 2^{t_k - 2} M_{k-1},
        # which telescopes to sum t_k = 2k + log2(M_last / M_init)
        assert rep.oracle_calls == \
            3 * rep.iterations + math.log2(rep.trace.rows[-1].M_k / 4.0)
        # every counted call ran, plus the one uncounted audit Phi(w_hat)
        assert len(calls) == rep.oracle_calls + 1

    def test_entropy_game(self):
        op = gen_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        eps = 0.01
        rep = universal_mirror_prox_solve(op, op.domain, eps=eps, M_init=1.0,
                                          N=10000)
        assert saddle_gap(op, rep.x_out) <= eps + 1e-9

    def test_skew_required_for_residual(self):
        op = bilinear_box_op()
        bad = SaddleOperator(phi=op.phi, domain=op.domain,
                             linear_part=np.eye(2))
        with pytest.raises(ValueError):
            saddle_gap(bad, np.zeros(2))


class _NonFiniteAtSecond:
    """``phi`` answered once, then ``value`` in every coordinate."""

    def __init__(self, phi, value):
        self.phi, self.value, self.calls = phi, value, 0

    def __call__(self, z):
        self.calls += 1
        out = self.phi(z)
        return out if self.calls == 1 else np.full_like(out, self.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("method, affine", [
    ("mirror_prox", True), ("mirror_prox", False),
    ("universal_mirror_prox", True), ("universal_mirror_prox", False)])
def test_non_finite_operator_raises(method, affine, value):
    """The first non-finite Phi stops the run, as it stops the subgradient
    loops: through the row's gap (affine Phi), Phi(w) itself (any other
    Phi) or the universal method's Lipschitz check, not through NaN rows or
    the doubling cap."""
    op = gen_matrix_game(np.random.default_rng(3).uniform(-1, 1, (3, 4)))
    phi = _NonFiniteAtSecond(op.phi, value)
    op = dataclasses.replace(op, phi=phi,
                             linear_part=op.linear_part if affine else None)
    with pytest.raises(RuntimeError, match="^non-finite objective value$"):
        if method == "mirror_prox":
            mirror_prox_solve(op, op.domain, op.lipschitz, 5)
        else:
            universal_mirror_prox_solve(op, op.domain, 0.01, 1.0, 5)
    assert phi.calls == 2
