import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirropt.geometry import FeasibleSet, euclidean_setup
from mirropt.oracles import (AbsLinearOracle, ConstraintBundle,
                             FunctionOracle, InexactOracle, LinearMaxBundle,
                             LinearOracle, aggregate_max)
from mirropt import bench, problems
from mirropt.mirrorprox import mirror_prox_solve, saddle_gap
from mirropt.problems import (gen_matrix_game, gen_transport_dual,
                              gen_ttd_dual, linear_box_instance,
                              make_ttd_instance, matrix_game_equilibrium,
                              reconstruct_ttd_primal,
                              transport_dual_lp_optimum)
from mirropt.subgradient import run_adaptive_md
from scipy.optimize import linprog


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

    def test_calling_the_bundle_is_aggregate_max(self):
        bundle = ConstraintBundle([LinearOracle(np.array([1.0]), -1.0),
                                   LinearOracle(np.array([-1.0]), -1.0)])
        for x, value, index in (([0.25], -0.75, 1), ([-2.0], 1.0, 2)):
            resp = bundle(x)
            assert (resp.value, resp.active_index) == (value, index)
            assert resp.subgradient.tobytes() == \
                aggregate_max(bundle, x).subgradient.tobytes()

    def test_list_input_matches_array_input(self):
        bundle = LinearMaxBundle([[1.0, -2.0], [0.5, 3.0]], [0.25, -1.0])
        for x in ([0.3, 0.7], np.array([0.3, 0.7], dtype=np.float32)):
            resp = aggregate_max(bundle, x)
            ref = aggregate_max(bundle, np.asarray(x, dtype=float))
            assert (resp.value, resp.active_index) == \
                (ref.value, ref.active_index)


class TestPrivateData:
    """The linear oracles hand out views of their own data, so that data
    must be a read-only copy that the caller's arrays cannot reach."""

    def test_linear_subgradient_read_only_and_private(self):
        a = np.array([1.0, -2.0])
        piece = LinearOracle(a, 0.5)
        a[:] = 7.0
        resp = piece(np.array([1.0, 1.0]))
        assert resp.value == -0.5
        assert np.array_equal(resp.subgradient, [1.0, -2.0])
        with pytest.raises(ValueError):
            resp.subgradient[0] = 3.0
        assert piece(np.array([1.0, 1.0])).value == -0.5

    def test_bundle_subgradient_read_only_and_private(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([0.0, -1.0])
        bundle = LinearMaxBundle(A, b)
        x = np.array([1.0, 1.0])
        A[1, 1] = 100.0
        b[0] = 50.0
        resp = aggregate_max(bundle, x)
        assert (resp.value, resp.active_index) == (1.0, 1)
        assert np.array_equal(resp.subgradient, [1.0, 0.0])
        with pytest.raises(ValueError):
            resp.subgradient[0] = 3.0
        resp = aggregate_max(bundle, x)
        assert (resp.value, resp.active_index) == (1.0, 1)
        assert np.array_equal(resp.subgradient, [1.0, 0.0])


class TestAbsLinear:
    def test_sign_zero_is_zero(self):
        o = AbsLinearOracle(np.array([1.0, 1.0]))
        resp = o(np.array([1.0, -1.0]))
        assert resp.value == 0.0
        assert np.array_equal(resp.subgradient, np.zeros(2))


def reference_transport_primal(a, b, c):
    """The transportation LP as first built: a dense (n + m) x mn equality
    matrix filled row by row.  Returns (optimal value, dual prices)."""
    m, n = c.shape
    A_eq = np.zeros((n + m, m * n))
    for j in range(n):                      # column sums = a_j
        A_eq[j, j::n] = 1.0
    for i in range(m):                      # row sums = b_i
        A_eq[n + i, i * n:(i + 1) * n] = 1.0
    res = linprog(c.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun), np.asarray(res.eqlin.marginals, dtype=float)


def reference_transport_lp_optimum(o):
    """min f of a ``TransportDualOracle`` from its epigraph LP as first
    built: one dense row u_j + v_i - t_ij <= c_ij per cell."""
    m, n = o.m, o.n
    dim = n + m
    cost = np.concatenate([-o.a, -o.b, np.full(m * n, o.V)])
    rows, rhs = [], []
    for i in range(m):
        for j in range(n):
            r = np.zeros(dim + m * n)
            r[j] = 1.0
            r[n + i] = 1.0
            r[dim + i * n + j] = -1.0
            rows.append(r)
            rhs.append(o.c[i, j])
    bounds = [(None, None)] * dim + [(0, None)] * (m * n)
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=bounds, method="highs")
    assert res.success
    return float(res.fun)


TRANSPORT_SIZES = [(1, 1, 0), (2, 3, 9), (3, 3, 1), (5, 7, 2), (10, 1, 3),
                   (20, 30, 4)] + [(3, 4, seed) for seed in range(5)]


class TestTransportDual:
    @pytest.mark.parametrize("m, n, seed", TRANSPORT_SIZES)
    def test_sparse_lps_match_the_dense_reference(self, m, n, seed):
        """Both LPs are built sparse and give the dense builds' bytes."""
        prob = gen_transport_dual(m, n, seed)
        o = prob.objective
        primal_opt, prices = reference_transport_primal(o.a, o.b, o.c)
        assert np.float64(prob.f_star).tobytes() == \
            np.float64(-primal_opt).tobytes()
        assert prob.x_star.tobytes() == prices.tobytes()
        assert np.float64(transport_dual_lp_optimum(prob)).tobytes() == \
            np.float64(reference_transport_lp_optimum(o)).tobytes()

    def test_more_rows_than_supply(self):
        """With m above sum(a), a_0 grows to make the total m, so every row
        gets a supply of at least 1."""
        prob = gen_transport_dual(10, 1, 3)
        o = prob.objective
        assert o.a.sum() == o.b.sum() == prob.meta["V"] == 10.0
        assert np.all(o.b >= 1.0)
        assert prob.f_star == transport_dual_lp_optimum(prob) == -28.0

    def test_build_memory_is_not_quadratic_in_the_cells(self):
        """The dense (m + n) x mn matrix of a 120 x 120 build alone is
        27.6 MB; the sparse build peaks at a few MB of numpy memory."""
        tracemalloc.start()
        try:
            gen_transport_dual(120, 120, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


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


def reference_ttd_rows(nodes, bars, seed):
    """The bar rows and force of ``gen_ttd_dual`` as built by its first,
    O(nodes**2) scan over every node pair."""
    rng = np.random.default_rng(seed)
    pos = []
    r = 0
    while len(pos) < nodes:
        pos.append((r, 0.0))
        if len(pos) < nodes:
            pos.append((r, 1.0))
        r += 1
    anchored = [i for i, (r, cc) in enumerate(pos) if r == 0]
    free = [i for i in range(nodes) if i not in anchored]
    dof = {node: (2 * k, 2 * k + 1) for k, node in enumerate(free)}
    dim = 2 * len(free)
    cand = []
    for p in range(nodes):
        for q in range(p + 1, nodes):
            dx = pos[q][0] - pos[p][0]
            dy = pos[q][1] - pos[p][1]
            if dx * dx + dy * dy <= 2.0 + 1e-12 and (p in dof or q in dof):
                cand.append((p, q))
    if bars >= len(cand):
        chosen = list(range(len(cand)))
    else:
        chosen = sorted(rng.choice(len(cand), size=bars, replace=False))
    rows = []
    for idx in chosen:
        p, q = cand[idx]
        d = np.array([pos[q][0] - pos[p][0], pos[q][1] - pos[p][1]])
        d = d / np.linalg.norm(d)
        a = np.zeros(dim)
        if p in dof:
            a[dof[p][0]], a[dof[p][1]] = -d[0], -d[1]
        if q in dof:
            a[dof[q][0]], a[dof[q][1]] = d[0], d[1]
        rows.append(a)
    f_bar = np.zeros(dim)
    node = free[rng.integers(len(free))]
    angle = rng.uniform(0, 2 * np.pi)
    f_bar[dof[node][0]] = np.cos(angle)
    f_bar[dof[node][1]] = np.sin(angle)
    return np.array(rows), f_bar


class TestTtd:
    @pytest.mark.parametrize("nodes, bars", [
        (3, 1), (3, 5), (4, 2), (5, 6), (6, 8), (7, 30), (10, 20), (40, 120),
        (41, 1), (101, 250)])
    def test_rows_match_the_pair_scan(self, nodes, bars):
        for seed in range(3):
            prob = gen_ttd_dual(nodes, bars, seed)
            rows, f_bar = reference_ttd_rows(nodes, bars, seed)
            assert prob.meta["rows"].tobytes() == rows.tobytes()
            assert prob.meta["rows"].shape == rows.shape
            assert prob.meta["f_bar"].tobytes() == f_bar.tobytes()
            assert prob.x_star.tobytes() == \
                make_ttd_instance(rows, f_bar).x_star.tobytes()

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


class TestLinearBoxInstance:
    @pytest.mark.parametrize("seed", range(5))
    def test_lipschitz_constants_are_the_norms(self, seed):
        """toy_lp and the truss dual both go through linear_box_instance:
        L_f is ||c|| and L_g the largest row norm, bit for bit."""
        toy, _ = bench.PROBLEMS["toy_lp"]({"dim": 7, "pieces": 9}, seed)
        ttd = gen_ttd_dual(40, 120, seed)
        for prob, c, rows in ((toy, toy.meta["c"], toy.meta["A"]),
                              (ttd, -ttd.meta["f_bar"], ttd.meta["rows"])):
            assert prob.lipschitz_f == float(np.linalg.norm(c))
            assert prob.lipschitz_g == max(np.linalg.norm(a) for a in rows)
            assert np.array_equal(prob.objective.a, c)

    def test_lp_failure_raises(self):
        # x + 5 <= 0 has no point in [-1, 1]
        with pytest.raises(RuntimeError, match="LP over the box failed"):
            linear_box_instance(np.ones(1), np.ones((1, 1)), np.full(1, 5.0),
                                1.0, {})


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
        assert saddle_gap(op, np.concatenate([x_eq, u_eq])) <= 1e-7
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
