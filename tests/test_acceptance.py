"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is a theorem-bound or oracle-equivalence property at desk scale;
nothing here needs more than one core or ~30 s per criterion.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linprog

from mirropt.bench import PROBLEMS, _make_setup, fit_rate, run_experiment
from mirropt.constrained import (certify, solve_constrained_general,
                                 solve_constrained_nonsmooth)
from mirropt.geometry import FeasibleSet, entropy_setup, euclidean_setup
from mirropt.maxstruct import MaxStructure, SparseVector
from mirropt.mirrorprox import (mirror_prox_solve, saddle_gap, ump_rate_bound,
                                universal_mirror_prox_solve)
from mirropt.oracles import (ConstraintBundle, FunctionOracle, InexactOracle,
                             LinearOracle, ProblemInstance)
from mirropt.problems import (gen_matrix_game, gen_ttd_dual,
                              reconstruct_ttd_primal,
                              ttd_multipliers_from_dual)
from mirropt.smoothing import (SmoothedMaxResidual, agm_solve, choose_mu,
                               universal_agm, universal_call_bound,
                               universal_conv_bound)
from mirropt.subgradient import (run_fixed_md, run_shor,
                                 run_strongly_convex_md)


@contextmanager
def verdict(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} ({label}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {number:2d} ({label}): PASS", flush=True)


def l2_norm_problem(n):
    def grad(x):
        nrm = np.linalg.norm(x)
        return x / nrm if nrm > 0 else np.zeros_like(x)
    return ProblemInstance(
        FunctionOracle(lambda x: float(np.linalg.norm(x)), grad),
        FeasibleSet.all_space(n), f_star=0.0, x_star=np.zeros(n))


def simplex_linear_problem(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 1.0, size=n)
    return ProblemInstance(
        FunctionOracle(lambda x, c=c: float(c @ x), lambda x, c=c: c.copy()),
        FeasibleSet.simplex(n), f_star=float(c.min()),
        meta={"c": c}), float(np.abs(c).max())


def toy_lp_phi(problem):
    """Closed-form min over the box [-1,1]^n of f + <lambda, g>."""
    A, b, c = problem.meta["A"], problem.meta["b"], problem.meta["c"]

    def phi(lam):
        return float(lam @ b - np.abs(c + A.T @ lam).sum())
    return phi


def test_criterion_01_constant_step_length_distance(capsys):
    with verdict(capsys, 1, "constant step-length distance bound"):
        lam, eps_rel, N = 0.3, 0.1, 10**4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 101))
            prob = l2_norm_problem(n)
            x0 = rng.standard_normal(n)
            x0 *= 3.0 / np.linalg.norm(x0)
            rep = run_shor(prob, x0, lam=lam, N=N)
            assert rep.min_dist <= lam * (1.0 + eps_rel) / 2.0


def test_criterion_02_fixed_step_md_bounds(capsys):
    with verdict(capsys, 2, "fixed-step MD averaged-value bounds"):
        N = 400
        # Euclidean setup: f(x) = ||x - t||_2 on all space, M = 1
        for seed in range(20):
            rng = np.random.default_rng(seed)
            t = rng.standard_normal(5)

            def val(x, t=t):
                return float(np.linalg.norm(x - t))

            def grad(x, t=t):
                r = x - t
                nrm = np.linalg.norm(r)
                return r / nrm if nrm > 0 else np.zeros_like(r)

            prob = ProblemInstance(FunctionOracle(val, grad),
                                   FeasibleSet.all_space(5), f_star=0.0,
                                   x_star=t)
            setup = euclidean_setup(prob.set)
            R = float(np.linalg.norm(t))
            rep = run_fixed_md(prob, setup, R=R, M=1.0, N=N)
            assert rep.f_out - prob.f_star <= R / math.sqrt(N) + 1e-12
        # general (entropy) setup: linear objective on the simplex
        for seed in range(20):
            prob, m_inf = simplex_linear_problem(20, seed)
            R = math.sqrt(math.log(20))
            rep = run_fixed_md(prob, entropy_setup(20), R=R, M=m_inf, N=N)
            bound = math.sqrt(2.0) * m_inf * R / math.sqrt(N)
            assert rep.f_out - prob.f_star <= bound + 1e-12
        # hand-worked 1-d case: |x| from x0 = 1 with h = 1/2 gives the
        # iterates 1, 1/2, 0, 0 and the exact average 0.375
        prob = ProblemInstance(
            FunctionOracle(lambda x: float(np.abs(x).sum()), np.sign),
            FeasibleSet.all_space(1), f_star=0.0, x_star=np.zeros(1))
        setup = euclidean_setup(prob.set, origin=np.array([1.0]))
        rep = run_fixed_md(prob, setup, R=1.0, M=1.0, N=4)
        assert rep.f_out == 0.375


def test_criterion_03_entropy_simplex_md(capsys):
    with verdict(capsys, 3, "entropy MD on the unit simplex"):
        N = 10**4
        for n in (2, 10, 1000):
            for seed in range(5):
                prob, m_inf = simplex_linear_problem(n, seed)
                rep = run_fixed_md(prob, entropy_setup(n),
                                   R=math.sqrt(math.log(n)), M=m_inf, N=N)
                bound = m_inf * math.sqrt(2.0 * math.log(n) / N)
                assert rep.f_out - prob.f_star <= bound + 1e-12


def test_criterion_04_strongly_convex_md(capsys):
    with verdict(capsys, 4, "strongly convex MD weighted-average bound"):
        N = 999
        for seed in range(20):
            prob, _ = PROBLEMS["quadratic_box"]({"dim": 5}, seed)
            setup = euclidean_setup(prob.set)
            rep = run_strongly_convex_md(prob, setup, mu=1.0, N=N)
            M = rep.extras["M_observed"]
            assert rep.f_out - prob.f_star <= \
                2.0 * M * M / (1.0 * (N + 1)) + 1e-12


def test_criterion_05_switching_md_toy_lps(capsys):
    with verdict(capsys, 5, "switching MD guarantees on toy LPs"):
        for eps in (0.1, 0.01):
            for seed in range(20):
                prob, _ = PROBLEMS["toy_lp"]({"dim": 2, "pieces": 2}, seed)
                setup = _make_setup(prob, {})
                rep = solve_constrained_nonsmooth(prob, setup, eps=eps)
                cert = certify(prob, rep, toy_lp_phi(prob))
                assert rep.iterations <= rep.iteration_bound
                assert rep.f_out - prob.f_star <= eps + 1e-9
                assert rep.g_bar <= eps + 1e-9
                assert cert.duality_gap <= eps + 1e-9


def quad_constrained_1d():
    return ProblemInstance(
        objective=FunctionOracle(lambda x: float(x @ x), lambda x: 2.0 * x),
        set=FeasibleSet.box(np.array([-2.0]), np.array([2.0])),
        constraints=ConstraintBundle([LinearOracle(np.array([1.0]), -1.0),
                                      LinearOracle(np.array([-1.0]), -1.0)]),
        lipschitz_g=1.0, f_star=0.0, x_star=np.zeros(1))


def quad_constrained_2d():
    pieces = []
    for j in range(2):
        for s in (1.0, -1.0):
            a = np.zeros(2)
            a[j] = s
            pieces.append(LinearOracle(a, -1.0))
    return ProblemInstance(
        objective=FunctionOracle(lambda x: float(x @ x), lambda x: 2.0 * x),
        set=FeasibleSet.box(np.full(2, -2.0), np.full(2, 2.0)),
        constraints=ConstraintBundle(pieces),
        lipschitz_g=1.0, f_star=0.0, x_star=np.zeros(2))


def test_criterion_06_switching_md_general_objective(capsys):
    with verdict(capsys, 6, "general-objective switching MD merit bound"):
        cases = [(quad_constrained_1d(), np.array([2.0]), 2.0),
                 (quad_constrained_2d(), np.array([2.0, 2.0]), 4.0)]
        for prob, origin, theta0_sq in cases:
            for eps in (0.1, 0.05):
                setup = euclidean_setup(prob.set, origin=origin,
                                        theta0_sq=theta0_sq)
                rep = solve_constrained_general(prob, setup, eps=eps)
                assert rep.extras["min_vf"] <= eps + 1e-9
                assert rep.g_bar <= eps + 1e-9
                assert rep.iterations <= rep.iteration_bound


def test_criterion_07_inexact_oracle_gap(capsys):
    with verdict(capsys, 7, "delta-subgradient accuracy degradation"):
        eps = 0.1
        delta = eps / 2.0
        for seed in range(20):
            prob, _ = PROBLEMS["toy_lp"]({"dim": 2, "pieces": 2}, seed)
            exact = prob.objective
            prob.objective = InexactOracle(exact, delta,
                                           lipschitz=prob.lipschitz_f,
                                           seed=seed)
            setup = _make_setup(prob, {})
            rep = solve_constrained_nonsmooth(prob, setup, eps=eps)
            f_bar_exact = exact(rep.x_out).value
            assert f_bar_exact - prob.f_star <= eps + delta + 1e-9


def diag_quadratic(seed, n=6):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, size=n)
    t = 0.5 * rng.standard_normal(n)
    return ProblemInstance(
        FunctionOracle(lambda x: 0.5 * float(a @ ((x - t) ** 2)),
                       lambda x: a * (x - t)),
        FeasibleSet.all_space(n), f_star=0.0, x_star=t,
        meta={"holder": (1.0, float(a.max()))}), float(a.max())


def test_criterion_08_agm_per_iteration_bound(capsys):
    with verdict(capsys, 8, "accelerated gradient per-iteration bound"):
        for seed in range(20):
            prob, L = diag_quadratic(seed)
            setup = euclidean_setup(prob.set)
            rep = agm_solve(prob, setup, L=L, N=150)
            v0 = setup.bregman(setup.prox_center(), prob.x_star)
            for row in rep.trace:
                bound = 4.0 * L * v0 / (row.k + 1) ** 2
                assert row.f_value - prob.f_star <= bound + 1e-12
                assert row.bound_value == pytest.approx(bound)


def test_criterion_09_smoothing(capsys):
    with verdict(capsys, 9, "smoothed max-residual gradient and rate"):
        rng = np.random.default_rng(9)
        m, n, N = 8, 16, 1000
        A = rng.standard_normal((m, n))
        b = A @ rng.uniform(-0.5, 0.5, size=n)
        # finite-difference agreement of the smoothed gradient
        oracle = SmoothedMaxResidual(A, b, mu=0.05)
        h = 1e-7
        for _ in range(50):
            x = rng.uniform(-1, 1, size=n)
            g = oracle(x).subgradient
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (oracle(x + e).value - oracle(x - e).value) / (2 * h)
                assert abs(fd - g[j]) / max(1.0, abs(g[j])) <= 1e-6
        # end-to-end accuracy with the prescribed smoothing level
        cost = np.concatenate([np.zeros(n), [1.0]])
        A_ub = np.vstack([np.hstack([A, -np.ones((m, 1))]),
                          np.hstack([-A, -np.ones((m, 1))])])
        res = linprog(cost, A_ub=A_ub, b_ub=np.concatenate([b, -b]),
                      bounds=[(-1.0, 1.0)] * n + [(None, None)],
                      method="highs")
        assert res.success
        D1 = 0.5 * n
        D2 = math.log(2 * m)
        a_norm = float(np.max(np.linalg.norm(A, axis=1)))
        mu = choose_mu(a_norm, D1, D2, N)
        smoothed = SmoothedMaxResidual(A, b, mu)
        prob = ProblemInstance(
            smoothed, FeasibleSet.box(np.full(n, -1.0), np.full(n, 1.0)))
        rep = agm_solve(prob, euclidean_setup(prob.set), L=smoothed.l_mu, N=N)
        err = smoothed.unsmoothed_value(rep.x_out) - float(res.fun)
        assert err <= 4.0 * a_norm * math.sqrt(D1 * D2) / (N + 1) + 1e-9


def decay_phase(ks, errs):
    """Rows of the running minimum up to its last strict improvement."""
    rm = np.minimum.accumulate(errs)
    improved = np.flatnonzero(np.diff(rm, prepend=np.inf) < 0)
    last = improved[-1]
    return ks[:last + 1], rm[:last + 1]


def test_criterion_10_universal_agm(capsys):
    with verdict(capsys, 10, "universal AGM rates and call budget"):
        # smooth instance (Lipschitz gradient)
        rng = np.random.default_rng(0)
        n = 30
        a = np.geomspace(1e-3, 1.0, n)
        t = rng.standard_normal(n)
        prob = ProblemInstance(
            FunctionOracle(lambda x: 0.5 * float(a @ ((x - t) ** 2)),
                           lambda x: a * (x - t)),
            FeasibleSet.all_space(n), f_star=0.0, x_star=t,
            meta={"holder": (1.0, 1.0)})
        setup = euclidean_setup(prob.set)
        eps, N = 1e-10, 200
        rep = universal_agm(prob, setup, eps=eps, L0=1.0, N=N)
        v0 = setup.bregman(setup.prox_center(), t)
        ks = rep.trace.column("k")
        errs = rep.trace.column("f_value") - prob.f_star
        for k, err in zip(ks, errs):
            assert err <= universal_conv_bound(1.0, l_nu=1.0, eps=eps,
                                             k=int(k), v0=v0) \
                + 1e-12
        assert rep.oracle_calls <= universal_call_bound(
            1.0, l_nu=1.0, eps=eps, k=N, v0=v0)
        mask = errs > 1e-13
        assert mask.sum() >= 10
        assert fit_rate(ks[mask], errs[mask]) <= -1.8
        # non-smooth instance (bounded subgradient variation)
        rng = np.random.default_rng(1)
        n = 10
        w = rng.uniform(0.5, 2.0, size=n)
        prob = ProblemInstance(
            FunctionOracle(lambda x: float(w @ np.abs(x)),
                           lambda x: w * np.sign(x)),
            FeasibleSet.all_space(n), f_star=0.0, x_star=np.zeros(n),
            meta={"holder": (0.0, 2.0 * float(np.linalg.norm(w)))})
        x0 = rng.standard_normal(n)
        setup = euclidean_setup(prob.set, origin=x0)
        eps, N = 1e-3, 400
        l0 = 2.0 * float(np.linalg.norm(w))
        rep = universal_agm(prob, setup, eps=eps, L0=1.0, N=N)
        v0 = 0.5 * float(x0 @ x0)
        ks = rep.trace.column("k")
        errs = rep.trace.column("f_value") - prob.f_star
        for k, err in zip(ks, errs):
            assert err <= universal_conv_bound(0.0, l_nu=l0, eps=eps,
                                             k=int(k), v0=v0) \
                + 1e-12
        assert rep.oracle_calls <= universal_call_bound(
            0.0, l_nu=l0, eps=eps, k=N, v0=v0)
        dk, derr = decay_phase(ks, errs)
        assert len(dk) >= 10
        assert fit_rate(dk, derr) <= -0.4


def game_gap_fn(op):
    def gap(w):
        x_hat, u_hat = op.domain.split(w)
        return saddle_gap(op, x_hat, u_hat)
    return gap


def bilinear_box_operator():
    from mirropt.geometry import ProductSetup
    from mirropt.oracles import SaddleOperator
    box = FeasibleSet.box(np.array([-1.0]), np.array([1.0]))
    domain = ProductSetup(euclidean_setup(box), euclidean_setup(box))
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return SaddleOperator(phi=lambda z: G @ z, domain=domain, lipschitz=1.0,
                          holder_nu=1.0, holder_l=1.0, linear_part=G,
                          affine_part=np.zeros(2),
                          meta={"A": np.array([[1.0]]), "value": 0.0})


def test_criterion_11_mirror_prox(capsys):
    with verdict(capsys, 11, "extragradient certified-gap bound"):
        N = 10**4
        # Euclidean setup
        op = bilinear_box_operator()
        rep = mirror_prox_solve(op, op.domain, L=op.lipschitz, N=N,
                                gap_fn=game_gap_fn(op))
        assert rep.iterations == N
        for row in rep.trace:
            assert row.f_value <= row.bound_value + 1e-9
        # entropy setup
        op = gen_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = mirror_prox_solve(op, op.domain, L=op.lipschitz, N=N,
                                gap_fn=game_gap_fn(op))
        for row in rep.trace:
            assert row.f_value <= row.bound_value + 1e-9


def test_criterion_12_universal_mirror_prox(capsys):
    with verdict(capsys, 12, "adaptive extragradient constants and calls"):
        eps = 0.001
        # max|A| != 1 on the game, so the Hoelder constant and exponent of
        # the rate bound cannot be swapped unnoticed
        A = 3.0 * np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 4))
        cases = [(bilinear_box_operator(), 4.0),
                 (gen_matrix_game(A, "euclidean"), 1.0)]
        for op, m_init in cases:
            rep = universal_mirror_prox_solve(op, op.domain, eps=eps,
                                              M_init=m_init, N=5000,
                                              gap_fn=game_gap_fn(op))
            assert max(rep.m_ks) <= 2.0 * op.holder_l + 1e-12
            for row in rep.trace:
                assert row.f_value <= row.bound_value + 1e-9
                rate = ump_rate_bound(op.holder_nu, l_nu=op.holder_l, eps=eps,
                                      k=row.k, max_v=rep.extras["max_v"])
                assert row.f_value <= rate + 1e-9
            # the line search doubles from half the previous constant, so
            # with t_k trials M_k = 2^{t_k - 2} M_{k-1} and the trial total
            # telescopes
            assert rep.oracle_calls == 2 * sum(rep.inner_trials)
            assert sum(rep.inner_trials) == pytest.approx(
                2 * rep.iterations + math.log2(rep.m_ks[-1] / m_init))


def test_criterion_13_sparse_max_structure(capsys):
    with verdict(capsys, 13, "sparse max oracle equivalence"):
        m, n, updates = 32, 24, 10**4    # 10 instances x 1e4 = 1e5 updates
        cap = math.ceil(math.log2(m)) + 1
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = []
            for _ in range(m):
                k = int(rng.integers(1, 6))
                idx = np.sort(rng.choice(n, size=k, replace=False))
                rows.append((idx, rng.standard_normal(k)))
            s = MaxStructure(rows, rng.standard_normal(n))
            ks = rng.integers(1, 4, size=updates)
            order = rng.random((updates, n)).argsort(axis=1)
            vals = rng.standard_normal((updates, 3))
            for u in range(updates):
                k = int(ks[u])
                delta = SparseVector(np.sort(order[u, :k]), vals[u, :k])
                affected = len({i for j in delta.indices
                                for i in s.col_rows(j)})
                value, argmax, touched = s.apply_sparse_update(delta)
                bv, ba = s.brute_force()
                assert value == bv       # exact, no tolerance
                assert argmax == ba
                assert touched <= affected * cap


def test_criterion_14_ttd_pipeline(capsys):
    with verdict(capsys, 14, "truss dual-to-primal reconstruction"):
        eps, T = 0.02, 3.0
        for seed in (0, 1):
            # all candidate bars and a box strictly containing the bar
            # polytope, so the box multipliers vanish at the optimum
            prob = gen_ttd_dual(5, 50, seed=seed, box_half_width=7.0)
            theta0_sq = 0.5 * float(prob.x_star @ prob.x_star) + 1.0
            setup = euclidean_setup(prob.set, theta0_sq=theta0_sq)
            rep = solve_constrained_nonsmooth(prob, setup, eps=eps)
            lam = ttd_multipliers_from_dual(prob, rep.lambda_bar)
            rec = reconstruct_ttd_primal(prob, lam, rep.x_out, T=T)
            assert rec.w.sum() == T      # exact, no tolerance
            assert rec.residual_inf <= 10.0 * eps


def test_criterion_15_determinism(capsys, tmp_path):
    with verdict(capsys, 15, "bit-identical experiment re-runs"):
        configs = [
            {"seed": 7, "problem": {"generator": "abs_value", "dim": 1},
             "setup": {"origin": [1.0]},
             "method": {"name": "fixed_md", "R": 1.0, "M": 1.0, "N": 50}},
            {"seed": 3, "problem": {"generator": "matrix_game",
                                    "rows": 3, "cols": 3},
             "method": {"name": "mirror_prox", "N": 200}},
            {"seed": 11, "problem": {"generator": "toy_lp", "dim": 2,
                                     "pieces": 2},
             "method": {"name": "constrained_nonsmooth", "eps": 0.1}},
        ]
        for i, cfg in enumerate(configs):
            d1 = tmp_path / f"a{i}"
            d2 = tmp_path / f"b{i}"
            d1.mkdir()
            d2.mkdir()
            code1, s1 = run_experiment(cfg, out_dir=d1)
            code2, s2 = run_experiment(cfg, out_dir=d2)
            assert code1 == 0 and code2 == 0
            assert s1["trace_sha256"] == s2["trace_sha256"]
            t1 = (d1 / "experiment_trace.csv").read_text()
            t2 = (d2 / "experiment_trace.csv").read_text()
            strip = lambda text: [
                ",".join(v for j, v in enumerate(line.split(","))
                         if j != 6)
                for line in text.splitlines()]
            assert strip(t1) == strip(t2)
            j1 = json.loads((d1 / "experiment_summary.json").read_text())
            j2 = json.loads((d2 / "experiment_summary.json").read_text())
            j1.pop("elapsed_ns", None)
            j2.pop("elapsed_ns", None)
            assert j1 == j2
