"""Classic subgradient family: Shor's constant step, fixed-step and adaptive
Mirror Descent, and the normalized / strongly convex variants.

Each run owns its mutable state; the functions are deterministic for
identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .oracles import Counted
from .report import Report, RunTrace, TraceRow


def _maybe_dist(x, x_star):
    if x_star is None:
        return None
    return float(np.linalg.norm(x - x_star))


def run_shor(problem, x0, lam, N):
    """Constant-step-length normalized subgradient iteration.

    x^{k+1} = x^k - lam * g^k / ||g^k||_2; a zero subgradient stops the run
    with an exact optimum.  The report carries the min over iterates of the
    distance to x_star when it is known.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    f = Counted(problem.objective)
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


def run_fixed_md(problem, setup, R, M, N):
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
    f = Counted(problem.objective)
    x = setup.prox_center()
    total = np.zeros_like(x)
    trace = RunTrace()
    violations = []
    for k in range(N):
        resp = f(x)
        gd = setup.dual_norm(resp.subgradient)
        if gd > M * (1 + 1e-12):
            violations.append(f"dual norm {gd:.6g} exceeds M={M} at k={k}")
        total += x
        trace.append(TraceRow(k, resp.value, step=h, M_k=gd,
                              oracle_calls=f.calls, bound_value=bound))
        x = setup.mirror_step(x, h * resp.subgradient)
    x_bar = total / N
    f_bar = f(x_bar).value
    return Report(
        method="fixed_md", x_out=x_bar, f_out=f_bar, iterations=N,
        oracle_calls=f.calls, trace=trace, bound=bound, violations=violations,
        gap=None if problem.f_star is None else f_bar - problem.f_star,
        extras={"h": h, "x_last": x},
    )


def run_adaptive_md(problem, setup, eps, N):
    """Adaptive-norm Mirror Descent: h_k = eps / ||g^k||_*^2 with step-weighted
    averaging.  A zero subgradient stops the run at an exact optimum."""
    if eps <= 0 or N < 1:
        raise ValueError("eps must be positive and N >= 1")
    f = Counted(problem.objective)
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


def run_normalized_md(problem, setup, R, N):
    """Normalized-step subgradient method, valid for quasi-convex objectives.

    h_k = R / (||g^k||_2 sqrt(N)); returns the best iterate.  The realized
    bound uses the largest observed normalizer when no Lipschitz constant is
    supplied.
    """
    if setup.kind != "euclidean":
        raise ValueError("normalized method requires the Euclidean setup")
    if R <= 0 or N < 1:
        raise ValueError("R must be positive and N >= 1")
    f = Counted(problem.objective)
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


def run_strongly_convex_md(problem, setup, mu, N, M=None):
    """Projected subgradient method for mu-strongly convex objectives.

    h_k = 2 / (mu (k+1)), d(x) = 0.5*||x - x^0||_2^2; output is the weighted
    average sum_{k=1..N} 2k/(N(N+1)) x^k with guarantee 2 M^2 / (mu (N+1)).
    """
    if setup.kind != "euclidean":
        raise ValueError("strongly convex variant requires the Euclidean setup")
    if mu <= 0 or N < 1:
        raise ValueError("mu must be positive and N >= 1")
    f = Counted(problem.objective)
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
        extras={"M_observed": m_obs},
    )
