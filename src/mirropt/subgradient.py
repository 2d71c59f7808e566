"""Classic subgradient family: Shor's constant step, fixed-step and adaptive
Mirror Descent, and the normalized / strongly convex variants.

All five run one loop, ``_Descent.steps``: x^{k+1} = mirror_step(x^k, p_k)
with M_k = ||g^k||_*.  A method gives its step rule and keeps what it
reports of the iterates (an average, the best one, a distance).  Each run
owns its mutable state; the functions are deterministic for identical
inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import FeasibleSet, _l2, euclidean_setup
from .oracles import require_positive
from .report import Recorder


class _Descent:
    """One run of the loop from ``setup``'s prox center, recorded in rec."""

    def __init__(self, method, problem, setup):
        self.rec = Recorder(method, problem.f_star)
        self.setup = setup
        self.f = self.rec.count(problem.objective)
        self.x = setup.prox_center()
        self.stopped_exact = False
        self.m_max = 0.0        # max_k ||g^k||_* so far

    def steps(self, N, rule, bound_value=math.nan):
        """Yield (k, answer, h_k) of up to N iterations, each before
        its step.  ``rule(k, g, M_k)`` gives h_k for the trace and the step
        vector, or None to stop at an exact optimum.  x^k is ``self.x``, not
        yielded, and each step is written into the array of x^(k-1), so a
        caller that keeps an iterate copies it."""
        spare = np.empty_like(self.x)
        for k in range(N):
            x = self.x
            resp = self.f(x)
            self.rec.finite(resp.value)
            M_k = self.setup.dual_norm(resp.subgradient)
            self.m_max = max(self.m_max, M_k)
            h, p = rule(k, resp.subgradient, M_k)
            self.rec.row(k, resp.value, step=h, M_k=M_k,
                         bound_value=bound_value)
            self.stopped_exact = p is None
            yield k, resp, h
            if p is None:
                return
            self.x, spare = self.setup.mirror_step(x, p, out=spare), x

    def report(self, x_out, f_out=None, **fields):
        """The run's Report; f(x_out) is evaluated unless f_out is given."""
        if f_out is None:
            f_out = self.f(x_out).value
        return self.rec.report(x_out, f_out, stopped_exact=self.stopped_exact,
                               **fields)


def _scaled(step):
    """The rule h_k g^k with h_k = step(k, M_k), written into one array per
    run; None from step stops the run, with h_k inf in the trace."""
    p = None
    def rule(k, g, M_k):
        nonlocal p
        h = step(k, M_k)
        p = None if h is None else np.multiply(h, g, out=p)
        return math.inf if h is None else h, p
    return rule


def _require(N, **values):
    """A method that returns an average or the best iterate needs N >= 1."""
    if N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    require_positive(N, **values)


def _closer(d_min, x, x_star):
    """min(d_min, ||x - x_star||_2), or None without x_star."""
    if x_star is None:
        return None
    d = float(_l2(x - x_star))
    return d if d_min is None else min(d_min, d)


def run_shor(problem, x0, lam, N):
    """Constant-step-length normalized subgradient iteration.

    x^{k+1} = x^k - lam * g^k / ||g^k||_2; a zero subgradient stops the run
    with an exact optimum.  The report carries the min over iterates of the
    distance to x_star when it is known.
    """
    require_positive(N, lam=lam)
    run = _Descent("shor", problem,
                   euclidean_setup(FeasibleSet.all_space(len(x0)), origin=x0))
    min_dist = None

    def rule(k, g, M_k):
        return lam, None if M_k == 0.0 else lam * g / M_k
    for _ in run.steps(N, rule):
        min_dist = _closer(min_dist, run.x, problem.x_star)
    min_dist = _closer(min_dist, run.x, problem.x_star)   # the last x
    return run.report(run.x, min_dist=min_dist)


def run_fixed_md(problem, setup, R, M, N):
    """Fixed-step Mirror Descent with uniform averaging of x^0..x^{N-1}.

    Euclidean setup: h = R/(M sqrt(N)) with guarantee M R / sqrt(N)
    (R = ||x^0 - x_star||).  General setup: h = sqrt(2) R / (M sqrt(N)) with
    guarantee sqrt(2) M R / sqrt(N) (R^2 >= V[x^0](x_star)).  Both assume
    ||g^k||_* <= M: ``checks`` holds (N, max_k ||g^k||_*, M (1 + 1e-12)).
    """
    _require(N, R=R, M=M)
    c = 1.0 if setup.kind == "euclidean" else math.sqrt(2.0)
    h = c * R / (M * math.sqrt(N))
    bound = c * M * R / math.sqrt(N)
    run = _Descent("fixed_md", problem, setup)
    total = np.zeros_like(run.x)
    for _ in run.steps(N, _scaled(lambda k, M_k: h), bound):
        total += run.x
    run.rec.checks.append((N, run.m_max, M * (1 + 1e-12)))
    return run.report(total / N, bound=bound,
                      extras={"h": h, "x_last": run.x})


def run_adaptive_md(problem, setup, eps, N):
    """Adaptive-norm Mirror Descent: h_k = eps / ||g^k||_*^2 with step-weighted
    averaging.  A zero subgradient stops the run at an exact optimum."""
    _require(N, eps=eps)
    run = _Descent("adaptive_md", problem, setup)
    steps = []
    weighted, scratch = np.zeros_like(run.x), np.empty_like(run.x)

    def step(k, M_k):
        if M_k == 0.0:
            return None
        try:        # M_k is a float or, from a scaled norm, a numpy scalar
            with np.errstate(over="raise", divide="raise"):
                h = eps / M_k**2
            if h < math.inf:
                return h
        except ArithmeticError:
            pass
        raise RuntimeError(f"the adaptive step eps/||g||^2 = {eps!r}/"
                           f"{float(M_k)!r}^2 is out of the float range")

    rule = _scaled(step)
    for _, _, h in run.steps(N, rule):
        if run.stopped_exact:
            weighted, steps = run.x.copy(), [1.0]
        else:
            steps.append(h)
            weighted += np.multiply(h, run.x, out=scratch)
    h_sum = float(np.sum(steps))
    r_sq = setup.theta0_sq
    if r_sq is None and problem.x_star is not None:
        r_sq = setup.bregman(setup.prox_center(), problem.x_star)
    return run.report(
        weighted if run.stopped_exact else weighted / h_sum,
        bound=None if (r_sq is None or run.stopped_exact)
        else r_sq / h_sum + eps / 2.0,
        extras={"h_sum": h_sum})


def run_normalized_md(problem, setup, R, N):
    """Normalized-step subgradient method, valid for quasi-convex objectives.

    h_k = R / (||g^k||_2 sqrt(N)); returns the best iterate.  The realized
    bound uses the largest observed normalizer when no Lipschitz constant is
    supplied.
    """
    if setup.kind != "euclidean":
        raise ValueError("normalized method requires the Euclidean setup")
    _require(N, R=R)
    run = _Descent("normalized_md", problem, setup)
    best_x, best_f = None, math.inf
    rule = _scaled(lambda k, M_k: None if M_k == 0.0
                   else R / (M_k * math.sqrt(N)))
    for _, resp, _ in run.steps(N, rule):
        if resp.value < best_f:
            best_f, best_x = resp.value, run.x.copy()
    return run.report(best_x, best_f, bound=run.m_max * R / math.sqrt(N),
                      extras={"M_observed": run.m_max})


def run_strongly_convex_md(problem, setup, mu, N, M=None):
    """Projected subgradient method for mu-strongly convex objectives.

    h_k = 2 / (mu (k+1)), d(x) = 0.5*||x - x^0||_2^2; output is the weighted
    average sum_{k=1..N} 2k/(N(N+1)) x^k with guarantee 2 M^2 / (mu (N+1)).
    A given M is checked as fixed_md's is; else the largest ||g^k||_2 is M.
    """
    if setup.kind != "euclidean":
        raise ValueError("strongly convex variant requires the Euclidean setup")
    _require(N, mu=mu, **({} if M is None else {"M": M}))
    run = _Descent("strongly_convex_md", problem, setup)
    weighted, scratch = np.zeros_like(run.x), np.empty_like(run.x)
    wsum = N * (N + 1) / 2.0
    rule = _scaled(lambda k, M_k: 2.0 / (mu * (k + 1)))
    for k, _, _ in run.steps(N, rule):
        if k:   # x^k, weight 2k/(N(N+1))
            np.multiply(k, run.x, out=scratch)
            weighted += np.divide(scratch, wsum, out=scratch)
    weighted += N * run.x / wsum
    run.rec.checks += [] if M is None else [(N, run.m_max, M * (1 + 1e-12))]
    return run.report(weighted, bound=2.0 * (run.m_max if M is None else M)**2
                      / (mu * (N + 1)), extras={"M_observed": run.m_max})
