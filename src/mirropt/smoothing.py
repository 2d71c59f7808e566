"""Accelerated gradient method, smoothing of max-type objectives, and the
universal (parameter-free) accelerated method with backtracking."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .oracles import OracleResponse
from .report import Report, RunTrace, TraceRow

MAX_BACKTRACKS = 64


def alpha_root(C_k, M):
    """Largest root of M*a^2 - a - C_k = 0 via the stable quadratic formula."""
    if M <= 0:
        raise ValueError("M must be positive")
    if C_k < 0:
        raise ValueError("C_k must be nonnegative")
    return (1.0 + math.sqrt(1.0 + 4.0 * M * C_k)) / (2.0 * M)


def agm_solve(problem, setup, L, N, keep_iterates=False):
    """Accelerated gradient method with a known Lipschitz constant.

    Guarantee: f(y^k) - f* <= 4 L V[z^0](x*) / (k+1)^2 for all k.
    """
    if L <= 0 or N < 0:
        raise ValueError("L must be positive and N >= 0")
    x0 = setup.prox_center()
    y = x0.copy()
    z = x0.copy()
    C = 0.0
    trace = RunTrace()
    iterates = [y.copy()] if keep_iterates else None
    calls = 0
    v0 = None
    if problem.x_star is not None:
        v0 = setup.bregman(x0, problem.x_star)
    for k in range(N):
        alpha = alpha_root(C, L)
        C_next = C + alpha
        x = (alpha * z + C * y) / C_next
        resp = problem.objective(x)
        calls += 1
        z = setup.mirror_step(z, alpha * resp.subgradient)
        y = (alpha * z + C * y) / C_next
        C = C_next
        fy = problem.objective(y).value
        calls += 1
        bound = float("nan") if v0 is None else 4.0 * L * v0 / (k + 2) ** 2
        trace.append(TraceRow(k + 1, fy, step=alpha, M_k=L,
                              oracle_calls=calls, bound_value=bound))
        if keep_iterates:
            iterates.append(y.copy())
    f_out = problem.objective(y).value if N == 0 else trace.rows[-1].f_value
    if N == 0:
        calls += 1
    return Report(
        method="agm", x_out=y, f_out=f_out, iterations=N, oracle_calls=calls,
        trace=trace,
        bound=None if v0 is None else 4.0 * L * v0 / (N + 1) ** 2,
        gap=None if problem.f_star is None else f_out - problem.f_star,
        extras={"iterates": iterates, "V0": v0, "C": C},
    )


class SmoothedMaxResidual:
    """Smoothed counterpart of f(x) = h(x) + ||A x - b||_inf.

    The inner max over the l1-ball is taken over its doubled-simplex encoding
    with the entropy prox, which gives the log-sum-exp closed form; the
    reported gradient is grad h + A^T u_mu(x).
    """

    def __init__(self, A, b, mu, h_oracle=None, L_h=0.0):
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.mu = float(mu)
        self.h_oracle = h_oracle
        self.L_h = float(L_h)
        self.m, self.n = self.A.shape
        # operator norm for ||.||_2 on x and ||.||_1 on u
        self.a_norm = float(np.max(np.linalg.norm(self.A, axis=1))) if self.A.size else 0.0
        self.d2_max = float(np.log(2 * self.m))
        self.l_mu = self.L_h + self.a_norm**2 / self.mu

    def residual(self, x):
        return self.A @ np.asarray(x, dtype=float) - self.b

    def unsmoothed_value(self, x):
        r = self.residual(x)
        v = float(np.abs(r).max()) if r.size else 0.0
        if self.h_oracle is not None:
            v += self.h_oracle(x).value
        return v

    def inner_argmax(self, x):
        """u_mu(x) in the l1-ball (folded back from the doubled simplex)."""
        return self._inner_argmax(self.residual(x))

    def _inner_argmax(self, r):
        """u_mu at the point whose residual is ``r``."""
        stacked = np.concatenate([r, -r]) / self.mu
        stacked -= stacked.max()
        v = np.exp(stacked)
        v /= v.sum()
        return v[:self.m] - v[self.m:]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = self.residual(x)
        stacked = np.concatenate([r, -r]) / self.mu
        value = self.mu * (float(logsumexp(stacked)) - np.log(2 * self.m))
        u = self._inner_argmax(r)
        grad = self.A.T @ u
        if self.h_oracle is not None:
            hr = self.h_oracle(x)
            value += hr.value
            grad = grad + hr.subgradient
        return OracleResponse(value, grad)


def choose_mu(a_norm, D1, D2, N):
    """Smoothing level 2||A||/(N+1) * sqrt(D1/D2) for an N-iteration budget."""
    if D1 <= 0 or D2 <= 0 or N < 0:
        raise ValueError("D1, D2 must be positive and N >= 0")
    return 2.0 * a_norm / (N + 1) * math.sqrt(D1 / D2)


def universal_conv_bound(nu, *, l_nu, eps, k, v0):
    """Accuracy guarantee of the universal method after k iterations for a
    Hoelder-smooth objective with exponent nu and constant l_nu."""
    if k < 1:
        return float("inf")
    base = (2.0 ** (2 + 4 * nu) * l_nu**2) / (eps ** (1 - nu) * k ** (1 + 3 * nu))
    return base ** (1.0 / (1 + nu)) * v0 + eps / 2.0


def universal_call_bound(nu, *, l_nu, eps, k, v0):
    """Oracle-call budget of the universal method (known nu, l_nu)."""
    arg = (2.0 * v0) ** ((1 - nu) / (1 + 3 * nu)) \
        * (1.0 / eps) ** (3.0 * (1 - nu) / (1 + 3 * nu)) \
        * l_nu ** (4.0 / (1 + 3 * nu))
    return 4.0 * (k + 1) + 2.0 * max(math.log2(arg), 0.0)


def universal_agm(problem, setup, eps, L0, N, keep_iterates=False):
    """Universal accelerated gradient method with doubling backtracking.

    Each outer iteration starts the line search at L_k (first trial M = L_k
    after the initial halving-then-doubling), accepts once the inexact
    descent condition with slack alpha*eps/(2C) holds, and sets
    L_{k+1} = M_k / 2.
    """
    if eps <= 0 or L0 <= 0 or N < 0:
        raise ValueError("eps and L0 must be positive and N >= 0")
    x0 = setup.prox_center()
    y = x0.copy()
    z = x0.copy()
    C = 0.0
    L = float(L0)
    trace = RunTrace()
    iterates = [y.copy()] if keep_iterates else None
    calls = 0
    inner_trials = []
    m_ks = []
    v0 = None
    if problem.x_star is not None:
        v0 = setup.bregman(x0, problem.x_star)
    for k in range(N):
        M = L / 2.0
        trials = 0
        while True:
            M *= 2.0
            trials += 1
            if trials > MAX_BACKTRACKS:
                raise RuntimeError("backtracking failed to terminate; "
                                   "oracle likely inconsistent")
            alpha = alpha_root(C, M)
            C_next = C + alpha
            x = (alpha * z + C * y) / C_next
            rx = problem.objective(x)
            calls += 1
            if not np.isfinite(rx.value):
                raise RuntimeError("non-finite objective during backtracking")
            z_try = setup.mirror_step(z, alpha * rx.subgradient)
            y_try = (alpha * z_try + C * y) / C_next
            fy = problem.objective(y_try).value
            calls += 1
            if not np.isfinite(fy):
                raise RuntimeError("non-finite objective during backtracking")
            lin = rx.value + float(rx.subgradient @ (y_try - x))
            quad = 0.5 * M * setup.norm(y_try - x) ** 2
            if fy <= lin + quad + alpha * eps / (2.0 * C_next):
                break
        z, y, C = z_try, y_try, C_next
        L = M / 2.0
        inner_trials.append(trials)
        m_ks.append(M)
        if keep_iterates:
            iterates.append(y.copy())
        bound = float("nan")
        if v0 is not None and problem.meta and "holder" in (problem.meta or {}):
            nu, l_nu = problem.meta["holder"]
            bound = universal_conv_bound(nu, l_nu=l_nu, eps=eps, k=k + 1,
                                         v0=v0)
        trace.append(TraceRow(k + 1, fy, step=alpha, M_k=M,
                              oracle_calls=calls, bound_value=bound))
    f_out = problem.objective(y).value if N == 0 else trace.rows[-1].f_value
    if N == 0:
        calls += 1
    return Report(
        method="universal_agm", x_out=y, f_out=f_out, iterations=N,
        oracle_calls=calls, trace=trace,
        gap=None if problem.f_star is None else f_out - problem.f_star,
        m_ks=m_ks, inner_trials=inner_trials,
        extras={"iterates": iterates, "V0": v0, "C": C},
    )
