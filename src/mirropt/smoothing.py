"""Accelerated gradient method, smoothing of max-type objectives, and the
universal (parameter-free) accelerated method with backtracking.  Both
accelerated methods run one loop; AGM is its one-trial case M_k = L."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .geometry import _check_dim
from .oracles import OracleResponse, require_positive
from .report import Recorder


def alpha_root(C_k, M):
    """Largest root of M*a^2 - a - C_k = 0 via the stable quadratic formula."""
    if M <= 0:
        raise ValueError("M must be positive")
    if C_k < 0:
        raise ValueError("C_k must be nonnegative")
    return (1.0 + math.sqrt(1.0 + 4.0 * M * C_k)) / (2.0 * M)


def _accelerated(method, problem, setup, N, L, eps=None, bound=None):
    """The accelerated gradient loop of both methods.

    Trial i of iteration k uses M = L_k 2^(i-1).  With ``eps`` None, L_k = L
    is a known Lipschitz constant and the one trial is accepted unchecked.
    Otherwise L_1 = L, a trial is accepted once the inexact descent condition
    with slack alpha*eps/(2C) holds (M doubles until it would overflow) and
    L_{k+1} = max(M_k / 2, L_min); on a compact set the run stops once
    D / C_k <= eps/2, with D = max_y V[x^0](y) (Nesterov 2015).  As
    C_{k+1} = M alpha^2, sqrt(C_{k+1}) - sqrt(C_k) <= 1/sqrt(M): with
    L_min = (N+1)^2 2^-1000 the iterations after the first add less than
    2^500 to sqrt(C), so C and alpha stay far from overflow (2^1024) even
    where f is flat on all space and M_k / 2 alone would halve toward 0.
    ``bound(v0, k)`` gives row k's guarantee when x_star is known, else
    D / C_k + eps/2 does if D is known; with a known f* each row with a
    finite bound is a check of f(y_k) - f*.
    """
    rec = Recorder(method, problem.f_star)
    f = rec.count(problem.objective)
    x0 = y = setup.prox_center()
    # the run's n-vectors, written in place; tmp is p, then y_try - x
    z = y.copy()
    x, y_try, z_try, cy, tmp = (np.empty_like(y) for _ in range(5))
    C = 0.0
    inner_trials = []
    v0 = None if problem.x_star is None else setup.bregman(x0, problem.x_star)
    D = None if eps is None or setup.set.kind == "all" \
        else setup.max_bregman_from(x0)
    stopped = False
    L_min = (N + 1) ** 2 * 2.0 ** -1000
    for k in range(1, N + 1):
        np.multiply(y, C, out=cy)   # C y, the same for every trial
        M, i = L, 1
        while True:
            alpha = alpha_root(C, M)
            C_next = C + alpha
            np.multiply(z, alpha, out=x)   # x = (alpha z + C y) / C_next
            x += cy
            x /= C_next
            rx = f(x)
            rec.finite(rx.value)
            np.multiply(_check_dim(tmp.size, rx.subgradient), alpha, out=tmp)
            setup.mirror_step(z, tmp, out=z_try)
            np.multiply(z_try, alpha, out=y_try)
            y_try += cy
            y_try /= C_next
            fy = rec.finite(f(y_try).value)
            if eps is None:
                break
            np.subtract(y_try, x, out=tmp)
            if fy <= rx.value + float(rx.subgradient @ tmp) \
                    + 0.5 * M * setup.norm(tmp) ** 2 \
                    + alpha * eps / (2.0 * C_next):
                break
            M, i = 2.0 * M, i + 1
            if M == math.inf:
                raise RuntimeError("backtracking failed to terminate; "
                                   "oracle likely inconsistent")
        z, z_try, y, y_try, C = z_try, z, y_try, y, C_next
        if eps is not None:
            L = max(M / 2.0, L_min)
        inner_trials.append(i)
        stopped = D is not None and D / C <= eps / 2.0
        b_k = bound(v0, k) if v0 is not None and bound is not None \
            else math.nan if D is None else D / C + eps / 2.0
        rec.row(k, fy, step=alpha, M_k=M, bound_value=b_k)
        if rec.f_star is not None and math.isfinite(b_k):
            rec.checks.append((k, rec.gap(fy), b_k))
        if stopped:
            break
    return rec.report(y, fy if N else f(y).value, inner_trials=inner_trials,
                      extras={"V0": v0, "C": C, "stopped_adaptive": stopped})


def agm_solve(problem, setup, L, N):
    """Accelerated gradient method with a known Lipschitz constant.

    Guarantee: f(y^k) - f* <= 4 L V[z^0](x*) / (k+1)^2 for all k.
    """
    require_positive(N, L=L)

    def bound(v0, k):
        return 4.0 * L * v0 / (k + 1) ** 2
    rep = _accelerated("agm", problem, setup, N, L, bound=bound)
    v0 = rep.extras["V0"]
    rep.bound = None if v0 is None else bound(v0, N)
    return rep


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
        r = self.residual(x)
        return self._inner_argmax(np.concatenate([r, -r]) / self.mu)

    def _inner_argmax(self, stacked):
        """u_mu from the doubled residual [r, -r] / mu, which it overwrites."""
        stacked -= stacked.max()
        v = np.exp(stacked)
        v /= v.sum()
        return v[:self.m] - v[self.m:]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r = self.residual(x)
        stacked = np.concatenate([r, -r]) / self.mu
        value = self.mu * (float(logsumexp(stacked)) - np.log(2 * self.m))
        grad = self.A.T @ self._inner_argmax(stacked)
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


def universal_agm(problem, setup, eps, L0, N):
    """Universal accelerated gradient method with doubling backtracking
    from L_1 = L0 (see ``_accelerated``)."""
    require_positive(N, eps=eps, L0=L0)
    holder = (problem.meta or {}).get("holder")

    def bound(v0, k):
        nu, l_nu = holder
        return universal_conv_bound(nu, l_nu=l_nu, eps=eps, k=k, v0=v0)
    return _accelerated("universal_agm", problem, setup, N, L0, eps,
                        None if holder is None else bound)
