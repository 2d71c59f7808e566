"""Mirror Prox (extragradient) and its universal, adaptive variant for
monotone VIs and saddle points, with gap certificates for affine operators.
Both run one loop; Mirror Prox is its one-trial case M_k = L."""

from __future__ import annotations

import math

import numpy as np

from .oracles import Counted, require_positive
from .report import Report, RunTrace, TraceRow

MAX_INNER_TRIALS = 64


def _mirror_prox(method, op, setup, N, L, eps=None):
    """The extragradient loop of both methods.

    Iteration k calls Phi(z) once and Phi(w) once per trial; trial i uses
    M = L_k 2^(i-1).  With ``eps`` None, L_k = L is the operator's Lipschitz
    constant: one trial accepted unchecked, the w-points averaged with
    weight 1 and row bound L D / k.  Otherwise L_1 = L, a trial is accepted
    once the smoothed Lipschitz check holds with slack eps/2 (at most
    MAX_INNER_TRIALS + 1 trials), L_{k+1} = M_k / 2, the weights are 1/M_k,
    the row bound is D / sum_i 1/M_i + eps/2, and the run stops once
    D / sum_i 1/M_i <= eps/2.  Here D = max_z V[z^0](z).  Each row's gap is
    certified by ``saddle_gap`` from the running weighted average of Phi(w),
    the last row's from one uncounted Phi(w_hat); nan if Phi is not affine.
    A non-finite gap (affine Phi) or left side of the Lipschitz check raises.
    """
    phi = Counted(op)
    z = setup.prox_center()
    d_max = setup.max_bregman_from(z)
    weighted = np.zeros_like(z)
    phi_weighted = np.zeros_like(z)
    wsum = 0.0
    trace = RunTrace()
    inner_trials = []
    stopped = False
    k = 0
    for k in range(1, N + 1):
        phi_z = phi(z)
        for i in range(1, (1 if eps is None else MAX_INNER_TRIALS + 1) + 1):
            M = L * 2.0 ** (i - 1)
            w = setup.mirror_step(z, phi_z / M)
            phi_w = phi(w)
            z_next = setup.mirror_step(z, phi_w / M)
            if eps is None:
                break
            lhs = float((phi_w - phi_z) @ (w - z_next))
            if not math.isfinite(lhs):
                raise RuntimeError("non-finite objective value")
            if lhs <= 0.5 * M * (setup.norm(w - z) ** 2
                                 + setup.norm(w - z_next) ** 2) + eps / 2.0:
                break
        else:
            raise RuntimeError("inner doubling exceeded the cap; operator "
                               "likely non-Hoelder or oracle inconsistent")
        z = z_next
        inner_trials.append(i)
        weight = 1.0 if eps is None else M
        weighted += w / weight
        phi_weighted += phi_w / weight
        wsum += 1.0 / weight
        if eps is None:
            bound = L * d_max / wsum
        else:
            L = M / 2.0
            stopped = d_max / wsum <= eps / 2.0
            bound = d_max / wsum + eps / 2.0
        gap = math.nan if op.linear_part is None else saddle_gap(
            op, weighted / wsum,
            None if stopped or k == N else phi_weighted / wsum)
        if not (op.linear_part is None or math.isfinite(gap)):
            raise RuntimeError("non-finite objective value")
        trace.append(TraceRow(k, gap, step=1.0 / M, M_k=M,
                              oracle_calls=phi.calls, bound_value=bound))
        if stopped:
            break
    return Report(method=method, x_out=weighted / wsum if wsum > 0 else z,
                  f_out=gap if k else math.nan, iterations=k,
                  oracle_calls=phi.calls, trace=trace,
                  inner_trials=inner_trials,
                  extras={"max_v": d_max, "z_last": z,
                          "stopped_adaptive": stopped, "weight_sum": wsum})


def mirror_prox_solve(op, setup, L, N):
    """Fixed-constant Mirror Prox, step 1/L and uniform averaging.

    The average w_hat of the w-points satisfies
    max_z <Phi(z), w_hat - z> <= (L/k) max_z V[z^0](z).
    """
    require_positive(N, L=L)
    return _mirror_prox("mirror_prox", op, setup, N, L)


def universal_mirror_prox_solve(op, setup, eps, M_init, N):
    """Universal Mirror Prox: the first trial of iteration k uses M_{k-1}/2,
    from M_0 = M_init, so ``oracle_calls`` = k + sum of the trials
    = 3k + log2(M_k / M_init)."""
    require_positive(N, eps=eps, M_init=M_init)
    rep = _mirror_prox("universal_mirror_prox", op, setup, N, M_init / 2.0,
                       eps)
    rep.extras["M_init"] = M_init
    return rep


def ump_rate_bound(nu, *, l_nu, eps, k, max_v):
    """Residual guarantee of Universal Mirror Prox for a Hoelder operator."""
    if k < 1:
        return float("inf")
    return (2.0 * l_nu) ** (2.0 / (1 + nu)) / (k * eps ** ((1 - nu) / (1 + nu))) \
        * max_v + eps / 2.0


def saddle_gap(op, w_hat, phi_hat=None):
    """Exact max_z <Phi(z), w_hat - z> for affine Phi(z) = G z + c, G skew.

    <G z, z> vanishes, so the maximand <z, -Phi(w_hat)> + <c, w_hat> is
    linear in z and the block-wise closed-form maximum is exact; for a
    bilinear game it is max_u f(x_hat, u) - min_x f(x, u_hat).  The solvers
    pass ``phi_hat``, the average of the Phi(w) they computed, which equals
    Phi(w_hat) for affine Phi.  Without it G is checked for skewness and
    Phi(w_hat) costs one operator call.
    """
    G = op.linear_part
    if G is None:
        raise ValueError("gap certificate needs an affine operator")
    w_hat = np.asarray(w_hat, dtype=float)
    if phi_hat is None:
        # in bands of 64 rows, so no temporary is the size of G
        if not all(np.allclose(G[i:i + 64], -G[:, i:i + 64].T, atol=1e-12)
                   for i in range(0, len(G), 64)):
            raise ValueError("gap certificate requires a skew linear part")
        phi_hat = op(w_hat)
    best = op.domain.max_linear(-phi_hat)
    c = op.affine_part
    return float(best if c is None else best + c @ w_hat)
