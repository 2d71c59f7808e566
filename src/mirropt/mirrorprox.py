"""Mirror Prox (extragradient) and its universal, adaptive variant for
monotone VIs and saddle points, with gap certificates for affine operators."""

from __future__ import annotations

import numpy as np

from .oracles import Counted
from .report import Report, RunTrace, TraceRow

MAX_INNER_TRIALS = 64


def _row_gap(op, w_hat, phi_hat, last):
    """A trace row's certified gap (nan without a linear part): from the
    running Phi average, or on the last row from one uncounted Phi(w_hat)."""
    if op.linear_part is None:
        return float("nan")
    return saddle_gap(op, w_hat, None if last else phi_hat)


def mirror_prox_solve(op, setup, L, N):
    """Fixed-constant Mirror Prox.

    Extragradient steps with step 1/L and uniform averaging of the w-points;
    the averaged point satisfies
    max_z <Phi(z), w_hat - z> <= (L/k) max_z V[z^0](z), the gap each row's
    f_value certifies by ``saddle_gap`` when ``op.linear_part`` is set.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    phi = Counted(op)
    z = setup.prox_center()
    total = np.zeros_like(z)
    phi_total = np.zeros_like(z)
    trace = RunTrace()
    max_v = setup.max_bregman_from(z)
    for k in range(N):
        w = setup.mirror_step(z, phi(z) / L)
        phi_w = phi(w)
        z = setup.mirror_step(z, phi_w / L)
        total += w
        phi_total += phi_w
        w_hat = total / (k + 1)
        gap = _row_gap(op, w_hat, phi_total / (k + 1), k == N - 1)
        trace.append(TraceRow(k + 1, gap, step=1.0 / L, M_k=L,
                              oracle_calls=phi.calls,
                              bound_value=L * max_v / (k + 1)))
    w_hat = total / N if N > 0 else z
    f_out = trace.rows[-1].f_value if N > 0 else float("nan")
    return Report(method="mirror_prox", x_out=w_hat, f_out=f_out,
                  iterations=N, oracle_calls=phi.calls, trace=trace,
                  extras={"max_v": max_v, "z_last": z})


def universal_mirror_prox_solve(op, setup, eps, M_init, N):
    """Universal Mirror Prox with per-iteration doubling of M_k.

    The first inner trial of iteration k uses M = M_{k-1}/2 and doubles until
    the smoothed Lipschitz check holds with slack eps/2.  Each iteration
    calls Phi(z) once and Phi(w) once per trial, so ``oracle_calls`` is
    k + sum of the trials = 3k + log2(M_k / M_init).  The output averages
    the w-points with weights 1/M_i, and rows are certified as in
    ``mirror_prox_solve``; the adaptive stop fires once
    D / sum_i 1/M_i <= eps/2 with D = max_z V[z^0](z).
    """
    if eps <= 0 or M_init <= 0:
        raise ValueError("eps and M_init must be positive")
    phi = Counted(op)
    z = setup.prox_center()
    d_max = setup.max_bregman_from(z)
    weighted = np.zeros_like(z)
    phi_weighted = np.zeros_like(z)
    wsum = 0.0
    trace = RunTrace()
    m_prev = float(M_init)
    inner_trials = []
    stopped_adaptive = False
    k = 0
    for k in range(1, N + 1):
        phi_z = phi(z)
        for i_k in range(1, MAX_INNER_TRIALS + 2):
            M = 2.0 ** (i_k - 2) * m_prev
            w = setup.mirror_step(z, phi_z / M)
            phi_w = phi(w)
            z_next = setup.mirror_step(z, phi_w / M)
            lhs = float((phi_w - phi_z) @ (w - z_next))
            rhs = 0.5 * M * (setup.norm(w - z) ** 2 + setup.norm(w - z_next) ** 2) \
                + eps / 2.0
            if lhs <= rhs:
                break
        else:
            raise RuntimeError("inner doubling exceeded the cap; operator "
                               "likely non-Hoelder or oracle inconsistent")
        z = z_next
        m_prev = M
        inner_trials.append(i_k)
        weighted += w / M
        phi_weighted += phi_w / M
        wsum += 1.0 / M
        stopped_adaptive = d_max / wsum <= eps / 2.0
        w_hat = weighted / wsum
        gap = _row_gap(op, w_hat, phi_weighted / wsum, stopped_adaptive or k == N)
        trace.append(TraceRow(k, gap, step=1.0 / M, M_k=M,
                              oracle_calls=phi.calls,
                              bound_value=d_max / wsum + eps / 2.0))
        if stopped_adaptive:
            break
    w_hat = weighted / wsum if wsum > 0 else z
    f_out = trace.rows[-1].f_value if k > 0 else float("nan")
    return Report(method="universal_mirror_prox", x_out=w_hat, f_out=f_out,
                  iterations=k, oracle_calls=phi.calls, trace=trace,
                  inner_trials=inner_trials,
                  extras={"max_v": d_max,
                          "stopped_adaptive": stopped_adaptive,
                          "weight_sum": wsum, "M_init": M_init})


def ump_rate_bound(nu, *, l_nu, eps, k, max_v):
    """Residual guarantee of Universal Mirror Prox for a Hoelder operator."""
    if k < 1:
        return float("inf")
    return (2.0 * l_nu) ** (2.0 / (1 + nu)) / (k * eps ** ((1 - nu) / (1 + nu))) \
        * max_v + eps / 2.0


def _max_linear(feasible_set, t):
    """max over the set of <t, z> (closed form per set variant)."""
    t = np.asarray(t, dtype=float)
    s = feasible_set
    if s.kind == "simplex":
        return float(s.scale * t.max())
    if s.kind == "box":
        return float(np.sum(np.maximum(s.lower * t, s.upper * t)))
    if s.kind == "ball":
        return float(t @ s.center + s.radius * np.linalg.norm(t))
    raise ValueError(f"cannot maximize a linear form over '{s.kind}'")


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
    blocks = op.domain.split(-phi_hat)
    best = sum(_max_linear(p.set, b) for p, b in zip(op.domain.parts, blocks))
    c = op.affine_part
    return float(best if c is None else best + c @ w_hat)
