"""Mirror Prox (extragradient) and its universal, adaptive variant for
monotone variational inequalities and convex-concave saddle points."""

from __future__ import annotations

import numpy as np

from .report import Report, RunTrace, TraceRow

MAX_INNER_TRIALS = 64


def mirror_prox_solve(op, setup, L, N, gap_fn=None, keep_iterates=False):
    """Fixed-constant Mirror Prox.

    Extragradient steps with step 1/L and uniform averaging of the w-points;
    the averaged point satisfies
    max_z <Phi(z), w_hat - z> <= (L/k) max_z V[z^0](z).
    """
    if L <= 0:
        raise ValueError("L must be positive")
    z = setup.prox_center()
    total = np.zeros_like(z)
    trace = RunTrace()
    iterates = [] if keep_iterates else None
    calls = 0
    max_v = setup.max_bregman_from(z)
    for k in range(N):
        phi_z = op(z)
        calls += 1
        w = setup.mirror_step(z, phi_z / L)
        phi_w = op(w)
        calls += 1
        z = setup.mirror_step(z, phi_w / L)
        total += w
        if keep_iterates:
            iterates.append(w.copy())
        w_hat = total / (k + 1)
        gap = gap_fn(w_hat) if gap_fn is not None else float("nan")
        trace.append(TraceRow(k + 1, gap, step=1.0 / L, M_k=L,
                              oracle_calls=calls,
                              bound_value=L * max_v / (k + 1)))
    w_hat = total / max(N, 1) if N > 0 else z
    f_out = trace.rows[-1].f_value if N > 0 else float("nan")
    return Report(method="mirror_prox", x_out=w_hat, f_out=f_out,
                  iterations=N, oracle_calls=calls, trace=trace, m_ks=[L] * N,
                  extras={"iterates": iterates, "max_v": max_v, "z_last": z})


def universal_mirror_prox_solve(op, setup, eps, M_init, N, gap_fn=None,
                                keep_iterates=False):
    """Universal Mirror Prox with per-iteration doubling of M_k.

    The first inner trial of iteration k uses M = M_{k-1}/2 and doubles until
    the smoothed Lipschitz check holds with slack eps/2.  The output averages
    the w-points with weights 1/M_i; the adaptive stop fires once
    D / sum_i 1/M_i <= eps/2 with D = max_z V[z^0](z).
    """
    if eps <= 0 or M_init <= 0:
        raise ValueError("eps and M_init must be positive")
    z = setup.prox_center()
    d_max = setup.max_bregman_from(z)
    weighted = np.zeros_like(z)
    wsum = 0.0
    trace = RunTrace()
    iterates = [] if keep_iterates else None
    calls = 0
    m_prev = float(M_init)
    m_ks = []
    inner_trials = []
    stopped_adaptive = False
    k = 0
    for k_iter in range(N):
        i_k = 0
        while True:
            M = 2.0 ** (i_k - 1) * m_prev
            phi_z = op(z)
            calls += 1
            w = setup.mirror_step(z, phi_z / M)
            phi_w = op(w)
            calls += 1
            z_next = setup.mirror_step(z, phi_w / M)
            i_k += 1
            lhs = float((phi_w - phi_z) @ (w - z_next))
            rhs = 0.5 * M * (setup.norm(w - z) ** 2 + setup.norm(w - z_next) ** 2) \
                + eps / 2.0
            if lhs <= rhs:
                break
            if i_k > MAX_INNER_TRIALS:
                raise RuntimeError("inner doubling exceeded the cap; operator "
                                   "likely non-Hoelder or oracle inconsistent")
        z = z_next
        m_prev = M
        m_ks.append(M)
        inner_trials.append(i_k)
        weighted += w / M
        wsum += 1.0 / M
        if keep_iterates:
            iterates.append(w.copy())
        k = k_iter + 1
        w_hat = weighted / wsum
        gap = gap_fn(w_hat) if gap_fn is not None else float("nan")
        trace.append(TraceRow(k, gap, step=1.0 / M, M_k=M, oracle_calls=calls,
                              bound_value=d_max / wsum + eps / 2.0))
        if d_max / wsum <= eps / 2.0:
            stopped_adaptive = True
            break
    w_hat = weighted / wsum if wsum > 0 else z
    f_out = trace.rows[-1].f_value if k > 0 else float("nan")
    return Report(method="universal_mirror_prox", x_out=w_hat, f_out=f_out,
                  iterations=k, oracle_calls=calls, trace=trace, m_ks=m_ks,
                  inner_trials=inner_trials,
                  extras={"iterates": iterates, "max_v": d_max,
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
        return float(s.scale * np.max(t))
    if s.kind == "box":
        return float(np.sum(np.maximum(s.lower * t, s.upper * t)))
    if s.kind == "ball":
        return float(t @ s.center + s.radius * np.linalg.norm(t))
    raise ValueError(f"cannot maximize a linear form over '{s.kind}'")


def vi_residual(op, w_hat):
    """Exact max_z <Phi(z), w_hat - z> for affine Phi with skew linear part.

    For skew G the quadratic term <G z, z> vanishes and the maximand is
    linear in z, so the block-wise closed-form maximization over the product
    domain is exact (equivalently, a vertex maximum).
    """
    if op.linear_part is None:
        raise ValueError("residual certificate needs an affine operator")
    G = op.linear_part
    c = op.affine_part if op.affine_part is not None else np.zeros(G.shape[0])
    if not np.allclose(G, -G.T, atol=1e-12):
        raise ValueError("residual certificate requires a skew linear part")
    w_hat = np.asarray(w_hat, dtype=float)
    # <G z + c, w - z> = <z, G^T w - c> + <c, w> for skew G
    coeff = G.T @ w_hat - c
    parts = op.domain.parts
    blocks = op.domain.split(coeff)
    best = sum(_max_linear(p.set, b) for p, b in zip(parts, blocks))
    return float(best + c @ w_hat)


def saddle_gap(op, x_hat, u_hat):
    """max_u f(x_hat, u) - min_x f(x, u_hat) for the bilinear payoff
    f(x, u) = <u, A x>, computed exactly by per-block linear maximization."""
    A = op.meta["A"]
    part_x, part_u = op.domain.parts
    x_hat = np.asarray(x_hat, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    hi = _max_linear(part_u.set, A @ x_hat)
    lo = -_max_linear(part_x.set, -(A.T @ u_hat))     # min over x
    return float(hi - lo)
