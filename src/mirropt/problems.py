"""Generators for the concrete test problems.

All generators are deterministic functions of (sizes, seed).  Known-optimum
metadata is computed by an independent LP oracle (scipy's HiGHS) at
construction time, never from formulas alone.  A matrix game is the
exception: its value and equilibrium come from ``matrix_game_equilibrium``
on request, since Mirror Prox is certified by its saddle gap, which needs
neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .geometry import FeasibleSet, ProductSetup, entropy_setup, euclidean_setup
from .oracles import (LinearMaxBundle, LinearOracle, OracleResponse,
                      ProblemInstance, SaddleOperator)


# ---------------------------------------------------------------------------
# Penalized transportation dual
# ---------------------------------------------------------------------------

class TransportDualOracle:
    """f(u, v) = -<a, u> - <b, v> + V * sum_ij (u_j + v_i - c_ij)_+.

    Exact-penalty form of the transportation LP dual; the penalty subgradient
    contributes exactly V per strictly infeasible cell and 0 on ties.
    """

    def __init__(self, a, b, c, V):
        self.a = np.asarray(a, dtype=float)   # column demands, length n
        self.b = np.asarray(b, dtype=float)   # row supplies, length m
        self.c = np.asarray(c, dtype=float)   # m x n costs
        self.V = float(V)
        self.m, self.n = self.c.shape

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u, v = x[:self.n], x[self.n:]
        slack = u[None, :] + v[:, None] - self.c          # m x n
        pos = np.maximum(slack, 0.0)
        value = -self.a @ u - self.b @ v + self.V * pos.sum()
        active = slack > 0.0                              # tie at zero -> 0
        gu = -self.a + self.V * active.sum(axis=0)
        gv = -self.b + self.V * active.sum(axis=1)
        return OracleResponse(float(value), np.concatenate([gu, gv]))


def _solve_transport_primal(a, b, c):
    """LP oracle: optimal value and dual prices of the balanced instance."""
    m, n = c.shape
    # variables x_ij flattened row-major; rows: column sums a_j, row sums b_i
    A_eq = sp.vstack([sp.kron(np.ones((1, m)), sp.eye_array(n)),
                      sp.kron(sp.eye_array(m), np.ones((1, n)))])
    res = linprog(c.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun), np.asarray(res.eqlin.marginals, dtype=float)


def gen_transport_dual(m, n, seed):
    """Unconstrained penalized dual of a random balanced transportation
    instance with integer data."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 6, size=n).astype(float)
    V = int(a.sum())
    # split the same total over the m rows, keeping every entry >= 1
    if V < m:
        a[0] += m - V
        V = m
    b = rng.multinomial(V - m, np.full(m, 1.0 / m)) + 1.0
    c = rng.integers(0, 10, size=(m, n)).astype(float)

    primal_opt, prices = _solve_transport_primal(a, b, c)
    oracle = TransportDualOracle(a, b, c, V)
    x_star = prices  # (u*, v*): column prices then row prices
    # crude but valid global subgradient bound (each component of g lies in a
    # known interval)
    gu_hi = np.maximum(a, V * m - a)
    gv_hi = np.maximum(b, V * n - b)
    lip = float(np.sqrt(np.sum(gu_hi**2) + np.sum(gv_hi**2)))
    return ProblemInstance(
        objective=oracle,
        set=FeasibleSet.all_space(n + m),
        lipschitz_f=lip,
        f_star=-primal_opt,
        x_star=x_star,
        meta={"a": a, "b": b, "c": c, "V": float(V), "primal_opt": primal_opt},
    )


def transport_dual_lp_optimum(instance):
    """Independent LP evaluation of min f over (u, v) via the epigraph form."""
    o = instance.objective
    m, n = o.m, o.n
    # variables: u (n), v (m), t (m*n); minimize -a u - b v + V sum t
    # subject to u_j + v_i - t_ij <= c_ij, one row per cell, row-major
    cost = np.concatenate([-o.a, -o.b, np.full(m * n, o.V)])
    A_ub = sp.hstack([sp.kron(np.ones((m, 1)), sp.eye_array(n)),
                      sp.kron(sp.eye_array(m), np.ones((n, 1))),
                      -sp.eye_array(m * n)])
    res = linprog(cost, A_ub=A_ub, b_ub=o.c.ravel(), method="highs",
                  bounds=[(None, None)] * (n + m) + [(0, None)] * (m * n))
    if not res.success:
        raise RuntimeError(f"penalized dual LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# Linear programs over a box; the truss topology design dual
# ---------------------------------------------------------------------------

def linear_box_instance(c, A, b, half_width, meta):
    """min <c, x> over [-half_width, half_width]^n subject to
    max_i <a_i, x> + b_i <= 0 (c, A, b float arrays), with f_star and x_star
    from HiGHS.  L_g = sqrt(max_i <a_i, a_i>) has the bits of
    ``np.linalg.norm`` taken row by row, at less cost."""
    lo, hi = np.full(c.size, -half_width), np.full(c.size, half_width)
    res = linprog(c, A_ub=A, b_ub=-b, bounds=list(zip(lo, hi)), method="highs")
    if not res.success:
        raise RuntimeError(f"LP over the box failed: {res.message}")
    return ProblemInstance(
        objective=LinearOracle(c), set=FeasibleSet.box(lo, hi),
        constraints=LinearMaxBundle(A, b),
        lipschitz_f=float(np.linalg.norm(c)),
        lipschitz_g=math.sqrt(max(a @ a for a in A)),
        f_star=float(res.fun), x_star=np.asarray(res.x, dtype=float), meta=meta)


def gen_ttd_dual(nodes, bars, seed, box_half_width=2.0):
    """Dual of a 2D grid truss: maximize <f_bar, y> under |<a_i, y>| <= 1.

    Returned as the minimization of f(y) = -<f_bar, y> with the constraint
    bundle of 2*bars linear pieces.  Node i = 2r + c sits at (r, c), two to
    a grid column; the nodes of the leftmost column are anchored (their
    displacement dofs are removed), so free node i has the dofs 2(i - 2) and
    2(i - 2) + 1.  Every row a_i has at most 4 nonzeros.
    """
    if bars < 1:
        raise ValueError("bars must be >= 1")
    if nodes < 3:
        raise ValueError("need at least one free node")
    rng = np.random.default_rng(seed)
    dim = 2 * (nodes - 2)

    # candidate bars: the pairs p < q at distance <= sqrt(2) with a free
    # endpoint, in order.  Node p's forward neighbours are its column mate
    # p + 1 when p is even and both nodes of the next column; q >= 2 is free.
    cand = [(p, q) for p in range(nodes)
            for q in [p + 1] * (p % 2 == 0) + [p - p % 2 + 2, p - p % 2 + 3]
            if 2 <= q < nodes]
    if bars >= len(cand):
        chosen = list(range(len(cand)))
    else:
        chosen = sorted(rng.choice(len(cand), size=bars, replace=False))

    rows = np.zeros((len(chosen), dim))
    for a, idx in zip(rows, chosen):
        p, q = cand[idx]
        d = np.array([q // 2 - p // 2, q % 2 - p % 2], dtype=float)
        d = d / np.linalg.norm(d)
        if p >= 2:
            a[2 * p - 4:2 * p - 2] = -d
        a[2 * q - 4:2 * q - 2] = d

    # external force at one random free node
    f_bar = np.zeros(dim)
    k = rng.integers(nodes - 2)
    angle = rng.uniform(0, 2 * np.pi)
    f_bar[2 * k] = np.cos(angle)
    f_bar[2 * k + 1] = np.sin(angle)

    return make_ttd_instance(rows, f_bar, box_half_width)


def make_ttd_instance(rows, f_bar, box_half_width=2.0):
    """TTD dual instance from explicit bar rows and force vector."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    f_bar = np.asarray(f_bar, dtype=float)
    return linear_box_instance(
        -f_bar, np.vstack([rows, -rows]), np.full(2 * len(rows), -1.0),
        box_half_width, {"rows": rows, "f_bar": f_bar, "n_bars": len(rows)})


@dataclass
class TtdReconstruction:
    w: np.ndarray
    z: np.ndarray
    residual_inf: float


def reconstruct_ttd_primal(instance, x_star, y_star, T):
    """Primal truss (w, z) from dual multipliers and dual point.

    w = T * x / <e, x>, z = (<e, x> / T) * y; <e, w> = T exactly and the pair
    is invariant to positive scaling of x.  Returns the force-balance residual
    ||A(w) z - f_bar||_inf for certification.
    """
    x_star = np.asarray(x_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    if np.any(x_star < 0):
        raise ValueError("multipliers must be nonnegative")
    total = x_star.sum()
    if total <= 0:
        raise ValueError("all-zero multipliers cannot be normalized")
    w = (T / total) * x_star
    # absorb the last-ulp rounding of the normalization into the largest
    # entry so that <e, w> equals T exactly
    w[int(np.argmax(w))] += T - w.sum()
    z = (total / T) * y_star
    rows = instance.meta["rows"]
    f_bar = instance.meta["f_bar"]
    elong = rows @ z
    force = rows.T @ (w * elong)   # sum_i w_i a_i <a_i, z>
    return TtdReconstruction(w, z, float(np.abs(force - f_bar).max()))


def ttd_multipliers_from_dual(instance, lambda_bar):
    """Fold per-piece multipliers (+a_i rows then -a_i rows) into per-bar
    nonnegative multipliers x_i = lambda_{i,+} + lambda_{i,-}."""
    lam = np.asarray(lambda_bar, dtype=float)
    nb = instance.meta["n_bars"]
    return lam[:nb] + lam[nb:]


# ---------------------------------------------------------------------------
# Bilinear matrix games
# ---------------------------------------------------------------------------

def gen_matrix_game(A, setup_choice="entropy"):
    """Saddle operator Phi(x, u) = (A^T u, -A x) over simplex x simplex.

    ``linear_part`` is the skew matrix G = [[0, A^T], [-A, 0]], but Phi
    multiplies only contiguous copies of G's two off-diagonal blocks (two
    gemv calls of about m n each instead of one of (n + m)^2).  With one BLAS
    thread its bytes equal those of ``G @ z``; a threaded OpenBLAS splits a
    large product at other rows, so at several threads the two may differ.

    No LP runs here: ``matrix_game_equilibrium(op)`` computes the game's
    value and equilibrium on request.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or 0 in A.shape:
        raise ValueError(f"A must be a 2-D matrix with at least one row and "
                         f"one column, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite")
    m, n = A.shape
    if setup_choice == "entropy":
        sx, su = entropy_setup(n), entropy_setup(m)
        lip = float(np.abs(A).max())
    elif setup_choice == "euclidean":
        sx = euclidean_setup(FeasibleSet.simplex(n))
        su = euclidean_setup(FeasibleSet.simplex(m))
        lip = float(np.linalg.svd(A, compute_uv=False)[0])
    else:
        raise ValueError(f"unknown setup {setup_choice!r} for matrix_game; "
                         "expected 'entropy' or 'euclidean'")
    domain = ProductSetup(sx, su)

    G = np.zeros((n + m, n + m))
    G[:n, n:] = A.T
    G[n:, :n] = -A

    # OpenBLAS gemv groups rows and columns by 4, so a block cut at n would
    # sum in other lanes than G @ z whenever n % 4 != 0: each view is widened
    # with zero entries of G to 4-aligned bounds.  The lower view also starts
    # one group of rows early, so it never has a single row (m = 1), which
    # numpy computes as a dot product instead of a gemv.  A contiguous copy
    # of a view sums in the same order, without the gaps of G's long rows.
    lo4, hi4 = n - n % 4, min(n + m, -(-n // 4) * 4)
    r0 = max(0, lo4 - 4)
    top = np.ascontiguousarray(G[:hi4, lo4:])
    bottom = np.ascontiguousarray(G[r0:, :hi4])

    def phi(z):
        out = np.empty(n + m)
        out[:n] = (top @ z[lo4:])[:n]
        out[n:] = (bottom @ z[:hi4])[n - r0:]
        return out

    return SaddleOperator(
        phi=phi, domain=domain, lipschitz=lip, holder_nu=1.0, holder_l=lip,
        linear_part=G,
        meta={"A": A, "setup_choice": setup_choice},
    )


def matrix_game_equilibrium(op):
    """Value and equilibrium (value, x, u) of min_x max_u u^T A x over
    simplices for a game built by ``gen_matrix_game``, from an LP (HiGHS).
    x is the minimizer."""
    A = op.meta["A"]
    m, n = A.shape
    # min t s.t. (A x)_i <= t, sum x = 1, x >= 0
    cost = np.concatenate([np.zeros(n), [1.0]])
    A_ub = np.hstack([A, -np.ones((m, 1))])
    A_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = [(0, None)] * n + [(None, None)]
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    x = np.asarray(res.x[:n], dtype=float)
    value = float(res.fun)
    u = np.asarray(-res.ineqlin.marginals, dtype=float)
    u = np.maximum(u, 0.0)
    u = u / u.sum() if u.sum() > 0 else np.full(m, 1.0 / m)
    return value, x, u
