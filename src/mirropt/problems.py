"""Generators for the concrete test problems.

All generators are deterministic functions of (sizes, seed).  Known-optimum
metadata is computed by an independent LP oracle (scipy's HiGHS) at
construction time, never from formulas alone.  A matrix game is the
exception: its value and equilibrium come from ``matrix_game_equilibrium``
on request, since Mirror Prox is certified by its saddle gap, which needs
neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
    # variables x_ij flattened row-major
    A_eq = np.zeros((n + m, m * n))
    for j in range(n):                      # column sums = a_j
        A_eq[j, j::n] = 1.0
    for i in range(m):                      # row sums = b_i
        A_eq[n + i, i * n:(i + 1) * n] = 1.0
    rhs = np.concatenate([a, b])
    res = linprog(c.ravel(), A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs")
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
    dim = n + m
    # variables: u (n), v (m), t (m*n); minimize -a u - b v + V sum t
    cost = np.concatenate([-o.a, -o.b, np.full(m * n, o.V)])
    rows = []
    rhs = []
    for i in range(m):
        for j in range(n):
            r = np.zeros(dim + m * n)
            r[j] = 1.0            # u_j
            r[n + i] = 1.0        # v_i
            r[dim + i * n + j] = -1.0
            rows.append(r)
            rhs.append(o.c[i, j])
    bounds = [(None, None)] * dim + [(0, None)] * (m * n)
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"penalized dual LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# Truss topology design dual
# ---------------------------------------------------------------------------

def _grid_positions(nodes):
    """Node coordinates of a width-2 column grid (left column anchored)."""
    pos = []
    r = 0
    while len(pos) < nodes:
        pos.append((r, 0.0))
        if len(pos) < nodes:
            pos.append((r, 1.0))
        r += 1
    return pos


def gen_ttd_dual(nodes, bars, seed, box_half_width=2.0):
    """Dual of a 2D grid truss: maximize <f_bar, y> under |<a_i, y>| <= 1.

    Returned as the minimization of f(y) = -<f_bar, y> with the constraint
    bundle of 2*bars linear pieces.  Nodes in the leftmost grid column are
    anchored (their displacement dofs are removed), every row a_i has at most
    4 nonzeros.
    """
    if bars < 1:
        raise ValueError("bars must be >= 1")
    rng = np.random.default_rng(seed)
    pos = _grid_positions(nodes)
    anchored = [i for i, (r, cc) in enumerate(pos) if r == 0]
    free = [i for i in range(nodes) if i not in anchored]
    if not free:
        raise ValueError("need at least one free node")
    dof = {node: (2 * k, 2 * k + 1) for k, node in enumerate(free)}
    dim = 2 * len(free)

    # candidate bars: all pairs at distance <= sqrt(2) with a free endpoint
    cand = []
    for p in range(nodes):
        for q in range(p + 1, nodes):
            dx = pos[q][0] - pos[p][0]
            dy = pos[q][1] - pos[p][1]
            if dx * dx + dy * dy <= 2.0 + 1e-12 and (p in dof or q in dof):
                cand.append((p, q))
    if not cand:
        raise ValueError("no candidate bars for this grid")
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
    rows = np.array(rows)

    # external force at one random free node
    f_bar = np.zeros(dim)
    node = free[rng.integers(len(free))]
    angle = rng.uniform(0, 2 * np.pi)
    f_bar[dof[node][0]] = np.cos(angle)
    f_bar[dof[node][1]] = np.sin(angle)

    return make_ttd_instance(rows, f_bar, box_half_width)


def make_ttd_instance(rows, f_bar, box_half_width=2.0):
    """TTD dual instance from explicit bar rows and force vector."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    f_bar = np.asarray(f_bar, dtype=float)
    dim = f_bar.size
    lo = np.full(dim, -box_half_width)
    hi = np.full(dim, box_half_width)
    res = linprog(-f_bar, A_ub=np.vstack([rows, -rows]),
                  b_ub=np.ones(2 * len(rows)), bounds=list(zip(lo, hi)),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"TTD dual LP failed: {res.message}")
    signed = np.vstack([rows, -rows])
    return ProblemInstance(
        objective=LinearOracle(-f_bar),
        set=FeasibleSet.box(lo, hi),
        constraints=LinearMaxBundle(signed, np.full(2 * len(rows), -1.0)),
        lipschitz_f=float(np.linalg.norm(f_bar)),
        lipschitz_g=float(max(np.linalg.norm(a) for a in rows)),
        f_star=float(res.fun),
        x_star=np.asarray(res.x, dtype=float),
        meta={"rows": rows, "f_bar": f_bar, "n_bars": len(rows)},
    )


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
        linear_part=G, affine_part=np.zeros(n + m),
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
