"""Switching Mirror Descent for problems with functional constraints.

Two adaptive variants of one loop: one for Lipschitz objectives (with
primal-dual reconstruction of approximate Lagrange multipliers) and one for
general, possibly non-Lipschitz objectives.  Steps alternate between
"productive" iterations driven by the objective subgradient (constraint
satisfied at level eps) and "non-productive" iterations driven by the
constraint subgradient; the variants differ only in their productive steps.
Once a step leaves x unchanged, every later iteration repeats the last one,
and the loop does the rest of the run in bulk (see ``_switching``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import aggregate_max, require_positive
from .report import Recorder


class InfeasibleAtEpsError(RuntimeError):
    pass


def _theta0_sq(problem, setup, eps):
    """Validate a switching run's inputs; returns the setup's Theta_0^2.
    Both it and eps must be finite and positive: with a NaN, the stop rule
    is never met."""
    if problem.constraints is None:
        raise ValueError("problem has no constraint bundle")
    if setup.theta0_sq is None:
        raise ValueError("setup.theta0_sq is required")
    require_positive(eps=eps, **{"setup.theta0_sq": setup.theta0_sq})
    return setup.theta0_sq


def _iteration_bound(m_f, m_g, theta0_sq, eps):
    if m_f is None or m_g is None:
        return None
    return math.ceil(2.0 * max(m_f**2, m_g**2) * theta0_sq / eps**2)


_BLOCK = 1 << 16        # floats per block of the stop-rule cumsum


def _stop_count(stop_sum, term, stop_target, limit):
    """The first t <= limit at which stop_sum plus t terms, added one at a
    time, reaches stop_target; None if none does."""
    if stop_sum + term == stop_sum or math.isnan(stop_sum):   # stalled
        return 1 if limit > 0 and stop_sum >= stop_target else None
    done = 0
    while done < limit:
        sums = np.full(min(_BLOCK, limit - done), term)
        sums[0] += stop_sum
        np.cumsum(sums, out=sums)
        hit = int(np.argmax(sums >= stop_target))
        if sums[hit] >= stop_target:
            return done + hit + 1
        stop_sum = sums[-1]
        done += sums.size
    return None


def _add_repeated(acc, term, count):
    """acc plus count terms, added one at a time as ``acc += term`` would;
    acc and term are floats or arrays of one shape.

    Exact in closed form, one binade per pass.  Take |s| in [2^e, 2^(e+1))
    on the grid u = 2^(e-52).  While each exact s_j + c stays in that
    binade, the add rounds c to one multiple D of u, so j adds give
    s + j*D, exact in floats; a half-ulp c is a tie, and from an even s/u
    every add takes the even neighbour, rint's.  (A sum that ends on
    2^(e+1) rounds there from either side; below 2^-1021 every sum is
    exact.)  Each pass makes one real ``s + c`` per element: it crosses
    binade edges and zero, and handles signed zeros, subnormals and
    overflow.  An add that leaves the bits unchanged is a fixed point
    (c = 0, |c| < u/2, inf, NaN) and ends the element.  Then each element
    jumps k*D, k the most adds whose sums stay in its binade and a grid
    step above 2^e, where the grid gets finer.
    """
    term = np.asarray(term, dtype=float)
    out = np.array(np.broadcast_to(acc, term.shape), dtype=float)
    s = flat = out.reshape(-1)
    c, idx = term.reshape(-1), np.arange(flat.size)     # the moving elements
    left = np.full(flat.size, count, dtype=np.int64)
    with np.errstate(all="ignore"):
        while idx.size and count > 0:
            s, old = s + c, s
            left -= 1
            live = (s.view(np.int64) != old.view(np.int64)) & (left > 0)
            ue = np.frexp(s)[1] - 53        # u = 2^ue
            p = np.ldexp(np.abs(s), -ue)    # |s| / u, in [2^52, 2^53)
            t = np.ldexp(c, -ue)
            m = np.rint(t)                  # D / u
            room = np.where(m * s > 0, 2.0**53 - p, p - (2.0**52 + 1.0))
            k = np.floor_divide(room, np.maximum(np.abs(m), 1.0))
            tie = (t - m) ** 2 == 0.25
            ok = live & np.isfinite(s) & ~(tie & (p % 2 == 1))
            k = np.where(ok, np.clip(k, 0, left), 0.0)
            np.add(s, np.ldexp(k * m, ue), out=s, where=k > 0)
            left -= k.astype(np.int64)
            flat[idx] = s
            keep = live & (left > 0)
            idx, s, c, left = idx[keep], s[keep], c[keep], left[keep]
    return out if term.ndim else float(out)


def _switching(problem, setup, eps, max_iter, rule, hook):
    """The switching loop of both methods.  A productive step (g(x) <= eps)
    takes (h_k, stop term) = ``rule(M_k)``, M_k = ||grad f(x)||_*, and ends
    the run if M_k = 0.  ``hook(x, h_k, f_resp, M_k, t)`` sees each
    productive step, t times in a row (t > 1 only for the bulk repeats),
    and ``hook.output(lam_raw)`` gives x_out, f_out (None: evaluate f at
    x_out) and further Report fields; ``hook.certifies_f`` says whether the
    theorem bounds f_out - f* by eps.  A non-productive step takes h_k =
    eps / M_k^2 and stop term 1/M_k^2 from M_k = ||grad g(x)||_*.  A
    non-finite g or f value raises before any step is taken from it.
    """
    theta0_sq = _theta0_sq(problem, setup, eps)
    rec = Recorder(hook.method, problem.f_star)
    f = rec.count(problem.objective)
    g = rec.count(lambda x: aggregate_max(problem.constraints, x))
    x = setup.prox_center()
    spare = np.empty_like(x)    # x and spare are the run's iterate buffers
    stop_target = 2.0 * theta0_sq / eps**2
    stop_sum = 0.0
    n_prod = 0
    lam_raw = np.zeros(len(problem.constraints))
    k = 0
    stationary_at = None
    while True:
        g_resp = g(x)
        productive = g_resp.value <= eps
        drive = f(x) if productive else g_resp  # steps along its subgradient
        rec.finite(g_resp.value)
        rec.finite(drive.value)
        m_k = setup.dual_norm(drive.subgradient)
        if productive:
            h_k, term = rule(m_k)
            hook(x, h_k, drive, m_k, 1)
            n_prod += 1
            f_val = drive.value
        else:
            if m_k == 0.0:
                raise InfeasibleAtEpsError(
                    "zero constraint subgradient on a non-productive step")
            h_k = eps / m_k**2
            term = 1.0 / m_k**2
            lam_raw[g_resp.active_index - 1] += h_k
            f_val = math.nan
        rec.row(k, f_val, g_value=g_resp.value, step=h_k, M_k=m_k)
        k += 1
        if m_k == 0.0:      # a productive x with grad f = 0 is optimal
            break
        x, spare = setup.mirror_step(x, h_k * drive.subgradient,
                                     out=spare), x
        # compared by bytes, so -0.0 against 0.0 is a move.  Oracles are
        # deterministic: after an unmoved x every iteration gets the same
        # answers, M_k and step, so their bookkeeping is done in bulk below
        moved = x.tobytes() != spare.tobytes()
        stop_sum += term
        if stop_sum >= stop_target:
            break
        if k >= max_iter:
            raise RuntimeError("iteration cap reached before the stop rule")
        if not moved:
            stationary_at = k
            break
    if stationary_at is not None:
        # the rest of the run repeats the last iteration t times
        t = _stop_count(stop_sum, term, stop_target, max_iter - k)
        if t is None:
            raise RuntimeError("iteration cap reached before the stop rule")
        rec.repeat(t, 2 if productive else 1)
        # the repeats add nothing to lam_raw: an x that its own g-step leaves
        # unmoved minimizes the convex g > eps over the set (a rounding stall
        # needs a stop sum past the cap), so no step was productive and
        # hook.output never reads lam_raw; any lam >= 0 keeps certify valid
        if productive:
            hook(x, h_k, drive, m_k, t)
            n_prod += t
        k += t
    if n_prod == 0:     # never feasible at level eps: no output value
        x_out, f_out, g_out, fields = x, math.nan, math.nan, {"extras": {}}
    else:
        x_out, f_out, fields = hook.output(lam_raw)
        # g first: after a stretch without BLAS calls (the repeats) the
        # first one pays a warm-up of tens of us, which also serves f's dot
        g_out = g(x_out).value
        if f_out is None:
            f_out = f(x_out).value
    fields["extras"]["stationary_at"] = stationary_at
    n_bound = _iteration_bound(hook.lipschitz_f, problem.lipschitz_g,
                               theta0_sq, eps)
    # the theorem: f_out - f* <= eps if the hook certifies f, g(x_out) <= eps
    # and k <= the iteration bound
    if hook.certifies_f and rec.f_star is not None and math.isfinite(f_out):
        rec.checks.append((k, rec.gap(f_out), eps))
    if math.isfinite(g_out):
        rec.checks.append((k, g_out, eps))
    if n_bound is not None:
        rec.checks.append((k, float(k), float(n_bound)))
    return rec.report(x_out, f_out, g_bar=g_out, productive=n_prod, **fields,
                      iteration_bound=n_bound)


class _Average:
    """constrained_nonsmooth's output: the h-weighted average of the
    productive points; sum h also scales the multipliers."""

    method = "constrained_nonsmooth"
    certifies_f = True      # f_out - f* <= eps

    def __init__(self, lipschitz_f):
        self.lipschitz_f = lipschitz_f
        self.weighted = self.h_sum = 0.0    # weighted: an array after step 1

    def __call__(self, x, h_k, f_resp, m_k, t):
        if t == 1:
            self.weighted += h_k * x
            self.h_sum += h_k
        else:
            self.weighted = _add_repeated(self.weighted, h_k * x, t)
            self.h_sum = _add_repeated(self.h_sum, h_k, t)

    def output(self, lam_raw):
        return (self.weighted / self.h_sum, None,
                {"lambda_bar": lam_raw / self.h_sum,
                 "extras": {"h_prod_sum": self.h_sum}})


class _Best:
    """constrained_general's output: the best productive point.  A repeat
    is the last productive point again and changes nothing."""

    method = "constrained_general"
    certifies_f = False
    lipschitz_f = 1.0   # the step eps/||grad f||_* is eps along a unit vector

    def __init__(self, x_star):
        self.x_star = x_star
        self.best_f, self.best_x, self.min_vf = math.inf, None, None

    def __call__(self, x, h_k, f_resp, m_k, t):
        if f_resp.value < self.best_f:
            self.best_f, self.best_x = f_resp.value, x.copy()
        if self.x_star is not None:
            merit = _merit(f_resp.subgradient, m_k, x, self.x_star)
            self.min_vf = merit if self.min_vf is None \
                else min(self.min_vf, merit)

    def output(self, lam_raw):
        extras = {} if self.min_vf is None else {"min_vf": self.min_vf}
        return self.best_x, self.best_f, {"extras": extras}


def solve_constrained_nonsmooth(problem, setup, eps, max_iter=10**7):
    """Switching Mirror Descent for a Lipschitz objective and constraint.

    Steps h_k = eps / M_k^2 with M_k the dual norm of the driving
    subgradient; stops once sum_j 1/M_j^2 >= 2 Theta_0^2 / eps^2.  Returns
    the productive-step average and the approximate dual multipliers grouped
    by active constraint index.
    """
    return _switching(problem, setup, eps, max_iter,
                      lambda m: (eps / m**2, 1.0 / m**2) if m else (1.0, 0.0),
                      _Average(problem.lipschitz_f))


def solve_constrained_general(problem, setup, eps, max_iter=10**7):
    """Switching Mirror Descent for a general (maybe non-Lipschitz) objective.

    Productive steps use h_k = eps/||grad f||_*, non-productive
    h_k = eps/||grad g||_*^2; stops once |I| + sum_{j in J} 1/||grad g||_*^2
    >= 2 Theta_0^2 / eps^2.  Returns the best productive iterate.  With a
    known x_star, ``extras["min_vf"]`` is the least ``directional_merit`` at
    x_star over the productive points, from the answers the run already has.
    """
    return _switching(problem, setup, eps, max_iter,
                      lambda m: (eps / m, 1.0) if m else (math.inf, 1.0),
                      _Best(problem.x_star))


def _merit(subgradient, nrm, x, y):
    """<subgradient / nrm, x - y>, with nrm = ||subgradient||_* (0 if 0)."""
    if nrm == 0.0:
        return 0.0
    return float(subgradient @ (np.asarray(x) - np.asarray(y))) / nrm


def directional_merit(problem, setup, y, x):
    """<grad f(x)/||grad f(x)||_*, x - y>, the normalized-subgradient merit
    used by the general-objective convergence guarantee (0 at zero grad)."""
    resp = problem.objective(x)
    return _merit(resp.subgradient, setup.dual_norm(resp.subgradient), x, y)


@dataclass
class Certificates:
    f_bar: float
    g_bar: float
    phi_lambda: float
    duality_gap: float
    eps_tilde: float | None = None


def certify(problem, report, lagrangian_minimizer, eps=None,
            grad_norms_at_opt=None, lipschitz_grads=None):
    """Primal-dual certificates for a switching-method Report.

    ``lagrangian_minimizer(lambda)`` must return
    min_{x in X} f(x) + sum_i lambda_i g_i(x) exactly for the instance family.
    When per-piece gradient data is supplied, the smooth-pieces accuracy
    eps_tilde = max(eps, eps*max_i||grad f_i(x*)||_* + eps^2 max_i L_i / 2)
    is evaluated as well.
    """
    lam = report.lambda_bar
    if lam is None:
        raise ValueError("report carries no dual multipliers")
    if np.any(lam < 0):
        raise ValueError("negative multiplier in lambda_bar")
    phi = float(lagrangian_minimizer(lam))
    gap = report.f_out - phi
    eps_tilde = None
    if eps is not None and grad_norms_at_opt is not None and lipschitz_grads is not None:
        eps_tilde = max(eps, eps * max(grad_norms_at_opt)
                        + eps**2 * max(lipschitz_grads) / 2.0)
    return Certificates(f_bar=report.f_out, g_bar=report.g_bar,
                        phi_lambda=phi, duality_gap=float(gap),
                        eps_tilde=eps_tilde)
