"""Norms, prox functions, Bregman divergences and the mirror step.

Every solver in this package consumes a :class:`ProxSetup`, which bundles a
feasible set, a norm, and a 1-strongly-convex distance generating function
``d``.  Two geometries are provided: the Euclidean one (``d = 0.5*||x - c||_2^2``
with closed-form projections) and the entropy one on the simplex (multiplicative
updates).  A :class:`ProductSetup` glues setups together for saddle-point
domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Centralized tolerances: feasibility, mirror-step optimality (variational
# inequality), and normalization of simplex iterates.
FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-7
NORMALIZATION_TOL = 1e-12

# Entropy iterates never leave the open simplex; boundary evaluations clamp
# coordinates here so that y*log(y) -> 0 instead of producing nan/inf.
ENTROPY_CLAMP = 1e-300

_FLOAT = np.dtype(float)


class DimensionMismatchError(ValueError):
    pass


class GeometryDomainError(ValueError):
    """Raised when grad_d is evaluated where it is undefined."""


def _check_dim(dim, x):
    if type(x) is not np.ndarray or x.dtype is not _FLOAT:
        x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"expected shape ({dim},), got {x.shape}")
    return x


@dataclass(frozen=True)
class FeasibleSet:
    """One of: all-space, box, euclidean ball, scaled unit simplex.

    An l1-ball of radius r in R^n is encoded as the scaled simplex over 2n
    doubled coordinates (+e_i / -e_i directions); :func:`doubled_to_signed`
    maps a point back.
    """

    kind: str  # "all" | "box" | "ball" | "simplex"
    dim: int
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float = 0.0
    scale: float = 1.0

    @staticmethod
    def all_space(dim):
        return FeasibleSet("all", dim)

    @staticmethod
    def box(lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise ValueError("invalid box bounds")
        return FeasibleSet("box", lower.size, lower=lower, upper=upper)

    @staticmethod
    def ball(center, radius):
        center = np.asarray(center, dtype=float)
        if radius <= 0:
            raise ValueError("radius must be positive")
        return FeasibleSet("ball", center.size, center=center, radius=float(radius))

    @staticmethod
    def simplex(dim, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        return FeasibleSet("simplex", dim, scale=float(scale))

    @staticmethod
    def l1_ball(dim, radius=1.0):
        return FeasibleSet.simplex(2 * dim, radius)

    def contains(self, x, tol=FEASIBILITY_TOL):
        x = _check_dim(self.dim, x)
        if self.kind == "all":
            return bool(np.all(np.isfinite(x)))
        if self.kind == "box":
            return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))
        if self.kind == "ball":
            return bool(np.linalg.norm(x - self.center) <= self.radius + tol)
        if self.kind == "simplex":
            return bool(np.all(x >= -tol) and abs(x.sum() - self.scale) <= tol)
        raise ValueError(self.kind)

    def max_linear(self, t):
        """max over the set of <t, z> (closed form per set variant)."""
        t = _check_dim(self.dim, t)
        if self.kind == "simplex":
            return float(self.scale * t.max())
        if self.kind == "box":
            return float(np.sum(np.maximum(self.lower * t, self.upper * t)))
        if self.kind == "ball":
            return float(t @ self.center + self.radius * np.linalg.norm(t))
        raise ValueError(f"cannot maximize a linear form over '{self.kind}'")


def doubled_to_signed(v):
    """Fold a doubled-simplex point back to the signed l1-ball point."""
    v = np.asarray(v, dtype=float)
    n = v.size // 2
    return v[:n] - v[n:]


def signed_to_doubled(u):
    """Embed a signed vector into the doubled nonnegative coordinates."""
    u = np.asarray(u, dtype=float)
    return np.concatenate([np.maximum(u, 0.0), np.maximum(-u, 0.0)])


@dataclass(frozen=True)
class ProxSetup:
    """A norm plus a 1-strongly-convex prox function over a feasible set.

    ``kind == "euclidean"``: d(x) = 0.5*||x - origin||_2^2, norm l2.
    ``kind == "entropy"``:   d(x) = ln(n) + sum_i x_i ln x_i on the unit
    simplex, norm l1 (1-strong convexity by Pinsker, requires scale == 1).

    ``theta0_sq`` bounds d at the solution (or over the whole set, for
    primal-dual certification).
    """

    set: FeasibleSet
    kind: str  # "euclidean" | "entropy"
    origin: np.ndarray | None = None
    theta0_sq: float | None = None

    def __post_init__(self):
        if self.kind == "euclidean":
            origin = self.origin
            if origin is None:
                origin = np.zeros(self.set.dim)
            object.__setattr__(self, "origin", _check_dim(self.set.dim, origin))
        elif self.kind == "entropy":
            if self.set.kind != "simplex":
                raise ValueError("entropy setup requires a simplex feasible set")
        else:
            raise ValueError(self.kind)

    @property
    def dim(self):
        return self.set.dim

    # -- norms ------------------------------------------------------------

    def norm(self, x):
        return self._norm(_check_dim(self.dim, x))

    def _norm(self, x):
        if self.kind == "euclidean":
            return math.sqrt(x.dot(x))
        return float(np.abs(x).sum())

    def dual_norm(self, p):
        p = _check_dim(self.dim, p)
        if self.kind == "euclidean":
            return math.sqrt(p.dot(p))
        return float(np.abs(p).max()) if p.size else 0.0

    # -- prox function ----------------------------------------------------

    def d(self, x):
        x = _check_dim(self.dim, x)
        if self.kind == "euclidean":
            return 0.5 * float(np.dot(x - self.origin, x - self.origin))
        xc = np.maximum(x, ENTROPY_CLAMP)
        return float(np.log(self.dim) + np.sum(xc * np.log(xc)))

    def grad_d(self, x):
        x = _check_dim(self.dim, x)
        if self.kind == "euclidean":
            return x - self.origin
        if np.any(x <= 0):
            raise GeometryDomainError("entropy grad_d undefined on the boundary")
        return np.log(x) + 1.0

    def bregman(self, x, y):
        x = _check_dim(self.dim, x)
        y = _check_dim(self.dim, y)
        if self.kind == "euclidean":
            diff = y - x
            return 0.5 * float(np.dot(diff, diff))
        if np.any(x <= 0):
            raise GeometryDomainError("entropy Bregman requires x in the open simplex")
        # KL divergence; clamp y so that boundary targets stay finite.
        yc = np.maximum(y, ENTROPY_CLAMP)
        return float(np.sum(yc * np.log(yc / x)) - y.sum() + x.sum())

    # -- mirror step -------------------------------------------------------

    def mirror_step(self, x, p, out=None):
        """argmin_{z in set} <p, z> + V[x](z), written into ``out`` when one
        is given: a float n-vector that may be x but must not be p."""
        x = _check_dim(self.dim, x)
        p = _check_dim(self.dim, p)
        if out is None and self.kind == "euclidean":
            # V[x](z) = 0.5*||z - x||^2 independent of the d-origin.
            return self._project(x - p)
        return self._step(x, p, np.empty(self.dim) if out is None else out)

    def _step(self, x, p, out):
        """The mirror step of checked x and p, written into ``out``."""
        if self.kind == "entropy":
            np.maximum(x, ENTROPY_CLAMP, out=out)
            np.log(out, out=out)
            out -= p
            out -= out.max()
            np.exp(out, out=out)
            out *= self.set.scale / out.sum()
        else:   # a box clips in place; assigning out to itself is a no-op
            out[...] = self._project(np.subtract(x, p, out=out), out)
        return out

    def _project(self, y, out=None):
        s = self.set
        if s.kind == "all":
            return y
        if s.kind == "box":
            # np.clip without its wrapper, into ``out`` when one is given,
            # else into a new array: y may be the caller's
            return y.clip(s.lower, s.upper, out=out)
        if s.kind == "ball":
            diff = y - s.center
            nrm = np.linalg.norm(diff)
            if nrm <= s.radius:
                return y
            return s.center + diff * (s.radius / nrm)
        if s.kind == "simplex":
            return _project_simplex(y, s.scale)
        raise ValueError(s.kind)

    def prox_center(self):
        """Minimizer of d over the feasible set."""
        if self.kind == "entropy":
            return np.full(self.dim, self.set.scale / self.dim)
        return self._project(self.origin.copy())

    def max_d(self):
        """max_x d(x) over the set, for Theta_0^2 bookkeeping (compact sets):
        ln n for entropy on the unit simplex, else max V[origin](.) since
        d = V[origin].  Entropy on a scaled simplex has no such d."""
        if self.kind == "entropy":
            if self.set.scale != 1.0:
                raise ValueError("entropy max_d needs the unit simplex")
            return float(np.log(self.dim))
        return self.max_bregman_from(self.origin)

    def max_bregman_from(self, x0):
        """max_y V[x0](y) over the set (compact sets only).

        V[x0](.) is convex, so the maximum sits at an extreme point: simplex
        vertices, box corners, or the far side of a ball.
        """
        x0 = _check_dim(self.dim, x0)
        s = self.set
        if self.kind == "entropy":
            sc = s.scale
            return float(np.max(sc * np.log(sc / np.maximum(x0, ENTROPY_CLAMP))))
        if s.kind == "box":
            diff = np.where(np.abs(s.upper - x0) >= np.abs(s.lower - x0),
                            s.upper, s.lower) - x0
            return 0.5 * float(np.dot(diff, diff))
        if s.kind == "ball":
            return 0.5 * (np.linalg.norm(x0 - s.center) + s.radius) ** 2
        if s.kind == "simplex":
            best = 0.0
            for i in range(s.dim):
                v = np.zeros(s.dim)
                v[i] = s.scale
                best = max(best, self.bregman(x0, v))
            return best
        raise ValueError("max_bregman_from undefined for unbounded sets")


def _project_simplex(y, scale):
    """Euclidean projection onto {x >= 0, sum x = scale} (sort-based)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - scale
    ks = np.arange(1, y.size + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


class ProductSetup:
    """Direct product of prox setups, for VIs over Q1 x Q2 (x ... x Qm).

    The product norm is ||z||^2 = sum ||z_i||^2 and d(z) = sum d_i(z_i), so
    1-strong convexity of the parts carries over.
    """

    def __init__(self, *parts):
        self.parts = parts
        dims = [p.dim for p in parts]
        self.dim = int(sum(dims))
        self._slices = []
        off = 0
        for d in dims:
            self._slices.append(slice(off, off + d))
            off += d

    def split(self, z):
        return [b for _, b in self._blocks(z)]

    def _blocks(self, z):
        """(part, block of z) per part, with z checked once."""
        return zip(self.parts, map(_check_dim(self.dim, z).__getitem__, self._slices))

    def norm(self, z):
        return math.sqrt(sum(p._norm(b) ** 2 for p, b in self._blocks(z)))

    def dual_norm(self, g):
        return math.sqrt(sum(p.dual_norm(b) ** 2 for p, b in self._blocks(g)))

    def d(self, z):
        return float(sum(p.d(b) for p, b in self._blocks(z)))

    def bregman(self, x, y):
        return float(sum(p.bregman(bx, by) for (p, bx), (_, by)
                         in zip(self._blocks(x), self._blocks(y))))

    def mirror_step(self, x, p, out=None):
        """Each part's step, written into its slice of ``out`` (a new array
        when None; it may be x but must not be p)."""
        x = _check_dim(self.dim, x)
        p = _check_dim(self.dim, p)
        out = np.empty(self.dim) if out is None else out
        for part, s in zip(self.parts, self._slices):
            part._step(x[s], p[s], out[s])
        return out

    def max_linear(self, t):
        """max over the product set of <t, z>: the sum of the parts'."""
        return float(sum(p.set.max_linear(b) for p, b in self._blocks(t)))

    def prox_center(self):
        return np.concatenate([p.prox_center() for p in self.parts])

    def max_d(self):
        return float(sum(p.max_d() for p in self.parts))

    def max_bregman_from(self, x0):
        return float(sum(p.max_bregman_from(b) for p, b in self._blocks(x0)))

    def contains(self, z, tol=FEASIBILITY_TOL):
        return all(p.set.contains(b, tol) for p, b in self._blocks(z))


# -- convenience constructors used throughout the package ------------------

def euclidean_setup(feasible_set, origin=None, theta0_sq=None):
    setup = ProxSetup(feasible_set, "euclidean", origin=origin, theta0_sq=theta0_sq)
    return setup

def entropy_setup(dim, scale=1.0, theta0_sq=None):
    """Theta_0^2 defaults to ``max_d()`` on the unit simplex, else None."""
    setup = ProxSetup(FeasibleSet.simplex(dim, scale), "entropy",
                      theta0_sq=theta0_sq)
    if theta0_sq is None and scale == 1.0:
        setup = replace(setup, theta0_sq=setup.max_d())
    return setup

def entropy_l1_ball_setup(dim, radius=1.0):
    return entropy_setup(2 * dim, radius)

