"""First-order oracle abstraction with optional inexactness.

An oracle is any callable ``x -> OracleResponse`` and must be a
deterministic function of x: the same x (the same bytes) gives the same
response.  Reproducible traces need this, and the switching solvers rely on
it to reuse their last answers once the iterate stops moving.
``FunctionOracle`` wraps a (value, subgradient) pair of callables,
``LinearOracle`` and ``AbsLinearOracle`` cover the linear pieces used by the
problem generators, and ``InexactOracle`` produces delta-subgradients from
an exact oracle, seeded from x's bytes.  A returned subgradient may be a
read-only view of the oracle's own data.  ``require_positive`` checks a
solver's iteration count and constants.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class OracleResponse:
    value: float
    subgradient: np.ndarray
    delta: float = 0.0
    active_index: int | None = None


def _read_only(a):
    """A float copy of a that nobody can write to, the caller included."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def require_positive(N=0, **values):
    """Refuse a solver's inputs unless N >= 0 and each of ``values`` is
    finite and positive: with a NaN or infinite constant the steps are NaN,
    and no stop or acceptance test is ever met."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N!r}")
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value!r}")


class FunctionOracle:
    def __init__(self, value_fn, subgrad_fn):
        self._value = value_fn
        self._subgrad = subgrad_fn

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return OracleResponse(float(self._value(x)), np.asarray(self._subgrad(x), dtype=float))


class LinearOracle:
    """g(x) = <a, x> + b; the subgradient is a read-only copy of a."""

    def __init__(self, a, b=0.0):
        self.a = _read_only(a)
        self.b = float(b)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return OracleResponse(float(self.a @ x + self.b), self.a)


class AbsLinearOracle:
    """g(x) = |<a, x>| + b, subgradient sign(<a,x>)*a with sign(0) = 0."""

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        t = float(self.a @ x)
        sign = 0.0 if t == 0.0 else (1.0 if t > 0 else -1.0)
        return OracleResponse(abs(t) + self.b, sign * self.a)


class InexactOracle:
    """delta-subgradient oracle built from an exact one.

    The value is perturbed by a seeded amount bounded by delta and the
    subgradient is taken at a point within ``delta / lipschitz`` of x, which
    keeps the delta-subgradient inequality testable.
    """

    def __init__(self, exact, delta, lipschitz, seed=0):
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        self.exact = exact
        self.delta = float(delta)
        self.lipschitz = float(lipschitz)
        self.seed = int(seed)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # crc32 rather than hash(): bytes hashes are salted per process
        rng = np.random.default_rng([self.seed, zlib.crc32(x.tobytes())])
        shift = rng.standard_normal(x.size)
        nrm = np.linalg.norm(shift)
        if nrm > 0 and self.lipschitz > 0:
            shift *= (self.delta / self.lipschitz) / nrm * rng.uniform()
        else:
            shift[:] = 0.0
        near = self.exact(x + shift)
        exact_here = self.exact(x)
        value = exact_here.value + self.delta * rng.uniform(-1.0, 1.0)
        return OracleResponse(value, near.subgradient, delta=self.delta,
                              active_index=near.active_index)


class ConstraintBundle:
    """g(x) = max_i g_i(x), reported with the lowest attaining index.
    ``evaluate`` computes it; a subclass with a faster path overrides it."""

    def __init__(self, pieces):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("empty constraint bundle")
        self.pieces = pieces

    def __len__(self):
        return len(self.pieces)

    def __call__(self, x):
        return aggregate_max(self, x)

    def evaluate(self, x):
        """The max over the pieces at a float64 array x."""
        best = None
        best_i = -1
        for i, piece in enumerate(self.pieces):
            resp = piece(x)
            if best is None or resp.value > best.value:
                best, best_i = resp, i
        return OracleResponse(best.value, best.subgradient, delta=best.delta,
                              active_index=best_i + 1)


class LinearMaxBundle(ConstraintBundle):
    """Bundle of linear pieces g_i(x) = <a_i, x> + b_i with a vectorized
    max-aggregation; semantics identical to the piece-by-piece path.  A and
    b are read-only copies, and the subgradient is a view of row i."""

    def __init__(self, A, b):
        self.A = _read_only(A)
        self.b = _read_only(b)
        if self.A.shape[0] == 0:
            raise ValueError("empty constraint bundle")

    def __len__(self):
        return self.A.shape[0]

    def evaluate(self, x):
        vals = self.A @ x
        vals += self.b
        i = int(vals.argmax())          # first maximum, lowest index
        return OracleResponse(float(vals[i]), self.A[i], active_index=i + 1)


def aggregate_max(bundle, x):
    """Max-aggregate the bundle, tie-broken to the lowest index (1-based):
    ``bundle.evaluate`` at x as a float64 array."""
    if type(x) is not np.ndarray or x.dtype != np.float64:
        x = np.asarray(x, dtype=float)
    return bundle.evaluate(x)


@dataclass
class ProblemInstance:
    """Objective oracle, optional aggregated constraint, feasible set,
    optional Lipschitz constants and known-optimum metadata."""

    objective: object
    set: object  # FeasibleSet
    constraints: ConstraintBundle | None = None
    lipschitz_f: float | None = None
    lipschitz_g: float | None = None
    f_star: float | None = None
    x_star: np.ndarray | None = None
    meta: dict | None = None


@dataclass
class SaddleOperator:
    """Monotone operator Phi(z) over a product feasible set.

    For a bilinear game Phi is linear: Phi(z) = G z with ``linear_part`` G
    skew-symmetric, which the certificates in mirrorprox.py exploit.
    """

    phi: object
    domain: object  # ProductSetup
    lipschitz: float | None = None
    holder_nu: float | None = None
    holder_l: float | None = None
    linear_part: np.ndarray | None = None
    meta: dict | None = None

    def __call__(self, z):
        return np.asarray(self.phi(np.asarray(z, dtype=float)), dtype=float)
