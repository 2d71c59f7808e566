"""The accelerated and descent loops allocate their n-vectors once per run:
past its first iterations, no iteration of a run allocates an n-vector,
and a subgradient is still checked before it is written into one."""

import tracemalloc

import numpy as np
import pytest

from mirropt.geometry import (DimensionMismatchError, FeasibleSet,
                              euclidean_setup)
from mirropt.oracles import FunctionOracle, LinearOracle, ProblemInstance
from mirropt.smoothing import agm_solve, universal_agm
from mirropt.subgradient import run_adaptive_md, run_fixed_md

DIM = 100_000
N = 20


class _Watched:
    """A LinearOracle that records, from its 5th call on, how far the
    traced memory has peaked above what was in use at that call."""

    def __init__(self, a):
        self.oracle = LinearOracle(a)
        self.calls = 0
        self.base = self.growth = None

    def __call__(self, x):
        self.calls += 1
        if self.calls == 5:
            self.base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        elif self.calls > 5:
            self.growth = tracemalloc.get_traced_memory()[1] - self.base
        return self.oracle(x)


SOLVES = {
    "universal_agm": lambda p, s: universal_agm(p, s, eps=1e-3, L0=1.0, N=N),
    "agm": lambda p, s: agm_solve(p, s, L=1.0, N=N),
    "fixed_md": lambda p, s: run_fixed_md(p, s, R=np.sqrt(DIM),
                                          M=np.sqrt(DIM), N=N),
    "adaptive_md": lambda p, s: run_adaptive_md(p, s, eps=1e-3, N=N),
}


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES)
def test_no_iteration_allocates_an_n_vector(solve):
    a = np.random.default_rng(0).uniform(-1.0, 1.0, size=DIM)
    watched = _Watched(a)
    box = FeasibleSet.box(np.full(DIM, -1.0), np.full(DIM, 1.0))
    problem = ProblemInstance(objective=watched, set=box)
    tracemalloc.start()
    try:
        rep = solve(problem, euclidean_setup(box))
    finally:
        tracemalloc.stop()
    assert rep.iterations == N and watched.calls > 5
    assert watched.growth < 8 * DIM


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES)
def test_a_subgradient_of_another_shape_is_refused(solve):
    """Written into a run array, a (1,) subgradient would broadcast over
    all 3 coordinates; the loops refuse it as an allocating step did."""
    box = FeasibleSet.box(np.full(3, -1.0), np.full(3, 1.0))
    problem = ProblemInstance(
        objective=FunctionOracle(lambda x: float(x @ x), lambda x: np.ones(1)),
        set=box)
    with pytest.raises(DimensionMismatchError):
        solve(problem, euclidean_setup(box))
