"""The accelerated and descent loops allocate their n-vectors once per run:
past its first iterations, no iteration of a run allocates an n-vector,
and a subgradient is still checked before it is written into one.  A
run's arrays are freed when it returns."""

import gc
import tracemalloc

import numpy as np
import pytest

from mirropt import bench
from mirropt.constrained import (solve_constrained_general,
                                 solve_constrained_nonsmooth)
from mirropt.geometry import (DimensionMismatchError, FeasibleSet,
                              ProductSetup, euclidean_setup)
from mirropt.mirrorprox import mirror_prox_solve, universal_mirror_prox_solve
from mirropt.oracles import (FunctionOracle, LinearOracle, ProblemInstance,
                             SaddleOperator)
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


def _operator(problem, setup):
    """The objective's subgradient as Phi, over a one-part product."""
    return SaddleOperator(lambda z: problem.objective(z).subgradient,
                          ProductSetup(setup))


# Mirror Prox's steps are also written into run arrays
SHAPE_SOLVES = {
    **SOLVES,
    "mirror_prox": lambda p, s: mirror_prox_solve(
        _operator(p, s), ProductSetup(s), L=1.0, N=N),
    "universal_mirror_prox": lambda p, s: universal_mirror_prox_solve(
        _operator(p, s), ProductSetup(s), eps=1e-3, M_init=1.0, N=N),
}


@pytest.mark.parametrize("solve", SHAPE_SOLVES.values(), ids=SHAPE_SOLVES)
def test_a_subgradient_of_another_shape_is_refused(solve):
    """Written into a run array, a (1,) subgradient or Phi would broadcast
    over all 3 coordinates; the loops refuse it as an allocating step did."""
    box = FeasibleSet.box(np.full(3, -1.0), np.full(3, 1.0))
    problem = ProblemInstance(
        objective=FunctionOracle(lambda x: float(x @ x), lambda x: np.ones(1)),
        set=box)
    with pytest.raises(DimensionMismatchError):
        solve(problem, euclidean_setup(box))


SWITCHING = (solve_constrained_nonsmooth, solve_constrained_general)


@pytest.mark.parametrize("solve", [*SHAPE_SOLVES.values(), *SWITCHING],
                         ids=[*SHAPE_SOLVES, "constrained_nonsmooth",
                              "constrained_general"])
def test_a_run_leaves_no_reference_cycle(solve):
    """No cycle (a loop object holding an oracle that its call counter
    wraps around it, say) keeps a run's arrays until the collector runs."""
    problem, _ = bench.PROBLEMS["toy_lp"]({}, 1)
    setup = bench._make_setup(problem, {})
    args = (0.1,) if solve in SWITCHING else ()
    gc.collect()
    gc.disable()
    try:
        solve(problem, setup, *args)
        assert gc.collect() == 0
    finally:
        gc.enable()
