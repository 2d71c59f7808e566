"""The benchmark's workloads: seeded inputs, one closed-loop round, checks.

A solver workload runs its experiment configs through
``bench.run_experiment`` (the ``mirropt solve`` path, with output files
written and theorem bounds checked); one round runs every config once.  In
a probe round every oracle call (a read) and mirror step (a write) the
solvers make is timed on its own, which gives their latency distribution
along the solvers' real trajectories.

``maxstruct_stream`` feeds a ``MaxStructure`` a stream of sparse updates,
each followed by a read; one round is a fixed-length segment of the stream.

Every correctness check runs outside the timed regions.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import traceback

import numpy as np
import scipy.sparse as sp

from mirropt import bench
from mirropt.geometry import euclidean_setup
from mirropt.maxstruct import MaxStructure, SparseVector

from tracer import CallTimer, clock


class Outcomes:
    """Attempted and failed operations, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"FAILED: {what}", file=sys.stderr)


def _guarded(outcomes, what, fn, *args):
    """Run one operation; an exception counts as a failed operation."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark must keep counting
        traceback.print_exc()
        outcomes.record(False, f"{what}: exception")
        return None


# ---------------------------------------------------------------------------
# solver workloads
# ---------------------------------------------------------------------------

def _config(seed, generator, problem, method):
    return {"seed": seed, "problem": {"generator": generator, **problem},
            "method": method}


def ttd_switch_configs(seed):
    return {"constrained_nonsmooth": _config(
        seed, "ttd_dual", {"nodes": 40, "bars": 120},
        {"name": "constrained_nonsmooth", "eps": 0.05})}


WIDE_N = 100_000


def wide_md_configs(seed):
    root_n = math.sqrt(WIDE_N)
    box = {"dim": WIDE_N}
    return {
        "fixed_md": _config(seed, "quadratic_box", box,
                            {"name": "fixed_md", "R": root_n, "M": 2 * root_n,
                             "N": 300}),
        "universal_agm": _config(seed, "quadratic_box", box,
                                 {"name": "universal_agm", "eps": 1e-3,
                                  "L0": 1.0, "N": 200}),
    }


def game_mp_configs(seed):
    game = {"rows": 300, "cols": 300, "setup": "entropy"}
    return {
        "mirror_prox": _config(seed, "matrix_game", game,
                               {"name": "mirror_prox", "N": 2000}),
        # N caps the adaptive stop, which fires first
        "universal_mirror_prox": _config(
            seed, "matrix_game", game,
            {"name": "universal_mirror_prox", "eps": 1e-3, "M_init": 1.0,
             "N": 20000}),
    }


def _trace_csv_sha256(path):
    """Hash of a written trace CSV with the elapsed_ns column zeroed: the
    runner's definition of the trace hash, recomputed from the file."""
    digest = hashlib.sha256()
    with open(path, "r", encoding="ascii", newline="") as fh:
        header = fh.readline()
        col = header.rstrip("\n").split(",").index("elapsed_ns")
        digest.update(header.encode("ascii"))
        for line in fh:
            cells = line.rstrip("\n").split(",")
            cells[col] = "0"
            digest.update((",".join(cells) + "\n").encode("ascii"))
    return digest.hexdigest()


def _latency_points():
    """Where a solver reads (an oracle call) and writes (a mirror step)."""
    from mirropt import constrained, geometry, oracles
    reads = [(cls, "__call__", "read")
             for cls in (oracles.FunctionOracle, oracles.LinearOracle,
                         oracles.AbsLinearOracle, oracles.SaddleOperator)]
    reads += [(oracles, "aggregate_max", "read"),
              (constrained, "aggregate_max", "read")]
    writes = [(cls, "mirror_step", "write")
              for cls in (geometry.ProxSetup, geometry.ProductSetup)]
    return reads + writes


# Consecutive calls per latency chunk: short enough that a chunk sees one
# speed state of the machine, long enough that its p99 has 20 calls beyond.
PROBE_CHUNK = 2000


class SolverWorkload:
    kind_of_round = "run_experiment calls"
    # a probe round's call timers slow it down, so its wall time is not an
    # experiment_s sample
    probe_is_free = False

    def __init__(self, make_configs):
        self.make_configs = make_configs

    def prepare(self, seed, outcomes):
        self.configs = self.make_configs(seed)
        self.outcomes = outcomes
        self.hashes = {}
        self.iterations = {}
        self.files_checked = set()
        self.timer = CallTimer(_latency_points())
        self.writes, self.reads = [], []

    def setup_once(self):
        """Build the instance every config of the workload solves, with the
        prox setup and its Theta_0^2; the rounds build their own."""
        cfg = next(iter(self.configs.values()))
        params = {k: v for k, v in cfg["problem"].items() if k != "generator"}
        problem, kind = bench.PROBLEMS[cfg["problem"]["generator"]](
            params, cfg["seed"])
        if kind == "vi":
            return problem, problem.domain
        setup = euclidean_setup(problem.set)
        return problem, euclidean_setup(problem.set, theta0_sq=setup.max_d())

    def latencies(self):
        """Per-call write and read ns, in chunks of consecutive calls."""
        return self.writes, self.reads

    def release(self):
        """A set-up keeps nothing, so there is nothing to drop."""

    # -- one round: every config through run_experiment -----------------------

    def _check_experiment(self, name, code, summary, out_dir):
        ok = code == 0 and summary["bounds_ok"] and summary["bounds_checked"] > 0
        self.outcomes.record(ok, f"{name}: exit code {code}, bounds_ok "
                             f"{summary['bounds_ok']}")
        digest = summary["trace_sha256"]
        first = self.hashes.setdefault(name, digest)
        self.outcomes.record(digest == first, f"{name}: trace hash changed")
        self.iterations[name] = summary["iterations"]
        if name not in self.files_checked:
            self.files_checked.add(name)
            on_disk = _trace_csv_sha256(out_dir / f"{name}_trace.csv")
            self.outcomes.record(on_disk == digest,
                                 f"{name}: written CSV disagrees with hash")

    def round(self, out_dir, rec=None, probe=False):
        """Run each config once, then check the results; returns the wall
        ns spent inside ``run_experiment``.  A probe round also times every
        read and write the solvers make."""
        results = []
        total = 0
        with self.timer.timing() if probe else contextlib.nullcontext():
            for name, cfg in self.configs.items():
                t0 = clock()
                res = _guarded(self.outcomes, name, bench.run_experiment, cfg,
                               out_dir, True, name)
                total += clock() - t0
                results.append((name, res))
        if probe:
            for chunks, group in ((self.writes, "write"), (self.reads, "read")):
                calls = self.timer.take(group)
                chunks.extend(np.array_split(
                    calls, max(1, calls.size // PROBE_CHUNK)))
        for name, res in results:
            if res is not None:
                self._check_experiment(name, *res, out_dir)
        return total

    def finish(self):
        pass

    def iterations_per_round(self):
        return sum(self.iterations.values())


# ---------------------------------------------------------------------------
# the sparse max stream
# ---------------------------------------------------------------------------

STREAM_M = STREAM_N = 200_000
ROW_NNZ = 4
DELTA_NNZ = 3
# The machine's speed switches between states lasting about a second, so a
# round is long enough (about 0.75 s) to average over them.
SEGMENT = 5000          # updates (each followed by a read) per round
CHECK_EVERY = 4         # rounds between brute-force checkpoints
HASH_ROUNDS = 1         # rounds whose read results are hashed


def _distinct_sorted_indices(rng, count, k, n):
    """``count`` rows of ``k`` distinct sorted column indices in [0, n)."""
    idx = rng.integers(0, n, size=(count, k))
    idx.sort(axis=1)
    while True:
        dup = np.flatnonzero((np.diff(idx, axis=1) == 0).any(axis=1))
        if dup.size == 0:
            return idx
        idx[dup] = rng.integers(0, n, size=(dup.size, k))
        idx[dup] = np.sort(idx[dup], axis=1)


def _nonzero_normals(rng, shape):
    vals = rng.standard_normal(shape)
    vals[vals == 0.0] = 1.0
    return vals


class MaxStreamWorkload:
    kind_of_round = f"stream segments of {SEGMENT} update+read pairs"
    # every segment times its calls; the timers are part of the stream
    probe_is_free = True

    def prepare(self, seed, outcomes):
        self.outcomes = outcomes
        rng = np.random.default_rng([seed, 0])
        cols = _distinct_sorted_indices(rng, STREAM_M, ROW_NNZ, STREAM_N)
        vals = _nonzero_normals(rng, (STREAM_M, ROW_NNZ))
        indptr = np.arange(0, ROW_NNZ * STREAM_M + 1, ROW_NNZ)
        self.A = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr),
                               shape=(STREAM_M, STREAM_N))
        self.y = rng.standard_normal(STREAM_N)
        self.delta_rng = np.random.default_rng([seed, 1])
        self.structure = None
        self.csc = None
        self.rounds = 0
        self.writes = []
        self.reads = []
        self.digest = hashlib.sha256()
        self.hashes = {}

    def release(self):
        """Drop the structure, keeping the stream's current y."""
        if self.structure is not None:
            self.y = self.structure.y
            self.structure = None

    def setup_once(self):
        """Build the structure from the stream's current y.  Its state is a
        function of (A, y) alone, so a rebuild leaves the stream unchanged."""
        self.structure = MaxStructure(self.A, self.y)

    def _next_deltas(self):
        idx = _distinct_sorted_indices(self.delta_rng, SEGMENT, DELTA_NNZ,
                                       STREAM_N)
        vals = _nonzero_normals(self.delta_rng, (SEGMENT, DELTA_NNZ))
        return [SparseVector(i, v) for i, v in zip(idx, vals)]

    def _affected_rows(self, deltas):
        """Distinct rows whose product each delta changes, counted from the
        benchmark's own column index of A."""
        if self.csc is None:
            self.csc = self.A.tocsc()
        ptr, rows = self.csc.indptr, self.csc.indices
        return sum(np.unique(np.concatenate(
            [rows[ptr[j]:ptr[j + 1]] for j in d.indices])).size
            for d in deltas)

    def _segment(self, deltas, writes, reads, values, argmaxes):
        s = self.structure
        for i, d in enumerate(deltas):
            t0 = clock()
            s.apply_sparse_update(d)
            t1 = clock()
            result = s.query()
            s.current_subgradient()
            t2 = clock()
            values[i], argmaxes[i] = result
            writes[i] = t1 - t0
            reads[i] = t2 - t1

    def round(self, out_dir, rec=None, probe=False):
        """One stream segment; returns its wall ns.  Reads follow every
        update; the per-call latencies are kept for probe rounds."""
        deltas = self._next_deltas()
        writes = np.zeros(SEGMENT, dtype=np.int64)
        reads = np.zeros(SEGMENT, dtype=np.int64)
        values = np.zeros(SEGMENT)
        argmaxes = np.zeros(SEGMENT, dtype=np.int64)
        segment = self._segment if rec is None \
            else rec.wrap("stream.segment", self._segment)
        t0 = clock()
        try:
            segment(deltas, writes, reads, values, argmaxes)
            ok = True
        except Exception:  # noqa: BLE001 - counted as failed operations
            traceback.print_exc()
            ok = False
        wall = clock() - t0
        for _ in range(SEGMENT):
            self.outcomes.record(ok, f"stream segment {self.rounds}: exception")
        self.rounds += 1
        if probe:
            self.writes.append(writes)
            self.reads.append(reads)
        if rec is not None:
            rec.add("maxstruct.affected_rows", self._affected_rows(deltas))
        if self.rounds <= HASH_ROUNDS:
            self.digest.update(values.tobytes() + argmaxes.tobytes())
            if self.rounds == HASH_ROUNDS:
                self.hashes[f"first_{HASH_ROUNDS * SEGMENT}_reads"] = \
                    self.digest.hexdigest()
        if self.rounds % CHECK_EVERY == 0:
            self.checkpoint(f"update {self.rounds * SEGMENT}")
        return wall

    def finish(self):
        self.checkpoint("the end of the stream")

    def checkpoint(self, where):
        """Bit-exact comparison with the from-scratch evaluation."""
        s = self.structure
        value, arg = s.query()
        ref_value, ref_arg = s.brute_force()
        row = self.A.getrow(ref_arg - 1)
        sub = s.current_subgradient()
        ok = (value == ref_value and arg == ref_arg
              and np.array_equal(sub.indices, row.indices)
              and np.array_equal(sub.values, row.data))
        self.outcomes.record(ok, f"brute-force mismatch at {where}")

    def latencies(self):
        """Per-call write and read ns, one array per probe segment."""
        return self.writes, self.reads

    def iterations_per_round(self):
        return SEGMENT

    def csr_recompute_ns(self, reps=21):
        """Reference baseline: full CSR product and argmax on the same y."""
        y = self.structure.y.copy()
        times = []
        for _ in range(reps):
            t0 = clock()
            int(np.argmax(self.A @ y))
            times.append(clock() - t0)
        return float(np.median(times))


WORKLOADS = {
    "ttd_switch": lambda: SolverWorkload(ttd_switch_configs),
    "wide_md": lambda: SolverWorkload(wide_md_configs),
    "game_mp": lambda: SolverWorkload(game_mp_configs),
    "maxstruct_stream": MaxStreamWorkload,
}
