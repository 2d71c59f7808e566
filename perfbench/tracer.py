"""In-memory span recorder for the traced benchmark run, and a lighter
per-call timer for the latency rounds of the untraced run.

Spans are recorded around calls into the library's public functions and
methods by replacing them, for the duration of a traced round, with thin
wrappers.  Each span stores (name, start, end, parent, run id) in compact
columns; nothing is written until the run ends.  A layer's self time is
its spans' duration minus the time covered by their direct children,
corrected for the recorder's own calibrated per-span cost.
"""

from __future__ import annotations

import contextlib
import functools
import pathlib
import time
from array import array

import numpy as np

clock = time.perf_counter_ns


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self._stack = [-1]
        self.run_id = -1
        self.counters = {}          # (run id, key) -> accumulated value
        self.missing = []           # patch points the library no longer has
        self._patches = []
        self._sampled = set()       # span names whose argument bytes are known
        self.bytes_per_call = {}
        self.overhead_in_ns = 0.0
        self.overhead_out_ns = 0.0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0.0) + value

    def wrap(self, name, fn, observe=None, count_bytes=False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``observe(rec, args, result)`` runs after the span closes.  With
        ``count_bytes`` the first call records the bytes of its array
        arguments and array result (computed, not measured).
        """
        nid = self._name_id(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(rec.start)
            parent = rec._stack[-1]
            rec.name.append(nid)
            rec.parent.append(parent)
            rec.run.append(rec.run_id)
            rec.end.append(0)
            rec._stack.append(sid)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[sid] = clock()
                rec._stack.pop()
            if observe is not None:
                observe(rec, args, result)
            if count_bytes and name not in rec._sampled \
                    and (parent < 0 or rec.name[parent] != nid):
                rec._sampled.add(name)
                rec.bytes_per_call[name] = _array_bytes(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, observe=None, count_bytes=False):
        is_map = isinstance(owner, dict)
        if (attr not in owner) if is_map else not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = owner[attr] if is_map else getattr(owner, attr)
        wrapped = self.wrap(name, original, observe, count_bytes)
        if is_map:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, wrapped))

    def install(self):
        """Wrap every layer boundary listed in ``_patch_points``."""
        if self._patches:
            for owner, attr, _, wrapped in self._patches:
                _set(owner, attr, wrapped)
            return
        for args in _patch_points():
            self.patch(*args[:3], **(args[3] if len(args) > 3 else {}))

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            _set(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, run_id):
        """Record spans under ``run_id`` for the duration of the block."""
        self.run_id = run_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- calibration and analysis -------------------------------------------

    def calibrate(self, calls=20000):
        """Measure the recorder's cost per span inside and outside its stamps."""
        def noop():
            return None
        wrapped = self.wrap("calibrate", noop)
        best_plain = best_wrapped = None
        for _ in range(3):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            best_plain = min(best_plain or t1 - t0, t1 - t0)
            best_wrapped = min(best_wrapped or t2 - t1, t2 - t1)
        dur = np.frombuffer(self.end, dtype=np.int64) \
            - np.frombuffer(self.start, dtype=np.int64)
        self.overhead_in_ns = float(np.median(dur))
        total = (best_wrapped - best_plain) / calls
        self.overhead_out_ns = max(total - self.overhead_in_ns, 0.0)
        for col in (self.name, self.start, self.end, self.parent, self.run):
            del col[:]

    def columns(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
        }

    def layer_table(self, runs):
        """Per span name: corrected self ns, outermost calls and durations,
        over the spans recorded in ``runs``."""
        c = self.columns()
        n = c["name"].size
        if n == 0:
            return {}
        dur = (c["end"] - c["start"]).astype(float)
        has_parent = c["parent"] >= 0
        child_ns = np.zeros(n)
        child_cnt = np.zeros(n)
        np.add.at(child_ns, c["parent"][has_parent], dur[has_parent])
        np.add.at(child_cnt, c["parent"][has_parent], 1.0)
        self_ns = dur - child_ns - self.overhead_in_ns \
            - child_cnt * self.overhead_out_ns
        self_ns = np.maximum(self_ns, 0.0)
        parent_name = np.full(n, -1, dtype=np.int64)
        parent_name[has_parent] = c["name"][c["parent"][has_parent]]
        outermost = parent_name != c["name"]
        keep = np.isin(c["run"], np.asarray(sorted(runs), dtype=np.int64))
        table = {}
        for nid, name in enumerate(self.names):
            sel = keep & (c["name"] == nid)
            if not sel.any():
                continue
            table[name] = {
                "self_ns": float(self_ns[sel].sum()),
                "calls": int((sel & outermost).sum()),
                "dur_ns": dur[sel & outermost],
            }
        return table

    def save(self, path):
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.asarray(self.names), **self.columns())


class CallTimer:
    """Wall ns of every outermost call into chosen library functions.

    Each point is (owner, attribute, group).  While installed, a call is
    timed with one clock pair and appended to its group's samples; a call
    made inside another call of the same group (a product setup's mirror
    step calling its parts', a bundle calling its pieces) is not timed on
    its own.
    """

    def __init__(self, points):
        self.points = points
        self.samples = {group: array("q") for _, _, group in points}
        self._patches = []

    def _timed(self, fn, group):
        samples = self.samples[group]
        busy = self._busy

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if busy[group]:
                return fn(*args, **kwargs)
            busy[group] = True
            try:
                t0 = clock()
                result = fn(*args, **kwargs)
                samples.append(clock() - t0)
            finally:
                busy[group] = False
            return result

        return timed

    @contextlib.contextmanager
    def timing(self):
        """Time the points' calls for the duration of the block."""
        self._busy = {group: False for group in self.samples}
        self._patches = [(owner, attr, getattr(owner, attr))
                         for owner, attr, _ in self.points]
        for (owner, attr, original), (_, _, group) in zip(self._patches,
                                                          self.points):
            setattr(owner, attr, self._timed(original, group))
        try:
            yield
        finally:
            for owner, attr, original in self._patches:
                setattr(owner, attr, original)

    def take(self, group):
        """The group's samples since the last take, as an int64 array."""
        out = np.frombuffer(self.samples[group], dtype=np.int64).copy()
        del self.samples[group][:]
        return out


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _array_bytes(args, result):
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    sub = getattr(result, "subgradient", result)
    if isinstance(sub, np.ndarray):
        total += sub.nbytes
    return total


# -- observers: counts measured where the work happens ----------------------

def _observe_constrained(rec, args, report):
    rec.add("constrained.productive", report.productive)
    rec.add("constrained.iterations", report.iterations)


def _observe_trials(prefix):
    def observe(rec, args, report):
        trials = getattr(report, "inner_trials", None)
        if trials is None:
            trials = (getattr(report, "extras", None) or {}).get("inner_trials")
        if trials:
            rec.add(prefix + ".trials", sum(trials))
            rec.add(prefix + ".trial_iters", len(trials))
    return observe


def _observe_write(rec, args, written):
    rec.add("bench.bytes_written", written)


def _observe_update(rec, args, result):
    rec.add("maxstruct.touched", result[2])


def _patch_points():
    from mirropt import (bench, constrained, geometry, maxstruct, mirrorprox,
                         oracles, problems, report, smoothing, subgradient)

    points = [(bench, "run_experiment", "bench.run_experiment")]
    points += [(bench.PROBLEMS, key, "problems.build") for key in bench.PROBLEMS]
    points += [(problems, "linprog", "problems.lp"),
               (bench, "linprog", "problems.lp")]
    for fn in ("run_shor", "run_fixed_md", "run_adaptive_md",
               "run_normalized_md", "run_strongly_convex_md"):
        points.append((subgradient, fn, "subgradient"))
    for fn in ("solve_constrained_nonsmooth", "solve_constrained_general"):
        points.append((constrained, fn, "constrained",
                       {"observe": _observe_constrained}))
    points += [(smoothing, "agm_solve", "smoothing"),
               (smoothing, "universal_agm", "smoothing",
                {"observe": _observe_trials("smoothing")}),
               (mirrorprox, "mirror_prox_solve", "mirrorprox"),
               (mirrorprox, "universal_mirror_prox_solve", "mirrorprox",
                {"observe": _observe_trials("mirrorprox")}),
               (mirrorprox, "saddle_gap", "mirrorprox.gap")]
    counted = {"count_bytes": True}
    for cls in (oracles.FunctionOracle, oracles.LinearOracle,
                oracles.AbsLinearOracle):
        points.append((cls, "__call__", "oracles.objective", counted))
    points += [(oracles, "aggregate_max", "oracles.constraint", counted),
               (constrained, "aggregate_max", "oracles.constraint", counted),
               (oracles.SaddleOperator, "__call__", "oracles.operator", counted)]
    for cls in (geometry.ProxSetup, geometry.ProductSetup):
        for meth in ("dual_norm", "mirror_step", "norm"):
            points.append((cls, meth, "geometry." + meth, counted))
    points += [(report.RunTrace, "append", "report.append"),
               (bench, "trace_csv_text", "bench.trace_csv_text"),
               (bench, "trace_hash", "bench.trace_hash"),
               (bench, "_check_bounds", "bench.check_bounds"),
               (pathlib.Path, "write_text", "bench.write",
                {"observe": _observe_write})]
    ms = maxstruct.MaxStructure
    points += [(ms, "__init__", "maxstruct.build"),
               (ms, "apply_sparse_update", "maxstruct.update",
                {"observe": _observe_update}),
               (ms, "query", "maxstruct.query"),
               (ms, "current_subgradient", "maxstruct.query"),
               (ms, "brute_force", "maxstruct.brute_force")]
    return points
