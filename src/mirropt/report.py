"""Per-iteration traces and their CSV bytes, solver reports, run recorders."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np


@dataclass(slots=True)
class TraceRow:
    k: int
    f_value: float
    g_value: float = float("nan")
    step: float = float("nan")
    M_k: float = float("nan")
    oracle_calls: int = 0
    elapsed_ns: int = 0
    bound_value: float = float("nan")


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


@dataclass(frozen=True)
class RepeatSpan:
    """``count`` rows that share ``row``'s cells except ``k`` and
    ``oracle_calls``, which start at ``row``'s and go up by 1 and by
    ``calls_step`` from one row to the next."""

    row: TraceRow
    count: int
    calls_step: int

    def counting(self):
        """(column, first value, step) of each column that counts up."""
        return (("k", self.row.k, 1),
                ("oracle_calls", self.row.oracle_calls, self.calls_step))

    def __len__(self):
        return self.count

    def __iter__(self):
        counting = self.counting()
        return (replace(self.row, **{c: first + step * i
                                     for c, first, step in counting})
                for i in range(self.count))


def _counter(value, name):
    """``value`` as an int; a negative or fractional one raises ValueError."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < 0:
        raise ValueError(f"span {name} must be an integer >= 0, got {value!r}")
    return n


class RunTrace:
    """Append-only list of TraceRow with a non-decreasing oracle counter.

    Rows are not changed once added.  ``parts`` holds them in order as
    lists of rows and as the ``RepeatSpan`` of each ``repeat``, whose rows
    are built only when ``rows`` or iteration asks for them; a serializer
    can format a span's shared cells once.
    """

    def __init__(self):
        self._tail = []             # the list part that append extends
        self.parts = [self._tail]
        self._last_calls = None

    def _advance(self, first_calls, last_calls):
        if self._last_calls is not None and first_calls < self._last_calls:
            raise ValueError("oracle call counter must be non-decreasing")
        self._last_calls = last_calls

    def append(self, row):
        self._advance(row.oracle_calls, row.oracle_calls)
        self._tail.append(row)

    def repeat(self, row, count, calls_step):
        """Append ``RepeatSpan(row, count, calls_step)``'s rows.  Its
        ``k``, ``oracle_calls`` and ``calls_step`` must be integers >= 0,
        kept as ints, and its last row's counters below 2**63: the CSV
        writer formats a span's counters as int64."""
        if calls_step < 0:
            raise ValueError("oracle call counter must be non-decreasing")
        k, calls, step = (_counter(row.k, "k"),
                          _counter(row.oracle_calls, "oracle_calls"),
                          _counter(calls_step, "calls_step"))
        if max(k + count - 1, calls + step * (count - 1)) >= 2**63:
            raise ValueError("a span's counters must stay below 2**63")
        if count > 0:
            self._advance(calls, calls + step * (count - 1))
            self._tail = []
            self.parts += [RepeatSpan(replace(row, k=k, oracle_calls=calls),
                                      count, step), self._tail]

    @property
    def rows(self):
        """Every row as one list (building the spans' rows once)."""
        if len(self.parts) > 1:
            self._tail = list(itertools.chain.from_iterable(self.parts))
            self.parts = [self._tail]
        return self._tail

    def __len__(self):
        return sum(map(len, self.parts))

    def __iter__(self):
        return iter(self.rows)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows], dtype=float)


# One row template serves the whole trace: "%d" for TraceRow's int columns
# (an annotation is a string here) and "%.17g" for the floats, which also
# prints nan, inf, -inf and -0.
_TEMPLATE = {f.name: "%d" if f.type == "int" else "%.17g"
             for f in fields(TraceRow)}
_ROW = ",".join(_TEMPLATE.values()) + "\n"
_CELLS = attrgetter(*TRACE_COLUMNS)
_HEADER = (",".join(TRACE_COLUMNS) + "\n").encode("ascii")
# most rows formatted at once, so serialization memory is O(chunk)
_CHUNK_ROWS = 1 << 16


def _chunks(trace):
    """Header plus every row in ASCII chunks of at most ``_CHUNK_ROWS``
    rows, bytes or uint8 row matrices.  A list of rows is formatted by one
    ``%`` over a flat tuple of its cells."""
    yield _HEADER
    for part in getattr(trace, "parts", [trace]):
        if isinstance(part, RepeatSpan):
            yield from _span_chunks(part)
            continue
        rows = iter(part)
        while batch := list(itertools.islice(rows, _CHUNK_ROWS)):
            cells = tuple(itertools.chain.from_iterable(map(_CELLS, batch)))
            yield ((_ROW * len(batch)) % cells).encode("ascii")


def _span_chunks(span):
    """A RepeatSpan's rows: its shared cells formatted once, its counting
    columns written as digits into a uint8 row matrix.  A chunk ends where
    one of them gains a digit, so each has one row width."""
    counting = span.counting()
    cells = {c: _TEMPLATE[c] % getattr(span.row, c) for c in TRACE_COLUMNS}
    start = 0
    while start < span.count:
        low = {c: first + step * start for c, first, step in counting}
        width = {c: len(str(v)) for c, v in low.items()}
        # stop before the first row whose counter reaches 10**width
        stop = min([span.count, start + _CHUNK_ROWS]
                   + [start - (low[c] - 10 ** width[c]) // step
                      for c, _, step in counting if step])
        at, pos = {}, 0
        for c in TRACE_COLUMNS:
            if c in low:
                cells[c] = "0" * width[c]
            at[c], pos = pos, pos + len(cells[c]) + 1
        yield _counted_rows(",".join(cells.values()) + "\n", stop - start,
                            [(at[c], width[c], low[c], step)
                             for c, _, step in counting])
        start = stop


def _counted_rows(line, n, counters):
    """``n`` copies of ``line``, whose counter cells are zeros, as a uint8
    row matrix whose buffer is their bytes, with row i's value low + step * i
    of each (at, width, low, step) counter written in as ASCII digits; a
    span's counters are ints below 2**63, so int64 holds them."""
    rows = np.empty((n, len(line)), dtype=np.uint8)
    rows[:] = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    i = np.arange(n, dtype=np.int64)
    for at, width, low, step in counters:
        values = low + step * i
        for col in reversed(range(at, at + width)):
            tens = values // 10
            rows[:, col] += (values - 10 * tens).astype(np.uint8)
            values = tens
    return rows


@contextlib.contextmanager
def overwrite(path):
    """A binary handle that writes ``path`` from its first byte without
    truncating it on open; on exit, after success or an exception, the file
    is cut at the written position.  Rewriting a file's blocks in place is
    cheap where freeing them is slow (ext4 mounted with ``discard``), and
    neither a shorter rerun nor a failed write leaves the old tail after the
    new bytes; a process killed mid-write can."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def trace_hash(trace, path=None):
    """SHA-256 of the CSV serialization, computed one chunk at a time, from
    one format pass that also writes the same bytes to ``path`` when one is
    given, overwriting it in place."""
    digest = hashlib.sha256()
    with contextlib.nullcontext() if path is None else overwrite(path) as fh:
        for chunk in _chunks(trace):
            digest.update(chunk)
            if fh is not None:
                fh.write(chunk)
            del chunk   # freed before the next chunk is formatted
    return digest.hexdigest()


def trace_csv_text(trace):
    """CSV body with the fixed header; LF endings, '.' decimal, 17 digits.
    It builds the whole text, for tests and inspection; the runner streams."""
    return b"".join(_chunks(trace)).decode("ascii")


@dataclass
class Report:
    """What every solver returns.  For a VI, ``x_out`` is the averaged point
    and ``f_out`` its certified gap; optional fields stay None or empty for
    the methods they do not describe.  ``checks`` lists the (k, error,
    bound) pairs the method's theorem certifies besides gap <= bound."""

    method: str
    x_out: np.ndarray
    f_out: float
    iterations: int
    oracle_calls: int
    trace: RunTrace
    bound: float | None = None          # headline theorem bound, if computable
    gap: float | None = None            # f_out - f_star when f_star known
    g_bar: float | None = None          # constraint value at x_out
    productive: int | None = None       # productive (objective-driven) steps
    lambda_bar: np.ndarray | None = None    # approximate dual multipliers
    iteration_bound: int | None = None
    inner_trials: list = field(default_factory=list)    # line-search trials
    stopped_exact: bool = False
    min_dist: float | None = None       # min over iterates of ||x^k - x_star||
    extras: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (k, error, bound) triples


class Recorder:
    """One solver run's bookkeeping: its one oracle-call counter, its trace,
    the (k, error, bound) checks it certifies and its Report."""

    def __init__(self, method, f_star=None):
        self.method = method
        self.f_star = f_star
        self.calls = 0
        self.trace = RunTrace()
        self.checks = []

    def count(self, fn):
        """``fn`` with each call counted as one of the run's oracle calls."""
        def counted(x):
            self.calls += 1
            return fn(x)
        return counted

    def row(self, k, f_value, g_value=math.nan, step=math.nan, M_k=math.nan,
            bound_value=math.nan):
        """Append row k, stamped with the calls made so far."""
        self.trace.append(TraceRow(k, f_value, g_value, step, M_k, self.calls,
                                   0, bound_value))

    def repeat(self, count, calls_per_row):
        """Append ``count`` copies of the row ``row`` appended last, with k
        going up by 1 from it, and count ``calls_per_row`` calls per copy."""
        last = self.trace.parts[-1][-1]
        self.trace.repeat(replace(last, k=last.k + 1, oracle_calls=self.calls
                                  + calls_per_row), count, calls_per_row)
        self.calls += calls_per_row * count

    @staticmethod
    def finite(value):
        """``value`` if it (or each entry of an array) is finite, else raise."""
        if not (np.isfinite(value).all() if isinstance(value, np.ndarray)
                else math.isfinite(value)):
            raise RuntimeError("non-finite objective value")
        return value

    def gap(self, f_out):
        """f_out - f*, or None with f* unknown."""
        return None if self.f_star is None else f_out - self.f_star

    def report(self, x_out, f_out, **fields):
        """The run's Report, with one iteration per trace row."""
        return Report(self.method, x_out, f_out, len(self.trace), self.calls,
                      self.trace, gap=self.gap(f_out), checks=self.checks,
                      **fields)
