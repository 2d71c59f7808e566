"""Per-iteration traces and final solver reports."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
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


class RunTrace:
    """Append-only list of TraceRow with a non-decreasing oracle counter."""

    def __init__(self):
        self.rows = []

    def append(self, row):
        if self.rows and row.oracle_calls < self.rows[-1].oracle_calls:
            raise ValueError("oracle call counter must be non-decreasing")
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows], dtype=float)


@dataclass
class Report:
    """What every solver returns.  For a VI, ``x_out`` is the averaged point
    and ``f_out`` its certified gap; optional fields stay None or empty for
    the methods they do not describe."""

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
    m_ks: list = field(default_factory=list)            # accepted constants
    inner_trials: list = field(default_factory=list)    # line-search trials
    stopped_exact: bool = False
    violations: list = field(default_factory=list)
    min_dist: float | None = None       # min over iterates of ||x^k - x_star||
    extras: dict = field(default_factory=dict)
