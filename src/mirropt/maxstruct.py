"""Incremental maintenance of f(y) = max_i <a_i, y> under sparse updates.

A tournament tree over the products z = A y lets the maximum and its
argmax be repaired in O(log m) per affected row, so a sparse change of y
touching s rows costs O(s log m) instead of O(m n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseVector:
    """Sorted (index, value) pairs with strictly increasing indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=float)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d and equal length")
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if not np.all(np.isfinite(val)):
            raise ValueError("values must be finite")
        if np.any(val == 0.0):
            raise ValueError("explicit zeros are not stored")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @staticmethod
    def from_dense(x, tol=0.0):
        x = np.asarray(x, dtype=float)
        idx = np.flatnonzero(np.abs(x) > tol)
        return SparseVector(idx, x[idx])

    @staticmethod
    def from_dict(d):
        items = sorted(d.items())
        idx = np.array([i for i, _ in items], dtype=np.int64)
        val = np.array([v for _, v in items], dtype=float)
        return SparseVector(idx, val)

    def to_dense(self, n):
        out = np.zeros(n)
        out[self.indices] = self.values
        return out

    def __len__(self):
        return int(self.indices.size)


def _as_sparse(delta):
    if isinstance(delta, SparseVector):
        return delta
    if isinstance(delta, dict):
        return SparseVector.from_dict(delta)
    return SparseVector.from_dense(delta)


class MaxStructure:
    """Sparse rows of A, the current y and z = A y, and a tournament tree.

    Row indices reported by ``argmax`` are 1-based with ties broken to the
    lowest index.  Affected z_i are recomputed from the full sparse row so
    the result is bit-identical to a from-scratch evaluation.
    """

    def __init__(self, A, y0):
        rows = self._normalize_rows(A)
        y0 = np.asarray(y0, dtype=float).copy()
        self.n = y0.size
        self.m = len(rows)
        if self.m < 1:
            raise ValueError("need at least one row")
        self.row_idx = []
        self.row_val = []
        cols = [[] for _ in range(self.n)]
        for i, (idx, val) in enumerate(rows):
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=float)
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise ValueError("row index out of range")
            self.row_idx.append(idx)
            self.row_val.append(val)
            for j in idx:
                cols[j].append(i)
        self.col_rows = [np.array(c, dtype=np.int64) for c in cols]
        self.y = y0
        self.z = np.array([self._row_product(i) for i in range(self.m)])
        # complete binary tournament tree over the next power of two; plain
        # lists keep the hot repair path free of numpy scalar overhead
        size = 1
        while size < self.m:
            size *= 2
        self.leaf_base = size
        self.depth = size.bit_length()      # path length leaf -> root in nodes
        self.tree_val = [-np.inf] * (2 * size)
        self.tree_arg = [self.m] * (2 * size)
        for i in range(self.m):
            self.tree_val[self.leaf_base + i] = float(self.z[i])
            self.tree_arg[self.leaf_base + i] = i
        for node in range(size - 1, 0, -1):
            self._pull(node)

    @staticmethod
    def _normalize_rows(A):
        if hasattr(A, "tocsr"):
            A = A.tocsr()
            return [(A.indices[A.indptr[i]:A.indptr[i + 1]],
                     A.data[A.indptr[i]:A.indptr[i + 1]])
                    for i in range(A.shape[0])]
        if isinstance(A, np.ndarray):
            out = []
            for row in np.asarray(A, dtype=float):
                idx = np.flatnonzero(row)
                out.append((idx, row[idx]))
            return out
        # list of (indices, values) pairs
        return [(np.asarray(i, dtype=np.int64), np.asarray(v, dtype=float))
                for i, v in A]

    def _row_product(self, i):
        # single np.dot keeps summation order identical to brute force
        return float(np.dot(self.row_val[i], self.y[self.row_idx[i]]))

    def _pull(self, node):
        left = 2 * node
        val, arg = self.tree_val, self.tree_arg
        if val[left + 1] > val[left]:
            val[node] = val[left + 1]
            arg[node] = arg[left + 1]
        else:
            val[node] = val[left]
            arg[node] = arg[left]

    @property
    def value(self):
        return float(self.tree_val[1])

    @property
    def argmax(self):
        return int(self.tree_arg[1]) + 1

    def query(self):
        return self.value, self.argmax

    def apply_sparse_update(self, delta):
        """y <- y + delta; returns (new_value, new_argmax, touched_count)."""
        delta = _as_sparse(delta)
        if delta.indices.size and (delta.indices.min() < 0
                                   or delta.indices.max() >= self.n):
            raise ValueError("delta index out of range")
        self.y[delta.indices] += delta.values
        affected = np.unique(np.concatenate(
            [self.col_rows[j] for j in delta.indices])) \
            if delta.indices.size else np.array([], dtype=np.int64)
        touched = 0
        for i in affected.tolist():
            zi = self._row_product(i)
            self.z[i] = zi
            node = self.leaf_base + i
            self.tree_val[node] = zi
            touched += 1
            while node > 1:
                node //= 2
                self._pull(node)
                touched += 1
        return self.value, self.argmax, touched

    def current_subgradient(self):
        """The attaining row a_{argmax} as a sparse vector."""
        i = self.tree_arg[1]
        return SparseVector(self.row_idx[i], self.row_val[i])

    def brute_force(self):
        """From-scratch (value, argmax) with the same per-row summation."""
        best = -np.inf
        best_i = 0
        for i in range(self.m):
            zi = float(np.dot(self.row_val[i], self.y[self.row_idx[i]]))
            if zi > best:        # strict: ties keep the lowest index
                best, best_i = zi, i
        return best, best_i + 1

