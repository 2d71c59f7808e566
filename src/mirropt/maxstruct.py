"""Incremental maintenance of f(y) = max_i <a_i, y> under sparse updates.

A tournament tree over z = A y repairs the maximum and its argmax in
O(log m) per affected row, stopping at the first node a repair leaves
unchanged, so a sparse change of y touching s rows costs O(s log m)
instead of O(m n).  The tree is two flat arrays, float64 values and int64
argmaxes, 16 B per node, read and written through ``memoryview``s as
Python floats and ints.  The build (in blocks of 2^14 rows, so its
gathered temporaries stay small) and each update compute their z_i in one
batched product per group of equal-length rows, a stacked
(1, k) @ (k, 1) ``matmul``: numpy runs each block through the same
``ddot`` as ``np.dot``, so z agrees to the bit with the per-row products
of ``brute_force``.  ``A @ y`` would not: scipy's CSR product sums in
another order."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


_BUILD_ROWS = 1 << 14     # rows per product block of the build


def _int_indices(indices):
    """The indices as int64; a value that is not an integer raises instead
    of being truncated."""
    raw = np.asarray(indices)
    if raw.dtype.kind in "iu":
        return raw.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):          # nan and inf fail below
        idx = raw.astype(np.int64)
    if not np.array_equal(idx, raw):
        raise ValueError("indices must be integers")
    return idx


@dataclass(frozen=True)
class SparseVector:
    """Sorted (index, value) pairs with strictly increasing indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = _int_indices(self.indices)
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

    @classmethod
    def _trusted(cls, indices, values):
        """Wrap arrays already known to satisfy the rules, unchecked."""
        v = object.__new__(cls)
        object.__setattr__(v, "indices", indices)
        object.__setattr__(v, "values", values)
        return v

    @staticmethod
    def from_dense(x, tol=0.0):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("a dense vector must be 1-d")
        idx = np.flatnonzero(np.abs(x) > tol)
        return SparseVector(idx, x[idx])

    @staticmethod
    def from_dict(d):
        items = sorted(d.items())
        return SparseVector([i for i, _ in items], [v for _, v in items])

    def to_dense(self, n):
        out = np.zeros(n)
        out[self.indices] = self.values
        return out

    def __len__(self):
        return int(self.indices.size)


def _as_sparse(delta, n):
    if isinstance(delta, SparseVector):
        return delta
    if isinstance(delta, dict):
        return SparseVector.from_dict(delta)
    if np.shape(delta) != (n,):
        raise ValueError(f"a dense delta must have shape ({n},)")
    return SparseVector.from_dense(delta)


def _csr_arrays(A):
    """Fresh indptr, int64 indices, float data and column count (None for a
    list) of A: scipy sparse, dense 2-d (zeros dropped) or row pairs."""
    if isinstance(A, np.ndarray):
        if A.ndim != 2:
            raise ValueError("a dense A must be 2-d")
        A = sp.csr_matrix(A, dtype=float)
    if hasattr(A, "tocsr"):
        A = A.tocsr()
        return (np.array(A.indptr, dtype=np.int64), np.array(
            A.indices, dtype=np.int64), np.array(A.data, dtype=float), A.shape[1])
    rows = [(_int_indices(i), np.asarray(v, dtype=float))
            for i, v in A]
    if any(i.ndim != 1 or i.shape != v.shape for i, v in rows):
        raise ValueError("a row needs 1-d indices and values of one length")
    sizes = [i.size for i, _ in rows]
    return (np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            np.concatenate([np.empty(0, np.int64)] + [i for i, _ in rows]),
            np.concatenate([np.empty(0)] + [v for _, v in rows]), None)


class MaxStructure:
    """Read-only CSR and CSC copies of A, y, z = A y and a tournament tree.

    ``argmax`` is 1-based with ties broken to the lowest index.  Affected
    z_i are recomputed from the full sparse row, bit-identical to
    ``brute_force``."""

    def __init__(self, A, y0):
        self.y = y0 = np.array(y0, dtype=float)
        indptr, indices, data, cols = _csr_arrays(A)
        self.n, self.m = y0.size, indptr.size - 1
        # the SparseVector rules, checked once for every row
        if y0.ndim != 1 or cols not in (None, self.n) or self.m < 1:
            raise ValueError("need a 1-d y0 and A of >= 1 row, len(y0) columns")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError("row index out of range")
        if not (np.isfinite(data).all() and np.isfinite(y0).all()):
            raise ValueError("A and y0 must be finite")
        if np.any(data == 0.0):
            raise ValueError("explicit zeros are not stored")
        csr = sp.csr_matrix((data, indices, indptr), shape=(self.m, self.n))
        if not csr.has_canonical_format:
            raise ValueError("row indices must be strictly increasing")
        csc = csr.tocsc()          # each column's rows in ascending order
        self._csr = indptr, indices, data
        self._csc = csc.indptr, csc.indices
        del csr, csc               # and with them scipy's copies of the data
        for a in self._csr + self._csc:
            a.setflags(write=False)
        self.z = np.empty(self.m)
        for lo in range(0, self.m, _BUILD_ROWS):   # caps the gathered arrays
            rows = np.arange(lo, min(lo + _BUILD_ROWS, self.m))
            self.z[lo:lo + rows.size] = self._products(rows)
        if not np.isfinite(self.z).all():
            raise ValueError("A y0 overflows")
        # complete tournament tree, built level by level; ties go left
        self.leaf_base = size = 1 << (self.m - 1).bit_length()
        val = np.full(2 * size, -np.inf)
        arg = np.full(2 * size, self.m, dtype=np.int64)
        val[size:size + self.m], arg[size:size + self.m] = self.z, range(self.m)
        while size > 1:
            lo, size = size, size // 2
            take = val[lo + 1:2 * lo:2] > val[lo:2 * lo:2]
            val[size:lo] = np.where(take, val[lo + 1:2 * lo:2], val[lo:2 * lo:2])
            arg[size:lo] = np.where(take, arg[lo + 1:2 * lo:2], arg[lo:2 * lo:2])
        # memoryviews read and write Python floats and ints, 16 B per node
        self._val, self._arg = memoryview(val), memoryview(arg)

    def _products(self, rows):
        """<a_i, y> for the given rows, bit-equal to a per-row ``np.dot``."""
        indptr, indices, data = self._csr
        start = indptr[rows]
        counts = indptr[rows + 1] - start
        z = np.zeros(rows.size)              # empty rows: np.dot gives 0.0
        for k in np.unique(counts[counts > 0]).tolist():
            group = np.flatnonzero(counts == k)
            pos = start[group, None] + np.arange(k)
            a, b = data[pos][:, None, :], self.y[indices[pos]][:, :, None]
            # 1-element np.dot is the bare product (-0.0 kept); matmul adds +0.0
            z[group] = (a * b if k == 1 else a @ b)[:, 0, 0]
        return z

    tree_val = property(lambda self: self._val.tolist(),
                        doc="A snapshot of the tree's values, root at 1.")
    tree_arg = property(lambda self: self._arg.tolist(),
                        doc="A snapshot of the tree's 0-based argmaxes.")

    def row(self, i):
        """Row i (0-based) as a read-only sparse vector."""
        indptr, indices, data = self._csr
        a, b = indptr[i], indptr[i + 1]
        return SparseVector._trusted(indices[a:b], data[a:b])

    def col_rows(self, j):
        """The rows (0-based, ascending) with a nonzero in column j."""
        ptr, rows = self._csc
        return rows[ptr[j]:ptr[j + 1]]

    value = property(lambda self: self._val[1])
    argmax = property(lambda self: self._arg[1] + 1)    # 1-based

    def query(self):
        return self._val[1], self._arg[1] + 1

    def apply_sparse_update(self, delta):
        """y <- y + delta; returns (new_value, new_argmax, touched_count).
        delta is a SparseVector, an {index: value} dict or a dense array of
        shape (n,).  A malformed delta, or an update making y or A y
        non-finite, raises and changes nothing."""
        delta = _as_sparse(delta, self.n)
        idx = delta.indices
        if not idx.size:
            return self.value, self.argmax, 0
        if idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError("delta index out of range")
        ptr, rows = self._csc
        y, old = self.y, self.y[idx]
        y[idx] = new = old + delta.values
        aff = np.unique(np.concatenate(
            [rows[ptr[j]:ptr[j + 1]] for j in idx.tolist()]))
        zs = self._products(aff)
        if not (np.isfinite(new).all() and np.isfinite(zs).all()):
            y[idx] = old
            raise ValueError("the update makes y or A y non-finite")
        self.z[aff] = zs
        val, arg, touched = self._val, self._arg, 0
        for i, v in zip(aff.tolist(), zs.tolist()):
            node, w = self.leaf_base + i, i
            while node:      # up to the root; node 0 is an unused slot
                # stop at the first node left as it was, sign of zero too
                touched += 1
                prev = val[node]
                if w == arg[node] and v == prev and (
                        v or math.copysign(1.0, v) == math.copysign(1.0, prev)):
                    break
                val[node], arg[node] = v, w
                # the parent takes the larger child; ties go left
                vs = val[node ^ 1]
                if (vs >= v) if node & 1 else (vs > v):
                    v, w = vs, arg[node ^ 1]
                node >>= 1
        return self.value, self.argmax, touched

    def current_subgradient(self):
        """The attaining row a_{argmax} as a read-only sparse vector."""
        return self.row(self._arg[1])

    def brute_force(self):
        """From-scratch (value, argmax) with the same per-row summation."""
        indptr, indices, data = self._csr
        ptr, y_at, best, best_i = indptr.tolist(), self.y[indices], -np.inf, 0
        for i, (a, b) in enumerate(zip(ptr, ptr[1:])):
            zi = float(np.dot(data[a:b], y_at[a:b]))
            if zi > best:        # strict: ties keep the lowest index
                best, best_i = zi, i
        return best, best_i + 1
