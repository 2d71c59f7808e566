import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt.maxstruct import MaxStructure, SparseVector
from mirropt.problems import gen_ttd_dual


def random_sparse_rows(rng, m, n, nnz):
    rows = []
    for _ in range(m):
        k = rng.integers(1, nnz + 1)
        idx = np.sort(rng.choice(n, size=k, replace=False))
        rows.append((idx, rng.standard_normal(k)))
    return rows


class TestSparseVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([2, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SparseVector(np.array([0]), np.array([0.0]))
        with pytest.raises(ValueError):
            SparseVector(np.array([0]), np.array([np.inf]))

    @pytest.mark.parametrize("indices", [[0.5, 1.7], [0.0, 1.5], [np.nan, 1],
                                         [1e30, 2e30], ["0", "1"]])
    def test_rejects_fractional_indices(self, indices):
        """A non-integral index raises instead of being truncated."""
        with pytest.raises(ValueError):
            SparseVector(np.array(indices), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("indices", [
        [0, 3], np.array([0, 3], dtype=np.int32),
        np.array([0, 3], dtype=np.uint8), [0.0, 3.0], np.array([0.0, 3.0])])
    def test_accepts_integral_indices(self, indices):
        v = SparseVector(indices, np.array([1.0, 2.0]))
        assert v.indices.dtype == np.int64
        assert list(v.indices) == [0, 3]

    def test_from_dense_rejects_non_1d(self):
        with pytest.raises(ValueError):
            SparseVector.from_dense(np.ones((2, 3)))

    def test_roundtrip(self):
        v = SparseVector.from_dense(np.array([0.0, 2.0, 0.0, -1.0]))
        assert list(v.indices) == [1, 3]
        assert np.array_equal(v.to_dense(4), [0.0, 2.0, 0.0, -1.0])


class TestBuild:
    def test_tie_to_lowest_index(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        s = MaxStructure(A, np.zeros(2))
        assert s.value == 0.0
        assert s.argmax == 1

    def test_single_row(self):
        s = MaxStructure(np.array([[2.0, -1.0]]), np.array([1.0, 1.0]))
        assert s.value == 1.0
        assert s.argmax == 1

    def test_zero_matrix(self):
        s = MaxStructure(np.zeros((4, 3)), np.array([5.0, -2.0, 1.0]))
        assert s.value == 0.0
        assert s.argmax == 1

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            MaxStructure([(np.array([5]), np.array([1.0]))], np.zeros(2))


def _csr(data, indices, indptr, shape):
    return sp.csr_matrix((np.array(data, dtype=float), np.array(indices),
                          np.array(indptr)), shape=shape)


class TestBuildValidation:
    """Every row is checked once, at build, against the SparseVector rules.
    Most inputs below used to build without an error; the rest guard checks
    the old per-row build made on its own."""

    @pytest.mark.parametrize("A, y0", [
        (_csr([1.0, np.nan], [0, 1], [0, 1, 2], (2, 2)), np.zeros(2)),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), np.zeros(2)),
        ([(np.array([0]), np.array([-np.inf]))], np.zeros(2)),
        (np.eye(2), np.array([0.0, np.nan])),
        (np.eye(2), np.array([np.inf, 0.0])),
    ], ids=["nan-in-csr", "inf-in-dense", "inf-in-list", "nan-in-y0",
            "inf-in-y0"])
    def test_non_finite(self, A, y0):
        with pytest.raises(ValueError):
            MaxStructure(A, y0)

    @pytest.mark.parametrize("A", [
        np.ones((2, 3)), sp.csr_matrix(np.ones((2, 5))),
        [(np.array([4]), np.array([1.0]))], np.ones(4)],
        ids=["dense-width-3", "csr-width-5", "list-index-4", "dense-1d"])
    def test_column_count(self, A):
        with pytest.raises(ValueError):
            MaxStructure(A, np.zeros(4))

    @pytest.mark.parametrize("A", [
        _csr([1.0, 2.0], [2, 0], [0, 2], (1, 3)),
        _csr([1.0, 2.0], [1, 1], [0, 2], (1, 3)),
        [(np.array([0]), np.array([1.0])),
         (np.array([2, 1]), np.array([1.0, 1.0]))],
    ], ids=["csr-unsorted", "csr-duplicate", "list-unsorted"])
    def test_increasing_indices(self, A):
        with pytest.raises(ValueError):
            MaxStructure(A, np.zeros(3))

    @pytest.mark.parametrize("A", [
        _csr([1.0, 0.0], [0, 1], [0, 1, 2], (2, 3)),
        [(np.array([0, 2]), np.array([1.0, -0.0]))],
    ], ids=["csr-explicit-zero", "list-explicit-zero"])
    def test_explicit_zeros(self, A):
        with pytest.raises(ValueError):
            MaxStructure(A, np.zeros(3))

    def test_rejects_fractional_row_indices(self):
        with pytest.raises(ValueError):
            MaxStructure([(np.array([0.5, 1.7]), np.array([1.0, 1.0]))],
                         np.zeros(3))
        s = MaxStructure([(np.array([0.0, 2.0]), np.array([1.0, 1.0]))],
                         np.ones(3))
        assert s.query() == (2.0, 1)

    def test_row_shapes(self):
        with pytest.raises(ValueError):
            MaxStructure([(np.array([0, 1]), np.array([1.0]))], np.zeros(2))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_product_overflow(self):
        with pytest.raises(ValueError):
            MaxStructure(np.array([[1.0, 1.0]]), np.array([1e308, 1e308]))

    def test_dense_zeros_dropped(self):
        s = MaxStructure(np.array([[0.0, -0.0, 2.0], [0.0, 0.0, 0.0]]),
                         np.ones(3))
        assert list(s.row(0).indices) == [2] and len(s.row(1)) == 0
        assert s.query() == (2.0, 1)


class TestStorage:
    @pytest.mark.parametrize("kind", ["csr", "dense", "list"])
    def test_copied_from_input(self, kind):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        A = {"csr": sp.csr_matrix(dense), "dense": dense.copy(),
             "list": [(np.array([0, 2]), np.array([1.0, 2.0])),
                      (np.array([1]), np.array([3.0]))]}[kind]
        y0 = np.array([1.0, 1.0, 1.0])
        s = MaxStructure(A, y0)
        y0[:] = 5.0
        if kind == "csr":
            A.data[:] = 7.0
            A.indices[:] = 0
        elif kind == "dense":
            A[:] = 7.0
        else:
            for idx, val in A:
                idx[:] = 0
                val[:] = 7.0
        for i in range(2):
            row = s.row(i)
            assert list(row.indices) == list(np.flatnonzero(dense[i]))
            assert list(row.values) == list(dense[i][dense[i] != 0.0])
        assert s.query() == (3.0, 1) == s.brute_force()
        assert list(s.y) == [1.0, 1.0, 1.0]

    def test_rows_read_only(self):
        s = MaxStructure(np.array([[1.0, 2.0], [0.0, 3.0]]), np.ones(2))
        g = s.current_subgradient()
        for a in (g.indices, g.values, s.row(1).values, s.col_rows(1)):
            with pytest.raises(ValueError):
                a[0] = 9

    def test_reads_are_python_scalars(self):
        s = MaxStructure(np.array([[1.0, 2.0], [0.0, 3.0]]), np.ones(2))
        for _ in range(2):
            reads = (*s.query(), s.value, s.argmax)
            assert [type(r) for r in reads] == [float, int, float, int]
            s.apply_sparse_update({1: 1.0})

    def test_tree_lists_are_snapshots(self):
        s = MaxStructure(np.array([[1.0, 2.0], [0.0, 3.0]]), np.ones(2))
        before = tree_bits(s), s.query()
        val, arg = s.tree_val, s.tree_arg
        val[1], arg[1] = 99.0, 1
        assert (tree_bits(s), s.query()) == before
        with pytest.raises(AttributeError):
            s.tree_val = val

    def test_build_memory_is_flat_arrays(self):
        """The build's traced peak is what its arrays need: the CSR and
        CSC copies, y, z and a tree of 16 B per node, plus the temporaries
        of one batched product over all rows (four gathered arrays of 8 B
        per nonzero, four index arrays of 8 B per row), plus 1 MiB.  A tree
        kept as two Python lists of boxed floats and ints (about 70 B per
        node, 9 MB here) overshoots it."""
        m, n, k = 2 ** 16, 2 ** 14, 4
        rng = np.random.default_rng(29)
        cols = np.sort((np.arange(m)[:, None] + np.arange(k) * (n // k)) % n,
                       axis=1)
        A = sp.csr_matrix((rng.standard_normal(m * k), cols.ravel(),
                           np.arange(0, m * k + 1, k)), shape=(m, n))
        y0 = rng.standard_normal(n)
        gc.collect()
        tracemalloc.start()
        try:
            s = MaxStructure(A, y0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.leaf_base == m and s.query() == s.brute_force()
        arrays = sum(a.nbytes for a in s._csr + s._csc) \
            + s.y.nbytes + s.z.nbytes + 2 * s.leaf_base * 16
        assert peak < arrays + 4 * 8 * (m * k + m) + 2 ** 20


class TestUpdate:
    def test_worked_example(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        s = MaxStructure(A, np.zeros(2))
        value, argmax, touched = s.apply_sparse_update({0: 0.5})
        assert value == 0.5
        assert argmax == 1          # tie with row 3, lowest wins
        assert np.array_equal(s.z, [0.5, 0.0, 0.5])
        g = s.current_subgradient()
        assert list(g.indices) == [0] and list(g.values) == [1.0]

    def test_empty_delta(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = MaxStructure(A, np.array([1.0, 2.0]))
        v0, a0 = s.query()
        value, argmax, touched = s.apply_sparse_update(
            SparseVector(np.array([], dtype=np.int64), np.array([])))
        assert (value, argmax, touched) == (v0, a0, 0)

    def test_delta_on_empty_columns(self):
        """No row reads column 2: y changes, the tree does not."""
        s = MaxStructure(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                         np.array([1.0, 2.0, 5.0]))
        before = tree_bits(s)
        assert s.apply_sparse_update({2: 3.0}) == (2.0, 2, 0)
        assert list(s.y) == [1.0, 2.0, 8.0] and tree_bits(s) == before

    def test_rows_of_every_length_in_one_update(self):
        """Empty rows beside affected rows of lengths 1 (its product -0.0,
        which a matmul would make +0.0), 2 and 3, all in one update."""
        rows = [(np.array([], dtype=np.int64), np.array([])),
                (np.array([0]), np.array([-2.0])),
                (np.array([0, 1]), np.array([1.0, 1.0])),
                (np.array([0, 1, 2]), np.array([1.0, -1.0, 1.0])),
                (np.array([], dtype=np.int64), np.array([])),
                (np.array([2]), np.array([0.5]))]
        s = MaxStructure(rows, np.array([1.0, 1.0, 1.0]))
        assert s.apply_sparse_update({0: -1.0}) == (1.0, 3, 8)
        assert math.copysign(1.0, s.z[1]) == -1.0
        assert list(s.z) == [0.0, 0.0, 1.0, 0.0, 0.0, 0.5]
        assert tree_bits(s) == tree_bits(MaxStructure(rows, s.y))
        assert s.query() == s.brute_force() == (1.0, 3)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_refuses_non_finite_result(self):
        """Neither y nor A y may leave the finite range; a refused update
        leaves y, z and the tree as they were."""
        s = MaxStructure([(np.array([0, 1]), np.array([1.0, 1.0]))],
                         np.array([1e308, 0.0]))
        before = (s.y.tobytes(), s.z.tobytes(), list(s.tree_val),
                  list(s.tree_arg), s.query())
        for delta in ({1: 1e308}, {0: 1e308}, {0: -1.0, 1: 1e308}):
            with pytest.raises(ValueError):
                s.apply_sparse_update(delta)
            assert (s.y.tobytes(), s.z.tobytes(), s.tree_val, s.tree_arg,
                    s.query()) == before
        assert s.apply_sparse_update({1: 1.0}) == (1e308, 1, 1)

    def test_rejects_2d_delta(self):
        s = MaxStructure(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            s.apply_sparse_update(np.ones((1, 3)))

    @pytest.mark.parametrize("delta", [
        {1.9: 1.0}, np.ones(2), np.ones(4), [1.0, 1.0], np.ones((3, 1)),
        np.float64(1.0)])
    def test_rejects_bad_delta_unchanged(self, delta):
        """A fractional index or a dense delta whose shape is not (n,)
        raises and leaves y, z and the tree as they were."""
        s = MaxStructure(np.eye(3), np.array([0.5, -1.0, 0.25]))
        before = (s.y.tobytes(), tree_bits(s), s.query())
        with pytest.raises(ValueError):
            s.apply_sparse_update(delta)
        assert (s.y.tobytes(), tree_bits(s), s.query()) == before
        assert s.apply_sparse_update(np.array([0.0, 2.0, 0.0]))[:2] == (1.0, 2)
        assert s.apply_sparse_update({2.0: 1.0})[:2] == (1.25, 3)

    def test_exact_equality_with_brute_force(self):
        rng = np.random.default_rng(25)
        m, n = 64, 32
        rows = random_sparse_rows(rng, m, n, 5)
        s = MaxStructure(rows, rng.standard_normal(n))
        for _ in range(1000):
            k = rng.integers(1, 4)
            idx = np.sort(rng.choice(n, size=k, replace=False))
            delta = SparseVector(idx, rng.standard_normal(k))
            value, argmax, _ = s.apply_sparse_update(delta)
            bv, ba = s.brute_force()
            assert value == bv       # bit-exact, no tolerance
            assert argmax == ba

    def test_touched_bound(self):
        rng = np.random.default_rng(26)
        m, n = 100, 40
        rows = random_sparse_rows(rng, m, n, 4)
        s = MaxStructure(rows, np.zeros(n))
        cap = math.ceil(math.log2(m)) + 1
        for _ in range(500):
            k = rng.integers(1, 5)
            idx = np.sort(rng.choice(n, size=k, replace=False))
            affected = len(set(i for j in idx for i in s.col_rows(j)))
            _, _, touched = s.apply_sparse_update(
                SparseVector(idx, rng.standard_normal(k)))
            assert touched <= affected * cap

    def test_subgradient_validity(self):
        rng = np.random.default_rng(27)
        m, n = 30, 10
        rows = random_sparse_rows(rng, m, n, 4)
        y = rng.standard_normal(n)
        s = MaxStructure(rows, y)
        g = s.current_subgradient().to_dense(n)
        f_y = s.value
        for _ in range(200):
            yp = rng.standard_normal(n)
            f_yp = max(np.dot(r.values, yp[r.indices])
                       for r in map(s.row, range(s.m)))
            assert f_yp >= f_y + g @ (yp - y) - 1e-12


class TestTtdRows:
    def test_signed_rows_sparse_subgradient(self):
        prob = gen_ttd_dual(6, 8, seed=0)
        rows = prob.meta["rows"]
        signed = np.vstack([rows, -rows])
        y0 = np.zeros(rows.shape[1])
        s = MaxStructure(signed, y0)
        s.apply_sparse_update({0: 0.3})
        g = s.current_subgradient()
        assert len(g) <= 4


@st.composite
def structures(draw):
    """Rows of 0-40 nonzeros (empty and > 8 included), a y holding signed
    zeros, and a stream of up to 12 sparse updates."""
    n = draw(st.integers(1, 48))
    m = draw(st.integers(1, 20))
    nonzero = st.floats(-1e3, 1e3, allow_subnormal=False).filter(bool)
    entry = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
    rows = []
    for _ in range(m):
        idx = sorted(draw(st.sets(st.integers(0, n - 1), max_size=40)))
        vals = draw(st.lists(nonzero, min_size=len(idx), max_size=len(idx)))
        rows.append((np.array(idx, dtype=np.int64), np.array(vals)))
    y0 = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    updates = draw(st.lists(st.dictionaries(
        st.integers(0, n - 1), nonzero, max_size=3), max_size=12))
    return rows, y0, updates


def tree_bits(s):
    return (np.array(s.tree_val).tobytes(), s.tree_arg, s.z.tobytes())


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(structures())
    def test_matches_fresh_build_and_brute_force(self, case):
        rows, y0, updates = case
        s = MaxStructure(rows, y0)
        ref = np.array([np.dot(v, y0[i]) for i, v in rows])
        assert s.z.tobytes() == ref.tobytes()       # per-row np.dot bits
        cap = math.ceil(math.log2(len(rows))) + 1 if len(rows) > 1 else 1
        for delta in updates:
            affected = len({i for j in delta for i in s.col_rows(j)})
            value, argmax, touched = s.apply_sparse_update(delta)
            assert touched <= affected * cap
            assert tree_bits(s) == tree_bits(MaxStructure(rows, s.y))
            assert (value, argmax) == s.query() == s.brute_force()
            g = s.current_subgradient()
            i, v = rows[argmax - 1]
            assert np.array_equal(g.indices, i)
            assert np.array_equal(g.values, v)
            assert not (g.indices.flags.writeable or g.values.flags.writeable)
