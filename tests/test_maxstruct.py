import math

import numpy as np
import pytest

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
            affected = len(set(i for j in idx for i in s.col_rows[j]))
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
            f_yp = max(np.dot(v, yp[i]) for i, v in
                       zip(s.row_idx, s.row_val))
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
