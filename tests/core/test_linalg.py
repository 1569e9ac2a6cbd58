"""Unit tests for the dense/sparse matrix abstraction layer."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import linalg
from repro.errors import ModelError


@pytest.fixture(params=["dense", "sparse"])
def both(request):
    matrix = np.array([[0.0, 0.7, 0.3], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    if request.param == "sparse":
        return sparse.csr_matrix(matrix)
    return matrix


class TestCoercion:
    def test_square_enforced(self):
        with pytest.raises(ModelError, match="square"):
            linalg.coerce_matrix(np.ones((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            linalg.coerce_matrix(np.zeros((0, 0)))

    def test_sparse_preserved(self):
        out = linalg.coerce_matrix(sparse.csr_matrix(np.eye(2)))
        assert linalg.is_sparse(out)

    def test_sparse_eliminates_zeros(self):
        raw = sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        raw.data[0] = 0.0
        out = linalg.coerce_matrix(raw)
        assert out.nnz == 2

    def test_sparse_merges_duplicate_entries(self):
        # Row 0 holds 0→1 twice at 0.3: one transition of probability 0.6.
        raw = sparse.csr_matrix(
            (np.array([0.3, 0.3, 0.4, 1.0]), np.array([1, 1, 0, 1]), np.array([0, 3, 4])),
            shape=(2, 2),
        )
        assert not raw.has_canonical_format
        out = linalg.coerce_matrix(raw)
        assert out.nnz == 3
        assert out[0, 1] == 0.6
        assert raw.nnz == 4  # the caller's matrix is left alone

    def test_sparse_unsorted_rows_keep_their_order(self):
        raw = sparse.csr_matrix(
            (np.array([0.4, 0.6, 1.0]), np.array([1, 0, 1]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        out = linalg.coerce_matrix(raw)
        np.testing.assert_array_equal(out.indices, [1, 0, 1])
        np.testing.assert_array_equal(out.data, [0.4, 0.6, 1.0])


class TestQueries:
    def test_row_sums(self, both):
        assert np.allclose(linalg.row_sums(both), 1.0)

    def test_row_dense(self, both):
        assert np.allclose(linalg.row_dense(both, 0), [0.0, 0.7, 0.3])

    def test_row_entries(self, both):
        idx, vals = linalg.row_entries(both, 1)
        assert set(int(i) for i in idx) == {0, 1}
        assert np.allclose(sorted(vals), [0.5, 0.5])

    def test_entry(self, both):
        assert linalg.entry(both, 0, 1) == pytest.approx(0.7)

    def test_min_max_entries(self, both):
        assert linalg.max_entries(both) == pytest.approx(1.0)

    def test_matvec(self, both):
        v = np.array([1.0, 2.0, 3.0])
        dense = both.toarray() if linalg.is_sparse(both) else both
        assert np.allclose(linalg.matvec(both, v), dense @ v)

    def test_submatrix(self, both):
        sub = linalg.submatrix(both, np.array([0, 1]), np.array([1]))
        assert sub.shape == (2, 1)
        assert sub[0, 0] == pytest.approx(0.7)


class TestTransforms:
    def test_scale_rows(self, both):
        scaled = linalg.scale_rows(both, np.array([2.0, 1.0, 0.5]))
        assert np.allclose(linalg.row_sums(scaled), [2.0, 1.0, 0.5])

    def test_with_unit_diagonal(self, both):
        out = linalg.with_unit_diagonal(both, np.array([0]))
        assert linalg.entry(out, 0, 0) == 1.0

    def test_freeze_dense(self):
        matrix = np.eye(2)
        linalg.freeze(matrix)
        with pytest.raises(ValueError):
            matrix[0, 0] = 5

    def test_allclose_across_representations(self, both):
        dense = both.toarray() if linalg.is_sparse(both) else np.asarray(both)
        assert linalg.allclose_matrices(both, sparse.csr_matrix(dense))
        assert not linalg.allclose_matrices(both, sparse.csr_matrix(dense * 0.5))

    def test_elementwise_extrema(self):
        a = np.array([[0.2, 0.8], [0.5, 0.5]])
        b = np.array([[0.3, 0.7], [0.4, 0.6]])
        assert np.allclose(linalg.elementwise_min(a, b), [[0.2, 0.7], [0.4, 0.5]])
        assert np.allclose(
            linalg.elementwise_max(sparse.csr_matrix(a), sparse.csr_matrix(b)).toarray(),
            [[0.3, 0.8], [0.5, 0.6]],
        )
