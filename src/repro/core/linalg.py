"""Dense/sparse matrix abstraction for the chain classes.

Small models (the illustrative example, SWaT) use dense ``numpy`` arrays;
the repair benchmarks (125 and 40 320 states) use ``scipy.sparse`` CSR
matrices — a dense 40 320² matrix would need ~13 GB. Every helper here
accepts both representations so the analysis and simulation code is written
once.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ModelError

#: Union of the matrix types the chain classes store.
Matrix = "np.ndarray | sparse.csr_matrix"


def is_sparse(matrix: object) -> bool:
    """True when *matrix* is a scipy sparse matrix."""
    return sparse.issparse(matrix)


def coerce_matrix(matrix: object, name: str = "matrix") -> "np.ndarray | sparse.csr_matrix":
    """Coerce to float64 square ndarray or CSR, preserving sparsity."""
    if sparse.issparse(matrix):
        result = matrix.tocsr().astype(float)
        # A non-canonical CSR may hold one (i, j) several times; every
        # consumer reads one entry per transition, so merge them. Merging
        # also sorts each row, which changes the successor a uniform draw
        # selects, so a matrix that is merely unsorted keeps its order.
        if not result.has_canonical_format:
            merged = result.copy()
            merged.sum_duplicates()
            if merged.nnz < result.nnz:
                result = merged
        result.eliminate_zeros()
    else:
        result = np.ascontiguousarray(np.asarray(matrix, dtype=float))
        if result.ndim != 2:
            raise ModelError(f"{name} must be 2-dimensional, got {result.ndim}")
    if result.shape[0] != result.shape[1]:
        raise ModelError(f"{name} must be square, got shape {result.shape}")
    if result.shape[0] == 0:
        raise ModelError(f"{name} must have at least one state")
    return result


def row_sums(matrix: Matrix) -> np.ndarray:
    """Vector of row sums as a flat ndarray."""
    if sparse.issparse(matrix):
        return np.asarray(matrix.sum(axis=1)).ravel()
    return matrix.sum(axis=1)


def row_dense(matrix: Matrix, state: int) -> np.ndarray:
    """Row *state* as a dense 1-D array (O(n) for sparse — avoid in loops)."""
    if sparse.issparse(matrix):
        return np.asarray(matrix[state].todense()).ravel()
    return matrix[state]


def row_entries(matrix: Matrix, state: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the non-zero entries of row *state*."""
    if sparse.issparse(matrix):
        start, end = matrix.indptr[state], matrix.indptr[state + 1]
        return matrix.indices[start:end].copy(), matrix.data[start:end].copy()
    row = matrix[state]
    idx = np.flatnonzero(row)
    return idx, row[idx]


def entry(matrix: Matrix, i: int, j: int) -> float:
    """Scalar entry ``(i, j)``."""
    return float(matrix[i, j])


def min_entries(matrix: Matrix) -> float:
    """Minimum over stored entries (sparse) or all entries (dense)."""
    if sparse.issparse(matrix):
        return float(matrix.data.min()) if matrix.nnz else 0.0
    return float(matrix.min())


def max_entries(matrix: Matrix) -> float:
    """Maximum over stored entries (sparse) or all entries (dense)."""
    if sparse.issparse(matrix):
        return float(matrix.data.max()) if matrix.nnz else 0.0
    return float(matrix.max())


def check_entries_in_unit_interval(matrix: Matrix, name: str) -> None:
    """Every (stored) entry must lie in [0, 1]."""
    if min_entries(matrix) < 0 or max_entries(matrix) > 1:
        raise ModelError(f"{name} has entries outside [0, 1]")


def support_csc(matrix: Matrix) -> sparse.csc_matrix:
    """Column-compressed support, for predecessor queries."""
    if sparse.issparse(matrix):
        return sparse.csc_matrix(matrix, copy=True).astype(bool)
    return sparse.csc_matrix(matrix > 0)


def matvec(matrix: Matrix, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` as a flat ndarray for both representations."""
    result = matrix @ vector
    if sparse.issparse(result):  # defensive; @ returns ndarray for csr @ 1-D
        return np.asarray(result.todense()).ravel()
    return np.asarray(result).ravel()


def submatrix(matrix: Matrix, rows: np.ndarray, cols: np.ndarray) -> sparse.csr_matrix:
    """Sub-matrix selection returning CSR (used by the linear solver)."""
    if sparse.issparse(matrix):
        return matrix[rows][:, cols].tocsr()
    return sparse.csr_matrix(matrix[np.ix_(rows, cols)])


def freeze(matrix: Matrix) -> Matrix:
    """Make the matrix read-only in place (best effort for sparse)."""
    if sparse.issparse(matrix):
        matrix.data.setflags(write=False)
        matrix.indices.setflags(write=False)
        matrix.indptr.setflags(write=False)
    else:
        matrix.setflags(write=False)
    return matrix


def scale_rows(matrix: Matrix, factors: np.ndarray) -> Matrix:
    """Multiply row ``i`` by ``factors[i]``, preserving representation."""
    if sparse.issparse(matrix):
        diag = sparse.diags(factors)
        return (diag @ matrix).tocsr()
    return matrix * factors[:, None]


def with_unit_diagonal(matrix: Matrix, states: np.ndarray) -> Matrix:
    """Return a copy with ``matrix[s, s] = 1`` for every ``s`` in *states*."""
    if sparse.issparse(matrix):
        result = matrix.tolil(copy=True)
        for state in np.atleast_1d(states):
            result[int(state), int(state)] = 1.0
        return result.tocsr()
    result = matrix.copy()
    for state in np.atleast_1d(states):
        result[int(state), int(state)] = 1.0
    return result


def allclose_matrices(left: Matrix, right: Matrix, atol: float = 1e-12) -> bool:
    """Numerical equality across representations."""
    if left.shape != right.shape:
        return False
    if sparse.issparse(left) or sparse.issparse(right):
        diff = (sparse.csr_matrix(left) - sparse.csr_matrix(right))
        if diff.nnz == 0:
            return True
        return float(np.abs(diff.data).max()) <= atol
    return bool(np.allclose(left, right, atol=atol))


def elementwise_min(left: Matrix, right: Matrix) -> Matrix:
    """Entrywise minimum, preserving sparsity when both inputs are sparse."""
    if sparse.issparse(left) and sparse.issparse(right):
        return left.minimum(right).tocsr()
    left_d = left.toarray() if sparse.issparse(left) else left
    right_d = right.toarray() if sparse.issparse(right) else right
    return np.minimum(left_d, right_d)


def elementwise_max(left: Matrix, right: Matrix) -> Matrix:
    """Entrywise maximum, preserving sparsity when both inputs are sparse."""
    if sparse.issparse(left) and sparse.issparse(right):
        return left.maximum(right).tocsr()
    left_d = left.toarray() if sparse.issparse(left) else left
    right_d = right.toarray() if sparse.issparse(right) else right
    return np.maximum(left_d, right_d)
