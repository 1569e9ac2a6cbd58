"""The per-row build of the unrolled zero-variance proposal: a test oracle.

:func:`unrolled_matrix` is the loop
:func:`repro.importance.bounded.time_dependent_zero_variance` ran before it
worked a layer at a time: per step ``t`` and state ``s`` in order, a
decided state's self-loop, or the state's row tilted by the values of the
remaining horizon, normalised by its 1-D ``tilted.sum()``, mixed with the
original row and filtered to positive weights. Its entries come out in
the same ``(t, s, j)`` order, so the two CSR matrices agree byte for byte.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.analysis.graph import prob0_states
from repro.core.dtmc import DTMC
from repro.importance.bounded import bounded_value_table
from repro.properties.logic import Formula


def unrolled_matrix(
    chain: DTMC, formula: Formula, mixing: float
) -> "tuple[sparse.csr_matrix, np.ndarray]":
    """The unrolled transition matrix and its futility mask."""
    spec = formula.until_spec(chain)
    bound, n = spec.bound, chain.n_states
    table = bounded_value_table(chain, spec.lhs_mask, spec.rhs_mask, bound)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    continue_mask = spec.lhs_mask & ~spec.rhs_mask
    for t in range(bound):
        values = table[bound - t - 1]
        layer, next_layer = t * n, (t + 1) * n
        for s in range(n):
            source = layer + s
            if not continue_mask[s]:
                rows.append(source)
                cols.append(source)
                data.append(1.0)
                continue
            indices, probs = chain.row_entries(s)
            tilted = probs * values[indices]
            mass = float(tilted.sum())
            if mass > 0.0:
                weights = (1.0 - mixing) * tilted / mass + mixing * probs
            else:
                weights = probs
            for j, w in zip(indices, weights):
                if w > 0.0:
                    rows.append(source)
                    cols.append(next_layer + int(j))
                    data.append(float(w))
    last = bound * n
    for s in range(n):
        rows.append(last + s)
        cols.append(last + s)
        data.append(1.0)
    matrix = DTMC(
        sparse.csr_matrix((data, (rows, cols)), shape=((bound + 1) * n,) * 2)
    ).transitions
    goal = np.tile(spec.rhs_mask, bound + 1)
    futile = prob0_states(matrix, np.ones(matrix.shape[0], dtype=bool), goal)
    return matrix, futile
