"""Observation tables: the data Algorithm 1 hands to the optimiser.

After sampling, the successful traces are reduced to a sparse count matrix
``N`` (rows = successful traces, columns = *observed transitions*) plus the
per-trace log-probability under the proposal. Everything the optimisation
step needs — the sets ``V`` and ``T`` of Algorithm 1 line 16, and the data
behind ``f(A)``/``g(A)`` — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import EstimationError
from repro.importance.estimator import ISSample


@dataclass(frozen=True)
class ObservationTables:
    """Sparse per-trace transition counts over the observed transitions.

    Attributes
    ----------
    transitions:
        The observed transitions ``T`` in column order: ``transitions[t]``
        is the ``(source, target)`` pair of objective column ``t``.
    counts:
        CSR matrix of shape ``(M, |T|)``; entry ``(k, t)`` is ``n_t(ω_k)``.
    log_proposal:
        Length-``M`` vector of ``log P_B(ω_k)``.
    n_total:
        Total number of sampled traces ``N`` (successful or not).
    """

    transitions: tuple[tuple[int, int], ...]
    counts: sparse.csr_matrix
    log_proposal: np.ndarray
    n_total: int

    @classmethod
    def from_sample(cls, sample: ISSample) -> "ObservationTables":
        """Build the tables from an importance-sampling run.

        The sparse matrix comes straight from the sample's COO counts
        (:class:`~repro.smc.kernels.TraceCounts`). Columns are ordered by
        first occurrence scanning the entries in their ``(trace,
        transition)`` order, which every backend produces identically —
        so a sequential and a kernel sample of the same traces give the
        same columns and the same matrix.
        """
        if sample.n_total <= 0:
            raise EstimationError("sample contains no traces")
        arrays = sample.count_arrays
        if arrays is None:
            if sample.n_satisfied:
                raise EstimationError(
                    "this sample carries no count tables (drawn with "
                    "keep_counts=False); re-sample with keep_counts=True"
                )
            return cls((), sparse.csr_matrix((0, 0)), np.zeros(0), sample.n_total)
        keys = arrays.sources * np.int64(arrays.n_states) + arrays.targets
        uniq, first_idx = np.unique(keys, return_index=True)
        order = np.argsort(first_idx, kind="stable")
        col_of = np.empty(uniq.size, dtype=np.int64)
        col_of[order] = np.arange(uniq.size, dtype=np.int64)
        cols = col_of[np.searchsorted(uniq, keys)]
        matrix = sparse.csr_matrix(
            (arrays.counts.astype(float), (arrays.trace_ids, cols)),
            shape=(arrays.n_traces, int(uniq.size)),
            dtype=float,
        )
        col_keys = uniq[order]
        sources, targets = np.divmod(col_keys, np.int64(arrays.n_states))
        return cls(
            transitions=tuple(zip(sources.tolist(), targets.tolist())),
            counts=matrix,
            log_proposal=np.asarray(sample.log_proposal, dtype=float),
            n_total=sample.n_total,
        )

    @property
    def n_successful(self) -> int:
        """Number of successful traces ``M``."""
        return self.counts.shape[0]

    @property
    def n_transitions(self) -> int:
        """Number of distinct observed transitions ``|T|``."""
        return len(self.transitions)

    def visited_states(self) -> list[int]:
        """The set ``V`` of source states observed in successful traces."""
        return sorted({i for (i, _j) in self.transitions})

    def columns_by_state(self) -> dict[int, list[int]]:
        """Objective columns grouped by source state."""
        grouped: dict[int, list[int]] = {}
        for col, (i, _j) in enumerate(self.transitions):
            grouped.setdefault(i, []).append(col)
        return grouped

    def column_index(self) -> dict[tuple[int, int], int]:
        """Mapping ``(i, j) → column``."""
        return {pair: col for col, pair in enumerate(self.transitions)}

    def total_counts(self) -> np.ndarray:
        """Per-column total occurrence counts across successful traces."""
        return np.asarray(self.counts.sum(axis=0)).ravel()
