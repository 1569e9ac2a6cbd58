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

        One pass over the sample's step records: each record's trace
        becomes its rank among the successful traces (records of other
        traces are dropped) and its transition key its rank among the
        records' distinct keys, so ``rank · U + key_rank`` (``U`` distinct
        keys) orders the records by ``(trace, key)`` as one int64 sort.
        The run lengths of the sorted keys are the counts ``n_t(ω_k)``.
        Columns are ordered by first occurrence in that ``(trace, key)``
        order, which depends on the traces' transitions alone, not on the
        records' entry table — so two samples of the same traces give the
        same columns and the same matrix.
        """
        if sample.n_total <= 0:
            raise EstimationError("sample contains no traces")
        records = sample.step_records
        if records is None:
            if sample.n_satisfied:
                raise EstimationError(
                    "this sample carries no count tables (drawn with "
                    "keep_counts=False); re-sample with keep_counts=True"
                )
            return cls((), sparse.csr_matrix((0, 0)), np.zeros(0), sample.n_total)
        n_successful = int(sample.trace_ids.size)
        rank = np.full(records.n_traces, -1, dtype=np.int64)
        rank[sample.trace_ids] = np.arange(n_successful, dtype=np.int64)
        keys, key_rank = np.unique(records.entry_keys, return_inverse=True)
        span = np.int64(keys.size)
        pair = rank.take(records.traces) * span
        pair += key_rank.take(records.positions)
        pair = pair[pair >= 0]  # rank −1 (not successful) makes a pair negative
        pair.sort()
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        counts = np.diff(starts, append=pair.size)
        traces, entry = np.divmod(pair[starts], span)
        present, first = np.unique(entry, return_index=True)
        order = np.argsort(first, kind="stable")
        col_of = np.empty(keys.size, dtype=np.int64)
        col_of[present[order]] = np.arange(present.size, dtype=np.int64)
        matrix = sparse.csr_matrix(
            (counts.astype(float), (traces, col_of.take(entry))),
            shape=(n_successful, int(present.size)),
            dtype=float,
        )
        sources, targets = np.divmod(keys[present[order]], np.int64(records.n_states))
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
