"""Lockstep kernels and the step-record count format.

This module holds the innermost operations of the lockstep ensemble loop
that :class:`~repro.smc.engine.KernelBackend` drives: the CSR
gather-step, the monitor-mask update and the futility cut, each a few
NumPy array operations over the live traces. The driver owns the RNG and
passes each step's uniform draws in, so a batch is a pure function of
the chain, the plan and the stream.

The successor lookup comes in two forms that resolve the same entry: a
loop-free count over a padded cumulative table
(:func:`gather_step_padded`, used for chains whose widest row has at most
:data:`PADDED_DEGREE_CAP` entries) and a per-row binary search
(:func:`gather_step`, for wider chains). Both take the first row entry
whose cumulative probability exceeds the trace's uniform draw, the rule
of a per-row ``np.searchsorted(..., side="right")``.

The module also holds the library's one transition-count format,
:class:`StepRecords`: a batch's raw ``(trace, CSR entry)`` step records,
as the kernel backend returns them. Its consumers (the IMCIS observation
tables, count-path IS weights and the cross-entropy update) read the
records directly; no aggregated per-trace count table sits in between.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.properties.monitor import MaskSpec

__all__ = [
    "CODE_FALSE",
    "CODE_TRUE",
    "CODE_UNDECIDED",
    "StepRecords",
    "entry_weight_logs",
    "flat_pair_log_probs",
    "futility_cut",
    "gather_step",
    "gather_step_padded",
    "kernel_runtime_info",
    "monitor_codes",
]

#: Widest row (in entries) for which :func:`gather_step_padded` replaces
#: the binary search. Its per-trace cost grows with the row width while
#: the search's grows with its logarithm; every shipped study has at most
#: 12 entries per row.
PADDED_DEGREE_CAP = 16

#: Per-trace verdict codes of the lockstep loop (:func:`monitor_codes`,
#: :func:`futility_cut` and the kernel backend's verdict arrays).
CODE_UNDECIDED = 0
CODE_TRUE = 1
CODE_FALSE = 2


# ----------------------------------------------------------------------
# Lockstep kernels
# ----------------------------------------------------------------------


def kernel_runtime_info() -> "dict[str, object]":
    """Describe the lockstep kernels: always ``{"tier": "numpy"}``.

    Benchmark records carry it, so their rows say which kernels ran.
    """
    return {"tier": "numpy"}


def gather_step(
    indptr: np.ndarray,
    indices: np.ndarray,
    cumprobs: np.ndarray,
    states: np.ndarray,
    u: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized per-row binary search (one transition per live trace).

    The successor of each trace is the first entry of its row with
    cumulative probability exceeding the trace's uniform draw — the raw
    within-row comparison a per-row ``searchsorted`` makes, so
    arbitrarily small transition probabilities survive in any row. The
    uniform draws *u* are supplied by the caller, which owns the RNG.
    """
    lo = indptr[states]
    hi = indptr[states + 1]
    last = hi - 1
    searching = lo < last  # single-successor rows resolve immediately
    while searching.any():
        mid = (lo + hi) >> 1
        go_right = searching & (cumprobs[np.minimum(mid, last)] <= u)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(searching & ~go_right, mid, hi)
        searching = lo < hi
    pos = np.minimum(lo, last)
    return pos, indices[pos]


def gather_step_padded(
    row_lo: np.ndarray,
    cum_cols: np.ndarray,
    indices: np.ndarray,
    states: np.ndarray,
    u: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Loop-free successor lookup by counting over a padded cumulative table.

    ``cum_cols[:, s]`` holds row *s*'s cumulative probabilities, padded
    with ``+inf`` and without the table's last column, and ``row_lo[s]``
    its first CSR entry. The number of those entries ``<= u`` is the
    offset of the first entry exceeding *u* — the entry
    :func:`gather_step`'s binary search resolves. A row's running
    sums never decrease, its last entry is pinned to ``1.0 > u`` and the
    padding is ``+inf``, so every entry past the first one ``> u`` is
    ``> u`` too; and the count never reaches past the row's last entry,
    so the binary search's clamp never fires either.
    """
    below = cum_cols.take(states, axis=1) <= u
    pos = row_lo.take(states) + below.sum(axis=0)
    return pos, indices.take(pos)


def monitor_codes(spec: MaskSpec, states: np.ndarray, time: int) -> np.ndarray:
    """Verdict codes of *spec*'s rule for traces in *states* at shared
    position *time*.

    A code is the verdict of the trace's prefix up to *time* for a trace
    still undecided before it; the engine loop drops decided traces, so
    the codes of later positions never see them.
    """
    rhs, bound = spec.rhs, spec.bound
    if spec.kind == "state":
        return np.where(rhs[states], np.int8(CODE_TRUE), np.int8(CODE_FALSE))
    out = np.zeros(states.shape[0], dtype=np.int8)
    if spec.kind == "globally":
        out[~rhs[states]] = CODE_FALSE
        if time >= bound:
            out[out == CODE_UNDECIDED] = CODE_TRUE
        return out
    t = time - spec.n_next  # position within the until part
    if t >= 0:
        expired = bound is not None and bound <= t
        if spec.lhs_exempt and t == 0:
            out[rhs[states]] = CODE_TRUE
            if expired:
                out[out == CODE_UNDECIDED] = CODE_FALSE
        elif spec.lhs_exempt:
            lhs_here = spec.lhs[states]
            out[lhs_here & rhs[states]] = CODE_TRUE
            out[~lhs_here] = CODE_FALSE
            if expired:
                out[out == CODE_UNDECIDED] = CODE_FALSE
        else:
            rhs_here = rhs[states]
            out[rhs_here] = CODE_TRUE
            out[~spec.lhs[states] & ~rhs_here] = CODE_FALSE
            if expired:
                out[out == CODE_UNDECIDED] = CODE_FALSE
    if time == 0 and spec.initial_check is not None:
        out[~spec.initial_check[states]] = CODE_FALSE
    return out


def futility_cut(codes: np.ndarray, fut_mask: np.ndarray, states: np.ndarray) -> None:
    """Turn undecided traces sitting in futile states to FALSE, in place."""
    codes[(codes == CODE_UNDECIDED) & fut_mask[states]] = CODE_FALSE


# ----------------------------------------------------------------------
# Weight tables and pair log-probabilities
# ----------------------------------------------------------------------


def flat_pair_log_probs(
    chain: DTMC, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """``log P(sources[k] → targets[k])`` under *chain*, ``-inf`` when absent.

    One vectorized gather against the (dense or CSR) transition matrix —
    the array replacement for per-pair
    :meth:`~repro.core.dtmc.DTMC.probability` lookups.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.size == 0:
        return np.zeros(0, dtype=np.float64)
    if chain.is_sparse:
        matrix = chain.transitions.tocsr()
        probs = np.asarray(matrix[sources, targets], dtype=np.float64).ravel()
    else:
        probs = np.asarray(chain.transitions, dtype=np.float64)[sources, targets]
    with np.errstate(divide="ignore"):
        return np.log(probs)


def entry_weight_logs(
    n_states: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weight_chain: DTMC,
    state_map: "np.ndarray | None" = None,
) -> np.ndarray:
    """Per-CSR-entry ``log a_ij`` table for fused weight accumulation.

    For every entry of the simulated chain's CSR arrays, the log
    probability of the *same* transition under *weight_chain* (the IS
    numerator chain ``A``). *state_map* optionally projects simulated
    states onto weight-chain states first (the unrolled time-dependent
    proposal maps ``t·n + s`` back to ``s``). Entries outside the weight
    chain's support are ``-inf``; the estimator raises the usual
    absolute-continuity error only if a *successful* trace gathers one.
    """
    sources = np.repeat(np.arange(n_states, dtype=np.int64), np.diff(indptr))
    targets = np.asarray(indices, dtype=np.int64)
    if state_map is not None:
        sources, targets = state_map[sources], state_map[targets]
    return flat_pair_log_probs(weight_chain, sources, targets)


# ----------------------------------------------------------------------
# Per-step transition records
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepRecords:
    """A batch's raw transition records, one per simulated step.

    Step ``s`` says trace ``traces[s]`` took entry ``positions[s]`` of the
    sampled chain, whose flat ``source·n_states + target`` key is
    ``entry_keys[positions[s]]``. Records stay unsorted, in the order the
    engine kept them, so each trace's records run in simulation time.
    Under ``count_mode="satisfied"`` records of failed traces may remain,
    since the lockstep loop drops them only in bulk; every consumer
    selects the traces it reads.

    This is the library's one transition-count format. Its consumers
    read the records without an intermediate count table: the IMCIS
    observation tables sort and run-length encode them once, and the
    count-path IS weights and the cross-entropy update's ``Σ_k w_k n_ij``
    bin them with one weighted ``np.bincount``.
    """

    n_traces: int
    n_states: int
    traces: np.ndarray
    positions: np.ndarray
    entry_keys: np.ndarray

    def map_states(self, state_map: np.ndarray, n_states: int) -> "StepRecords":
        """Project the records through ``state → state_map[state]``.

        Only the entry table is rewritten, so transitions that collide
        after projection share a key under different positions; consumers
        compare keys, not positions. This is how
        unrolled-chain records of the time-dependent proposal come back
        onto the original chain (``t·n + s → s``).
        """
        state_map = np.asarray(state_map, dtype=np.int64)
        sources, targets = np.divmod(self.entry_keys, np.int64(self.n_states))
        keys = state_map[sources] * np.int64(n_states) + state_map[targets]
        return replace(self, n_states=int(n_states), entry_keys=keys)

    @staticmethod
    def concatenate(chunks: "list[StepRecords]") -> "StepRecords":
        """Concatenate batches of one backend along the trace axis,
        offsetting trace ids; the chunks must share one entry table."""
        if not chunks:
            raise EstimationError("no StepRecords chunks to concatenate")
        if len(chunks) == 1:
            return chunks[0]
        first = chunks[0]
        if any(
            c.n_states != first.n_states or c.entry_keys is not first.entry_keys
            for c in chunks
        ):
            raise EstimationError("cannot concatenate records over different entry tables")
        trace_offsets = np.cumsum([0] + [c.n_traces for c in chunks[:-1]])
        return StepRecords(
            n_traces=sum(c.n_traces for c in chunks),
            n_states=first.n_states,
            traces=np.concatenate(
                [c.traces + off for c, off in zip(chunks, trace_offsets)]
            ),
            positions=np.concatenate([c.positions for c in chunks]),
            entry_keys=first.entry_keys,
        )
