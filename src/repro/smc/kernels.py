"""Compiled kernel tier: ``@njit`` lockstep kernels with NumPy fallbacks.

This module holds the innermost operations of the lockstep ensemble loop —
the CSR gather-step, the monitor-mask update and the futility cut — in
**two interchangeable implementations**:

* a pure-NumPy implementation (always available, the mandatory default in
  environments without numba), and
* a scalar-loop implementation compiled with :func:`numba.njit` when numba
  is importable.

The active tier is selected once at import time; see
:func:`kernel_runtime_info` for what was picked and why. The
``REPRO_KERNEL`` environment variable forces the choice: ``numpy`` pins the
fallback (CI uses this to prove the fallback cannot drift), ``numba``
requests the compiled tier (falling back with a recorded reason when numba
is missing), and ``auto`` (default) uses numba whenever available.

**Parity contract.** Both tiers are bitwise identical: the scalar loops
perform exactly the float comparisons of the vectorized expressions, so
the resolved entries, verdicts and trace lengths — and with them the
log-proposal and log-numerator sums the engine adds from those entries —
do not depend on the tier (the parity suite runs twice in CI, once per
tier).

The successor lookup comes in two forms that resolve the same entry: a
loop-free count over a padded cumulative table
(:func:`gather_step_padded`, used for chains whose widest row has at most
:data:`PADDED_DEGREE_CAP` entries) and a per-row binary search
(:func:`gather_step`, for wider chains). Both take the first row entry
whose cumulative probability exceeds the trace's uniform draw.

The module also provides the two count formats of the library.
:class:`StepRecords` holds a batch's raw ``(trace, CSR entry)`` step
records, as every backend returns them. :class:`TraceCounts` aggregates
them into per-trace transition counts as flat COO arrays, with one sort
of the int64 key ``trace · n_states² + key`` plus a run-length encoding,
for the consumers that need per-trace tables (IMCIS, Table I);
:meth:`TraceCounts.to_tables` turns it into per-trace
:class:`~repro.core.paths.TransitionCounts` dicts, a per-trace view for
inspection and tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.core.dtmc import DTMC
from repro.core.paths import TransitionCounts
from repro.errors import EstimationError

__all__ = [
    "CODE_FALSE",
    "CODE_TRUE",
    "CODE_UNDECIDED",
    "KERNEL_TIERS",
    "KIND_GLOBALLY",
    "KIND_STATE",
    "KIND_UNTIL",
    "StepRecords",
    "TraceCounts",
    "entry_weight_logs",
    "flat_pair_log_probs",
    "futility_cut",
    "gather_step",
    "gather_step_padded",
    "kernel_runtime_info",
    "monitor_codes",
    "pair_weight_logs",
]

#: Recognised values of the ``REPRO_KERNEL`` environment variable.
KERNEL_TIERS = ("auto", "numba", "numpy")

#: Monitor-kind codes consumed by :func:`monitor_codes` (kept as plain ints
#: so the numba tier specialises on them without boxing).
KIND_STATE = 0
KIND_UNTIL = 1
KIND_GLOBALLY = 2

#: Widest row (in entries) for which :func:`gather_step_padded` replaces
#: the binary search. Its per-trace cost grows with the row width while
#: the search's grows with its logarithm; every shipped study has at most
#: 12 entries per row.
PADDED_DEGREE_CAP = 16

#: Per-trace verdict codes of the lockstep loop (:func:`monitor_codes`,
#: :func:`futility_cut` and the kernel backend's verdict arrays): plain
#: ints so numba sees compile-time constants.
CODE_UNDECIDED = 0
CODE_TRUE = 1
CODE_FALSE = 2


# ----------------------------------------------------------------------
# Tier selection
# ----------------------------------------------------------------------

_requested = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
if _requested not in KERNEL_TIERS:
    raise EstimationError(
        f"REPRO_KERNEL must be one of {KERNEL_TIERS}, got {_requested!r}"
    )

_numba = None
_numba_error: str | None = None
if _requested != "numpy":
    try:  # pragma: no cover - exercised only where numba is installed
        import numba as _numba  # type: ignore[no-redef]
    except ImportError as error:
        _numba = None
        _numba_error = str(error)

_ACTIVE_TIER = "numba" if _numba is not None else "numpy"


def kernel_runtime_info() -> "dict[str, object]":
    """Describe the kernel tier selected at import time.

    Returns a dict with the active ``tier`` (``"numba"`` or ``"numpy"``),
    the ``requested`` selector (the ``REPRO_KERNEL`` environment variable,
    default ``"auto"``), whether numba is importable, its version when it
    is, and ``fallback_active`` — true when the pure-NumPy implementations
    are serving (surfaced by ``repro --version``).
    """
    return {
        "tier": _ACTIVE_TIER,
        "requested": _requested,
        "numba_available": _numba is not None,
        "numba_version": getattr(_numba, "__version__", None),
        "fallback_active": _ACTIVE_TIER == "numpy",
    }


# ----------------------------------------------------------------------
# Kernel implementations — NumPy (vectorized) and loop (njit) variants
# ----------------------------------------------------------------------


def _gather_step_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    cumprobs: np.ndarray,
    states: np.ndarray,
    u: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized per-row binary search (one transition per live trace).

    The successor of each trace is the first entry of its row with
    cumulative probability exceeding the trace's uniform draw — the raw
    within-row comparison the sequential backend's ``searchsorted``
    makes, so arbitrarily small transition probabilities survive in any
    row. The uniform draws *u* are supplied by the caller: the driver
    owns the RNG, so both tiers consume the stream identically.
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


def _gather_step_loop(
    indptr: np.ndarray,
    indices: np.ndarray,
    cumprobs: np.ndarray,
    states: np.ndarray,
    u: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Scalar-loop twin of :func:`_gather_step_numpy` (the njit body).

    Performs the same ``cumprobs[mid] <= u`` float comparisons over the
    same ``[lo, hi)`` row slice, so the resolved entry is bitwise the
    NumPy tier's for every trace.
    """
    n = states.shape[0]
    pos = np.empty(n, dtype=np.int64)
    nxt = np.empty(n, dtype=np.int64)
    for k in range(n):
        lo = indptr[states[k]]
        hi = indptr[states[k] + 1]
        last = hi - 1
        while lo < last:
            mid = (lo + hi) >> 1
            if cumprobs[mid] <= u[k]:
                lo = mid + 1
            else:
                hi = mid
            if lo >= hi:
                break
        p = lo if lo < last else last
        pos[k] = p
        nxt[k] = indices[p]
    return pos, nxt


def _gather_step_padded_numpy(
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
    :func:`_gather_step_numpy`'s binary search resolves. A row's running
    sums never decrease, its last entry is pinned to ``1.0 > u`` and the
    padding is ``+inf``, so every entry past the first one ``> u`` is
    ``> u`` too; and the count never reaches past the row's last entry,
    so the binary search's clamp never fires either.
    """
    below = cum_cols.take(states, axis=1) <= u
    pos = row_lo.take(states) + below.sum(axis=0)
    return pos, indices.take(pos)


def _gather_step_padded_loop(
    row_lo: np.ndarray,
    cum_cols: np.ndarray,
    indices: np.ndarray,
    states: np.ndarray,
    u: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Scalar-loop twin of :func:`_gather_step_padded_numpy` (the njit body).

    Walks the row's entries ``<= u`` up to the first entry exceeding *u*
    with the same float comparisons; every later entry exceeds *u* too,
    so the walk's length is the NumPy tier's count.
    """
    n = states.shape[0]
    inner = cum_cols.shape[0]
    pos = np.empty(n, dtype=np.int64)
    nxt = np.empty(n, dtype=np.int64)
    for k in range(n):
        s = states[k]
        c = 0
        while c < inner and cum_cols[c, s] <= u[k]:
            c += 1
        p = row_lo[s] + c
        pos[k] = p
        nxt[k] = indices[p]
    return pos, nxt


def _monitor_codes_numpy(
    states: np.ndarray,
    time: int,
    kind: int,
    lhs: np.ndarray,
    rhs: np.ndarray,
    init: np.ndarray,
    has_init: bool,
    bound: int,
    n_next: int,
    lhs_exempt: bool,
) -> np.ndarray:
    """Mask-based verdict codes of a :class:`~repro.properties.monitor.MaskSpec`
    rule at shared position *time*; mirrors the scalar monitors branch
    for branch (``bound < 0`` means unbounded)."""
    if kind == KIND_STATE:
        return np.where(rhs[states], np.int8(CODE_TRUE), np.int8(CODE_FALSE))
    out = np.zeros(states.shape[0], dtype=np.int8)
    if kind == KIND_GLOBALLY:
        out[~rhs[states]] = CODE_FALSE
        if time >= bound:
            out[out == CODE_UNDECIDED] = CODE_TRUE
        return out
    t = time - n_next  # position within the until part
    if t >= 0:
        if lhs_exempt and t == 0:
            out[rhs[states]] = CODE_TRUE
            if 0 <= bound <= 0:
                out[out == CODE_UNDECIDED] = CODE_FALSE
        elif lhs_exempt:
            lhs_here = lhs[states]
            out[lhs_here & rhs[states]] = CODE_TRUE
            out[~lhs_here] = CODE_FALSE
            if 0 <= bound <= t:
                out[out == CODE_UNDECIDED] = CODE_FALSE
        else:
            rhs_here = rhs[states]
            out[rhs_here] = CODE_TRUE
            out[~lhs[states] & ~rhs_here] = CODE_FALSE
            if 0 <= bound <= t:
                out[out == CODE_UNDECIDED] = CODE_FALSE
    if time == 0 and has_init:
        out[~init[states]] = CODE_FALSE
    return out


def _monitor_codes_loop(
    states: np.ndarray,
    time: int,
    kind: int,
    lhs: np.ndarray,
    rhs: np.ndarray,
    init: np.ndarray,
    has_init: bool,
    bound: int,
    n_next: int,
    lhs_exempt: bool,
) -> np.ndarray:
    """Scalar-loop twin of :func:`_monitor_codes_numpy` (the njit body)."""
    n = states.shape[0]
    out = np.zeros(n, dtype=np.int8)
    t = time - n_next
    for k in range(n):
        s = states[k]
        code = CODE_UNDECIDED
        if kind == KIND_STATE:
            code = CODE_TRUE if rhs[s] else CODE_FALSE
        elif kind == KIND_GLOBALLY:
            if not rhs[s]:
                code = CODE_FALSE
            elif time >= bound:
                code = CODE_TRUE
        else:  # KIND_UNTIL
            if t >= 0:
                if lhs_exempt and t == 0:
                    if rhs[s]:
                        code = CODE_TRUE
                    elif bound == 0:
                        code = CODE_FALSE
                elif lhs_exempt:
                    if not lhs[s]:
                        code = CODE_FALSE
                    elif rhs[s]:
                        code = CODE_TRUE
                    if code == CODE_UNDECIDED and 0 <= bound <= t:
                        code = CODE_FALSE
                else:
                    if rhs[s]:
                        code = CODE_TRUE
                    elif not lhs[s]:
                        code = CODE_FALSE
                    if code == CODE_UNDECIDED and 0 <= bound <= t:
                        code = CODE_FALSE
            if time == 0 and has_init and not init[s]:
                code = CODE_FALSE
        out[k] = code
    return out


def _futility_cut_numpy(
    codes: np.ndarray, fut_mask: np.ndarray, states: np.ndarray
) -> None:
    """Turn undecided traces sitting in futile states to FALSE, in place."""
    codes[(codes == CODE_UNDECIDED) & fut_mask[states]] = CODE_FALSE


def _futility_cut_loop(
    codes: np.ndarray, fut_mask: np.ndarray, states: np.ndarray
) -> None:
    """Scalar-loop twin of :func:`_futility_cut_numpy` (the njit body)."""
    for k in range(codes.shape[0]):
        if codes[k] == CODE_UNDECIDED and fut_mask[states[k]]:
            codes[k] = CODE_FALSE


if _numba is not None:  # pragma: no cover - requires the [kernel] extra
    _jit = _numba.njit(cache=True, fastmath=False)
    gather_step = _jit(_gather_step_loop)
    gather_step_padded = _jit(_gather_step_padded_loop)
    monitor_codes = _jit(_monitor_codes_loop)
    futility_cut = _jit(_futility_cut_loop)
else:
    gather_step = _gather_step_numpy
    gather_step_padded = _gather_step_padded_numpy
    monitor_codes = _monitor_codes_numpy
    futility_cut = _futility_cut_numpy

# Docstrings for the API reference regardless of the tier bound above.
gather_step.__doc__ = _gather_step_numpy.__doc__
gather_step_padded.__doc__ = _gather_step_padded_numpy.__doc__
monitor_codes.__doc__ = _monitor_codes_numpy.__doc__
futility_cut.__doc__ = _futility_cut_numpy.__doc__


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


def pair_weight_logs(
    weight_chain: DTMC,
    sources: np.ndarray,
    targets: np.ndarray,
    state_map: "np.ndarray | None" = None,
) -> np.ndarray:
    """``log a_ij`` under *weight_chain* of simulated pairs ``i → j``.

    *state_map* optionally projects simulated states onto weight-chain
    states first (the unrolled time-dependent proposal maps ``t·n + s``
    back to ``s``); pairs outside the weight chain's support are
    ``-inf``.
    """
    if state_map is not None:
        sources, targets = state_map[sources], state_map[targets]
    return flat_pair_log_probs(weight_chain, sources, targets)


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
    numerator chain ``A``), projected through *state_map* (see
    :func:`pair_weight_logs`). Entries outside the weight chain's support
    are ``-inf``; the estimator raises the usual absolute-continuity
    error only if a *successful* trace gathers one.
    """
    row_of = np.repeat(np.arange(n_states, dtype=np.int64), np.diff(indptr))
    return pair_weight_logs(
        weight_chain, row_of, np.asarray(indices, dtype=np.int64), state_map
    )


# ----------------------------------------------------------------------
# Array-native per-trace transition counts
# ----------------------------------------------------------------------


def _run_starts(boundary: np.ndarray) -> np.ndarray:
    """Start index of every run, given where adjacent sorted entries differ."""
    return np.concatenate(([0], np.flatnonzero(boundary) + 1))


@dataclass(frozen=True)
class TraceCounts:
    """Per-trace transition counts of a batch, as flat COO arrays.

    Algorithm 1's per-trace tables ``(T_k, n_k)`` for a whole batch:
    entry ``e`` says trace ``trace_ids[e]`` took transition
    ``sources[e] → targets[e]`` exactly ``counts[e]`` times. Entries are
    sorted by ``(trace, source·n_states + target)`` — the aggregation
    order of :meth:`from_step_keys`' run-length encoding — and ``kept`` marks which
    traces carry tables at all (mirroring ``count_mode="satisfied"``: a
    kept trace with no entries is a valid zero-transition table, an
    unkept trace has no table).
    """

    n_traces: int
    n_states: int
    kept: np.ndarray
    trace_ids: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_step_keys(
        cls,
        n_traces: int,
        n_states: int,
        kept: np.ndarray,
        step_traces: "list[np.ndarray]",
        step_keys: "list[np.ndarray]",
        entry_keys: "np.ndarray | None" = None,
    ) -> "TraceCounts":
        """Aggregate per-step flat ``source·n + target`` keys into counts.

        One sort plus a run-length encoding over the recorded steps — the
        run lengths are exactly the ``n_ij`` of Equation (1). Entries of
        traces outside *kept* are dropped. With *entry_keys*, the recorded
        step keys are CSR entry positions and ``entry_keys[pos]`` is each
        entry's flat key; they are mapped once, before the sort, so the
        counts do not depend on the order of the CSR entries within a row.
        The engines do not call this: they return raw
        :class:`StepRecords`, and :meth:`StepRecords.counts` aggregates
        them here for the consumers of per-trace tables.
        """
        if step_traces:
            traces = step_traces[0] if len(step_traces) == 1 else np.concatenate(step_traces)
            keys = step_keys[0] if len(step_keys) == 1 else np.concatenate(step_keys)
            if entry_keys is not None:
                keys = entry_keys.take(keys)
        else:
            traces = keys = np.zeros(0, dtype=np.int64)
        sel = kept[traces]
        n_entries = int(np.count_nonzero(sel))
        span = int(n_states) ** 2
        if not n_entries:
            traces = keys = counts = np.zeros(0, dtype=np.int64)
        elif int(n_traces) * span <= np.iinfo(np.int64).max:
            # Keys lie in [0, n_states²), so trace · n_states² + key orders
            # entries exactly as (trace, key) does: one sort of that int64
            # key replaces a two-key lexsort. It is built before the
            # selection, so no selected copies of traces and keys are made.
            pair = traces * np.int64(span)
            pair += keys
            pair = pair[sel]
            pair.sort()
            starts = _run_starts(pair[1:] != pair[:-1])
            traces, keys = np.divmod(pair[starts], np.int64(span))
            counts = np.diff(starts, append=n_entries)
        else:  # the one-key form would overflow
            traces, keys = traces[sel], keys[sel]
            order = np.lexsort((keys, traces))
            traces, keys = traces[order], keys[order]
            starts = _run_starts((traces[1:] != traces[:-1]) | (keys[1:] != keys[:-1]))
            traces, keys = traces[starts], keys[starts]
            counts = np.diff(starts, append=n_entries)
        sources, targets = np.divmod(keys, np.int64(n_states))
        return cls(
            n_traces=int(n_traces),
            n_states=int(n_states),
            kept=np.asarray(kept, dtype=bool),
            trace_ids=traces,
            sources=sources,
            targets=targets,
            counts=counts.astype(np.int64),
        )

    @property
    def n_entries(self) -> int:
        """Number of distinct ``(trace, transition)`` pairs."""
        return int(self.trace_ids.shape[0])

    def select(self, trace_indices: np.ndarray) -> "TraceCounts":
        """Restrict to *trace_indices* (ascending), renumbering traces.

        Trace ``trace_indices[k]`` becomes trace ``k`` of the result; all
        selected traces are marked kept (selection is how the estimator
        extracts the successful traces, which by construction are).
        """
        trace_indices = np.asarray(trace_indices, dtype=np.int64)
        mapping = np.full(self.n_traces, -1, dtype=np.int64)
        mapping[trace_indices] = np.arange(trace_indices.size, dtype=np.int64)
        new_ids = mapping[self.trace_ids]
        sel = new_ids >= 0
        return TraceCounts(
            n_traces=int(trace_indices.size),
            n_states=self.n_states,
            kept=np.ones(trace_indices.size, dtype=bool),
            trace_ids=new_ids[sel],
            sources=self.sources[sel],
            targets=self.targets[sel],
            counts=self.counts[sel],
        )

    def trace_log_probs(self, chain: DTMC) -> np.ndarray:
        """Per-trace ``Σ n_ij log P_chain(i → j)`` (length ``n_traces``).

        The IS numerator of every trace in one gather + one ``bincount``;
        traces using a transition outside *chain*'s support get ``-inf``
        (the caller decides whether that is an error). Kept traces with
        no entries contribute an empty product, i.e. ``0.0``.
        """
        if self.n_entries == 0:
            return np.zeros(self.n_traces, dtype=np.float64)
        logs = flat_pair_log_probs(chain, self.sources, self.targets)
        terms = self.counts.astype(np.float64) * logs
        return np.bincount(
            self.trace_ids, weights=terms, minlength=self.n_traces
        ).astype(np.float64)

    def to_tables(self) -> "list[TransitionCounts | None]":
        """Materialize per-trace dict tables (a per-trace view of the block).

        Kept traces get a :class:`~repro.core.paths.TransitionCounts`
        (possibly empty), unkept traces ``None``; pairs enter each dict
        in sorted-key order (the run-length aggregation order).
        """
        tables: "list[TransitionCounts | None]" = [None] * self.n_traces
        for k in np.flatnonzero(self.kept).tolist():
            tables[k] = TransitionCounts()
        if self.n_entries:
            trace_ids = self.trace_ids.tolist()
            pairs = list(zip(self.sources.tolist(), self.targets.tolist()))
            counts = self.counts.tolist()
            new_trace = np.empty(self.trace_ids.size, dtype=bool)
            new_trace[0] = True
            new_trace[1:] = self.trace_ids[1:] != self.trace_ids[:-1]
            bounds = np.append(np.flatnonzero(new_trace), self.trace_ids.size).tolist()
            for a, b in zip(bounds[:-1], bounds[1:]):
                table = tables[trace_ids[a]]
                assert table is not None
                table.counts.update(dict(zip(pairs[a:b], counts[a:b])))
        return tables


@dataclass(frozen=True, eq=False)
class StepRecords:
    """A batch's raw transition records, one per simulated step.

    Step ``s`` says trace ``traces[s]`` took entry ``positions[s]`` of the
    sampled chain, whose flat ``source·n_states + target`` key is
    ``entry_keys[positions[s]]``. Records stay unsorted, in the order the
    engine kept them. ``kept`` marks the traces that carry count tables
    (``count_mode``); records of other traces may remain, since the
    lockstep loop drops those of failed traces only in bulk, and
    :meth:`counts` ignores them.

    Every backend returns its counts in this form. A consumer that needs
    per-trace tables aggregates them with :meth:`counts`; one that needs
    only weighted sums over traces, such as the cross-entropy update's
    ``Σ_k w_k n_ij``, bins the records directly and never sorts them.
    """

    n_traces: int
    n_states: int
    kept: np.ndarray
    traces: np.ndarray
    positions: np.ndarray
    entry_keys: np.ndarray

    @classmethod
    def from_keys(
        cls, n_traces: int, n_states: int, kept: np.ndarray,
        traces: np.ndarray, keys: np.ndarray,
    ) -> "StepRecords":
        """Records of per-step flat keys; the distinct keys become the entry table."""
        entry_keys, positions = np.unique(keys, return_inverse=True)
        return cls(n_traces, n_states, kept, traces, positions, entry_keys)

    def counts(self) -> TraceCounts:
        """The records aggregated into per-trace counts of the kept traces."""
        return TraceCounts.from_step_keys(
            self.n_traces, self.n_states, self.kept,
            [self.traces], [self.positions], self.entry_keys,
        )

    def map_states(self, state_map: np.ndarray, n_states: int) -> "StepRecords":
        """Project the records through ``state → state_map[state]``.

        Only the entry table is rewritten; transitions that collide after
        projection are merged when the counts are aggregated. This is how
        unrolled-chain records of the time-dependent proposal come back
        onto the original chain (``t·n + s → s``).
        """
        state_map = np.asarray(state_map, dtype=np.int64)
        sources, targets = np.divmod(self.entry_keys, np.int64(self.n_states))
        keys = state_map[sources] * np.int64(n_states) + state_map[targets]
        return replace(self, n_states=int(n_states), entry_keys=keys)

    @staticmethod
    def concatenate(chunks: "list[StepRecords]") -> "StepRecords":
        """Concatenate batches along the trace axis, offsetting trace ids.

        Chunks of one backend share its entry table; others are stacked,
        their positions offset into the stacked table.
        """
        if not chunks:
            raise EstimationError("no StepRecords chunks to concatenate")
        if len(chunks) == 1:
            return chunks[0]
        n_states = chunks[0].n_states
        if any(chunk.n_states != n_states for chunk in chunks):
            raise EstimationError("cannot concatenate records over different chains")
        trace_offsets = np.cumsum([0] + [c.n_traces for c in chunks[:-1]])
        table = chunks[0].entry_keys
        if all(chunk.entry_keys is table for chunk in chunks):
            positions = np.concatenate([c.positions for c in chunks])
        else:
            entry_offsets = np.cumsum([0] + [c.entry_keys.size for c in chunks[:-1]])
            positions = np.concatenate(
                [c.positions + off for c, off in zip(chunks, entry_offsets)]
            )
            table = np.concatenate([c.entry_keys for c in chunks])
        return StepRecords(
            n_traces=sum(c.n_traces for c in chunks),
            n_states=n_states,
            kept=np.concatenate([c.kept for c in chunks]),
            traces=np.concatenate(
                [c.traces + off for c, off in zip(chunks, trace_offsets)]
            ),
            positions=positions,
            entry_keys=table,
        )
