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

The module also holds the library's one transition-count format,
:class:`StepRecords`: a batch's raw ``(trace, CSR entry)`` step records,
as every backend returns them. Its consumers (the IMCIS observation
tables, count-path IS weights and the cross-entropy update) read the
records directly; no aggregated per-trace count table sits in between.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.core.dtmc import DTMC
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
# Per-step transition records
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepRecords:
    """A batch's raw transition records, one per simulated step.

    Step ``s`` says trace ``traces[s]`` took entry ``positions[s]`` of the
    sampled chain, whose flat ``source·n_states + target`` key is
    ``entry_keys[positions[s]]``. Records stay unsorted, in the order the
    engine kept them, so each trace's records run in simulation time.
    ``kept`` marks the traces that carry count tables (``count_mode``);
    records of other traces may remain, since the lockstep loop drops
    those of failed traces only in bulk, and every consumer selects the
    traces it reads.

    This is the library's one transition-count format. Its consumers
    read the records without an intermediate count table: the IMCIS
    observation tables sort and run-length encode them once, and the
    count-path IS weights and the cross-entropy update's ``Σ_k w_k n_ij``
    bin them with one weighted ``np.bincount``.
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
