"""Batch simulation engine: one lockstep backend behind one sampling plan.

This module is the simulation core of the library. Every estimator —
crude Monte Carlo, the Bayesian estimator, the importance-sampling
estimator of Equation (7) and IMCIS (Algorithm 1) — needs the same primitive:
*draw N independent traces of a chain, decide a property per trace, and
optionally keep per-trace transition records and log-proposal
probabilities*. That primitive is expressed here once, as a
:class:`SimulationPlan`, and executed by :class:`KernelBackend`.

The backend compiles the whole chain upfront into flat CSR arrays
(:class:`CompiledCSR`) and advances an *ensemble* of traces in lockstep,
one successor lookup per step moving every live trace at once. Every
per-step lookup is one of the NumPy kernels of :mod:`repro.smc.kernels`.
Properties are decided from the formula's
:class:`~repro.properties.monitor.MaskSpec`; :func:`make_plan` rejects a
formula outside that fragment.

A batch comes back as one :class:`EnsembleResult`: the raw per-step
transition records as one :class:`~repro.smc.kernels.StepRecords` block
(the library's one count format), and — when the plan carries a
``weight_chain`` — the IS numerator fused into the simulation loop, added
step by step in time order from a per-entry ``log a_ij`` table.

Every consumer simulates the same way —
``KernelBackend(make_plan(...)).run_ensemble(n, rng)``, or
``run_ensembles(n, rngs)`` for several repetitions in one lockstep loop,
each bitwise its own ``run_ensemble`` — so everything downstream
(estimators, observation tables, the optimiser) reads one result format.
"""

from __future__ import annotations

import time as _time
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.dtmc import DTMC, ROW_ATOL
from repro.errors import EstimationError, ModelError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.properties.logic import Formula
from repro.properties.monitor import MaskSpec
from repro.smc import kernels as _kernels
from repro.smc.futility import FutilityMask, futility_for_formula
from repro.smc.kernels import (
    CODE_FALSE,
    CODE_TRUE,
    CODE_UNDECIDED,
    StepRecords,
    entry_weight_logs,
)

#: Safety cap on trace length for properties without a step bound.
DEFAULT_MAX_STEPS = 1_000_000

#: Which traces keep step records: successful traces (Algorithm 1), none.
COUNT_MODES = ("satisfied", "none")

#: Absolute tolerance for row-stochasticity during compilation. A row
#: whose probabilities sum farther than this from one is genuinely
#: unnormalized and raises :class:`~repro.errors.ModelError` instead of
#: being silently rescaled. Shares :data:`repro.core.dtmc.ROW_ATOL` so
#: construction-time validation and compilation can never disagree.
ROW_SUM_ATOL = ROW_ATOL

#: Default cap on the number of traces advanced in one lockstep ensemble;
#: larger batches are split so per-step working arrays stay cache-friendly.
#: Note this bounds the trace axis only — transition-key recording for
#: count tables additionally grows with trace length and is pruned (see
#: :data:`COMPACT_INTERVAL`).
DEFAULT_MAX_ENSEMBLE = 65_536

#: Steps between checks for compacting the recorded transition keys. Under
#: ``count_mode="satisfied"`` the keys of traces that already failed are
#: discarded anyway; a check drops them once they make up at least half of
#: the keys held, so memory stays within twice the keys of still-useful
#: traces plus one window, and each compaction's copy is paid for by the
#: keys it drops.
COMPACT_INTERVAL = 256


# Engine metrics, always on at batch granularity (a handful of counter
# adds per ensemble — invisible next to the simulation itself). Per-step
# futility-cut counting is the one detail too hot to afford by default:
# it is gated on tracing being enabled (see ``_count_cuts``).
_METRIC_TRACES = _obs_metrics.registry().counter(
    "repro_traces_simulated_total",
    "Traces simulated, by backend.",
    ("backend",),
)
_METRIC_STEPS = _obs_metrics.registry().counter(
    "repro_trace_steps_total",
    "Simulated trace-steps, by backend.",
    ("backend",),
)
_METRIC_SATISFIED = _obs_metrics.registry().counter(
    "repro_traces_satisfied_total",
    "Simulated traces that satisfied the property, by backend.",
    ("backend",),
)
_METRIC_CUTS = _obs_metrics.registry().counter(
    "repro_futility_cuts_total",
    "Traces cut early by the futility mask, by backend (the per-step "
    "census runs only while tracing is enabled).",
    ("backend",),
)
_METRIC_BATCH_SECONDS = _obs_metrics.registry().histogram(
    "repro_simulate_seconds",
    "Wall time of one run_ensemble or run_ensembles call, by backend.",
    ("backend",),
)

_ENSEMBLE_CELLS: "dict[str, tuple]" = {}


def _ensemble_cells(backend: str) -> tuple:
    cells = _ENSEMBLE_CELLS.get(backend)
    if cells is None:
        cells = _ENSEMBLE_CELLS[backend] = (
            _METRIC_TRACES.labels(backend=backend),
            _METRIC_STEPS.labels(backend=backend),
            _METRIC_SATISFIED.labels(backend=backend),
            _METRIC_CUTS.labels(backend=backend),
            _METRIC_BATCH_SECONDS.labels(backend=backend),
        )
    return cells


def _record_ensemble(
    backend: str, n_traces: int, n_steps: int, n_satisfied: int, seconds: float, cuts: int
) -> None:
    """Fold one finished run's totals into the engine metrics."""
    traces, steps, satisfied, cut_cell, batch_seconds = _ensemble_cells(backend)
    traces.inc(n_traces)
    steps.inc(n_steps)
    satisfied.inc(n_satisfied)
    if cuts:
        cut_cell.inc(cuts)
    batch_seconds.observe(seconds)


def _count_cuts() -> bool:
    """Whether the per-step futility-cut census is affordable right now."""
    return _obs_trace.enabled()


#: What the engine derives from a chain (its compiled arrays, its
#: futility masks per formula), computed once per chain object. A chain's
#: matrix is frozen at construction, so the same object always derives
#: the same values. The chains are held weakly and no value refers back
#: to its chain, so an entry dies with its chain (each CE round's
#: proposal, for one).
_PER_CHAIN: "weakref.WeakKeyDictionary[DTMC, dict]" = weakref.WeakKeyDictionary()


def _per_chain(chain: DTMC, key: object, derive) -> object:
    """``derive(chain)``, computed once per *chain* object and *key*.

    Concurrent first calls may both derive; they derive equal values and
    every caller gets the one that landed first.
    """
    values = _PER_CHAIN.setdefault(chain, {})
    try:
        return values[key]
    except KeyError:
        return values.setdefault(key, derive(chain))


class CompiledCSR:
    """Whole-chain flat CSR arrays for lockstep ensemble sampling.

    The chain is compiled once, upfront, into four aligned arrays —
    ``indptr`` (row pointers), ``indices`` (successor states), ``cumprobs``
    (within-row cumulative probabilities) and ``logprobs``. A batch of
    transition draws resolves, for every live trace, the first entry of
    its row whose cumulative probability exceeds the trace's uniform
    draw. When the widest row has at most
    :data:`~repro.smc.kernels.PADDED_DEGREE_CAP` entries, ``cum_cols``
    holds every row's cumulative probabilities padded with ``+inf`` to
    that width, one column per state and without the last entry column
    (``(width − 1, n_states)``), and
    :func:`repro.smc.kernels.gather_step_padded` counts the entries
    ``<= u`` in one array pass (``row_lo`` holds each row's first entry);
    wider chains leave ``cum_cols`` as ``None`` and use
    :func:`repro.smc.kernels.gather_step`'s per-row binary search. Both
    compare raw within-row cumulative probabilities, so the lookup is
    *exact*: the same float comparisons a per-row ``searchsorted``
    performs, with no precision lost to row-offset encodings.

    Zero-probability entries (explicit zeros in sparse matrices) are
    dropped during compilation, and every row's probability mass is
    validated against :data:`ROW_SUM_ATOL` — an unnormalized row raises
    :class:`~repro.errors.ModelError` instead of being silently rescaled.
    """

    __slots__ = (
        "n_states", "indptr", "indices", "cumprobs", "logprobs", "row_lo", "cum_cols"
    )

    def __init__(
        self,
        n_states: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        cumprobs: np.ndarray,
        logprobs: np.ndarray,
    ):
        self.n_states = n_states
        self.indptr = indptr
        self.indices = indices
        self.cumprobs = cumprobs
        self.logprobs = logprobs
        self.row_lo = indptr[:-1]
        degrees = np.diff(indptr)
        width = int(degrees.max())
        self.cum_cols = None
        if width <= _kernels.PADDED_DEGREE_CAP:
            row_of = np.repeat(np.arange(n_states), degrees)
            column = np.arange(cumprobs.size) - indptr[row_of]
            inner = column < width - 1
            self.cum_cols = np.full((width - 1, n_states), np.inf)
            self.cum_cols[column[inner], row_of[inner]] = cumprobs[inner]

    def gather(self, states: np.ndarray, u: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Successor entry positions and states of *states* for draws *u*."""
        if self.cum_cols is not None:
            return _kernels.gather_step_padded(
                self.row_lo, self.cum_cols, self.indices, states, u
            )
        return _kernels.gather_step(self.indptr, self.indices, self.cumprobs, states, u)

    def entry_keys(self) -> np.ndarray:
        """Each entry's flat ``source·n_states + target`` transition key.

        The lockstep loop records entry positions; this table, the entry
        table of the :class:`~repro.smc.kernels.StepRecords` it returns,
        maps them to keys.
        """
        row_of = np.repeat(np.arange(self.n_states, dtype=np.int64), np.diff(self.indptr))
        return row_of * np.int64(self.n_states) + self.indices

    @classmethod
    def from_chain(cls, chain: DTMC, atol: float = ROW_SUM_ATOL) -> "CompiledCSR":
        """Compile *chain* (dense or sparse) into flat CSR arrays."""
        n = chain.n_states
        matrix = chain.transitions
        if chain.is_sparse:
            csr = matrix.tocsr()
            row_of = np.repeat(np.arange(n), np.diff(csr.indptr))
            cols = np.asarray(csr.indices, dtype=np.int64)
            data = np.asarray(csr.data, dtype=np.float64)
            keep = data > 0.0
            if not keep.all():
                row_of, cols, data = row_of[keep], cols[keep], data[keep]
        else:
            dense = np.asarray(matrix, dtype=np.float64)
            # Strictly-positive mask (not nonzero): negative entries must
            # not survive into the cumulative arrays — dropping them makes
            # the row-sum check below flag the corrupt row.
            rows_idx, cols = np.nonzero(dense > 0.0)
            row_of = rows_idx.astype(np.int64)
            cols = cols.astype(np.int64)
            data = dense[rows_idx, cols]

        per_row = np.bincount(row_of, minlength=n)
        empty = np.flatnonzero(per_row == 0)
        if empty.size:
            raise ModelError(f"state {int(empty[0])} has no outgoing transitions")
        sums = np.bincount(row_of, weights=data, minlength=n)
        bad = np.flatnonzero(np.abs(sums - 1.0) > atol)
        if bad.size:
            raise ModelError(
                f"row {int(bad[0])} of the transition matrix sums to "
                f"{float(sums[bad[0]])!r}, expected 1 — refusing to renormalise "
                "a genuinely unnormalized distribution"
            )

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_row, out=indptr[1:])
        # Within-row cumulative sums, grouped by row degree so each group
        # is one 2-D cumsum. Never via a global cumsum minus row-start
        # offsets: the running total reaches ~n and subtracting it
        # quantizes tiny within-row probabilities to ~n * 2^-52 — enough
        # to erase rare transitions on large chains.
        cumprobs = np.empty_like(data)
        for degree in np.unique(per_row):
            rows_d = np.flatnonzero(per_row == degree)
            entry_idx = indptr[rows_d][:, None] + np.arange(degree)
            cumprobs[entry_idx] = np.cumsum(data[entry_idx], axis=1)
        # Validated above; pinning the row tails to 1 absorbs rounding only.
        cumprobs[indptr[1:] - 1] = 1.0
        logprobs = np.log(data)
        return cls(n, indptr, cols, cumprobs, logprobs)


@dataclass(frozen=True)
class SimulationPlan:
    """Everything the backend needs to simulate one (chain, formula) workload.

    Built once by :func:`make_plan`: the chain, the formula's lockstep
    mask rule, the futility mask, the step cap and the bookkeeping
    switches.

    ``weight_chain`` (with the optional ``weight_state_map`` projection)
    requests *fused importance weights*: the backend accumulates each
    trace's log probability under that chain — the IS numerator
    ``Σ n_ij log a_ij`` — inside the simulation loop and returns it as
    :attr:`EnsembleResult.log_numerators`.
    """

    chain: DTMC
    formula: Formula
    mask_spec: MaskSpec
    futility: FutilityMask | None
    max_steps: int
    count_mode: str
    record_log_prob: bool
    initial_state: int
    weight_chain: DTMC | None = None
    weight_state_map: np.ndarray | None = None


def make_plan(
    chain: DTMC,
    formula: Formula,
    max_steps: int | None = None,
    count_mode: str = "satisfied",
    record_log_prob: bool = False,
    initial_state: int | None = None,
    futility: "FutilityMask | str | None" = "auto",
    weight_chain: DTMC | None = None,
    weight_state_map: "np.ndarray | None" = None,
) -> SimulationPlan:
    """Validate the arguments and precompile a :class:`SimulationPlan`.

    Parameters
    ----------
    chain : DTMC
        The chain to simulate.
    formula : Formula
        The property each trace is decided against.
    max_steps : int, optional
        Trace-length cap; defaults to the formula's own horizon when it
        has one, else :data:`DEFAULT_MAX_STEPS`.
    count_mode : {"satisfied", "none"}, optional
        Whether successful traces keep their step records.
    record_log_prob : bool, optional
        Accumulate each trace's log probability under the sampled chain
        (the IS likelihood-ratio denominator).
    initial_state : int, optional
        Start state override; defaults to the chain's own.
    futility : FutilityMask, "auto" or None, optional
        Early-abort mask for hopeless traces; ``"auto"`` derives one
        from the formula.
    weight_chain : DTMC, optional
        Accumulate each trace's log probability under this chain too
        (the IS numerator), fused into the simulation loop.
    weight_state_map : ndarray, optional
        Project simulated states onto *weight_chain* states before the
        numerator lookup (used by the unrolled time-dependent proposal,
        which maps ``t·n + s`` back to ``s``). Length must equal the
        simulated chain's state count.

    Returns
    -------
    SimulationPlan
        The immutable plan the backend executes.

    Raises
    ------
    PropertyError
        When *formula* is outside the fragment the lockstep monitor
        decides (see :meth:`~repro.properties.logic.Formula.mask_spec`).
    EstimationError
        On an unknown *count_mode*, a negative *max_steps*, an
        out-of-range *initial_state*, or a *weight_chain* whose states do
        not match the simulated chain's (or *weight_state_map*'s range).
    """
    mask_spec = formula.mask_spec(chain)
    if count_mode not in COUNT_MODES:
        raise EstimationError(f"count_mode must be one of {COUNT_MODES}")
    if futility == "auto":
        fut = _per_chain(
            chain, ("futility", formula), lambda c: futility_for_formula(c, formula)
        )
    elif futility is None or isinstance(futility, FutilityMask):
        fut = futility
    else:
        raise EstimationError("futility must be 'auto', None, or a FutilityMask")
    horizon = formula.horizon()
    if max_steps is None:
        max_steps = horizon if horizon is not None else DEFAULT_MAX_STEPS
    if max_steps < 0:
        raise EstimationError("max_steps must be non-negative")
    start = chain.initial_state if initial_state is None else int(initial_state)
    if not 0 <= start < chain.n_states:
        raise EstimationError(f"initial state {initial_state} out of range")
    if weight_state_map is not None:
        if weight_chain is None:
            raise EstimationError("weight_state_map requires a weight_chain")
        weight_state_map = np.asarray(weight_state_map, dtype=np.int64)
        if weight_state_map.shape != (chain.n_states,):
            raise EstimationError(
                "weight_state_map must hold one weight-chain state per "
                f"simulated state ({chain.n_states}), got shape "
                f"{weight_state_map.shape}"
            )
        if weight_state_map.min() < 0 or weight_state_map.max() >= weight_chain.n_states:
            raise EstimationError(
                f"weight_state_map maps onto states {int(weight_state_map.min())}.."
                f"{int(weight_state_map.max())}, but the weight chain has "
                f"{weight_chain.n_states} states"
            )
    elif weight_chain is not None and weight_chain.n_states != chain.n_states:
        raise EstimationError(
            f"the weight chain has {weight_chain.n_states} states but the "
            f"simulated chain has {chain.n_states}"
        )
    return SimulationPlan(
        chain=chain,
        formula=formula,
        mask_spec=mask_spec,
        futility=fut,
        max_steps=int(max_steps),
        count_mode=count_mode,
        record_log_prob=record_log_prob,
        initial_state=start,
        weight_chain=weight_chain,
        weight_state_map=weight_state_map,
    )


@dataclass
class EnsembleResult:
    """Array-level outcome of a batch of traces — the engine's fast path.

    Per-trace results live in flat NumPy arrays instead of per-trace
    Python objects, so a ten-thousand-trace batch costs a handful of array
    reductions rather than ten thousand allocations. ``step_records`` is
    ``None`` when counting was off, otherwise the batch's raw per-step
    transition records as one :class:`~repro.smc.kernels.StepRecords`
    block. When the plan
    carried a ``weight_chain``, ``log_numerators`` holds each trace's
    fused log probability under it (the IS numerator).
    """

    satisfied: np.ndarray
    decided: np.ndarray
    lengths: np.ndarray
    log_proposals: np.ndarray | None = None
    log_numerators: np.ndarray | None = None
    step_records: "StepRecords | None" = None

    @property
    def n_samples(self) -> int:
        """Number of traces in the batch."""
        return int(self.satisfied.shape[0])

    @property
    def n_satisfied(self) -> int:
        """Number of traces satisfying the property."""
        return int(np.count_nonzero(self.satisfied))

    @property
    def n_undecided(self) -> int:
        """Traces whose verdict was still open at the step cap."""
        return self.n_samples - int(np.count_nonzero(self.decided))

    @property
    def total_length(self) -> int:
        """Total number of simulated transitions."""
        return int(self.lengths.sum())

    @property
    def mean_length(self) -> float:
        """Average trace length (transitions)."""
        n = self.n_samples
        return self.total_length / n if n else 0.0

    @staticmethod
    def concatenate(chunks: "list[EnsembleResult]") -> "EnsembleResult":
        """Concatenate many batches of one backend with one copy per field.

        Optional fields survive only when every chunk carries them.
        """
        if not chunks:
            raise EstimationError("no chunks to concatenate")
        if len(chunks) == 1:
            return chunks[0]
        logp = None
        if all(c.log_proposals is not None for c in chunks):
            logp = np.concatenate([c.log_proposals for c in chunks])
        lognum = None
        if all(c.log_numerators is not None for c in chunks):
            lognum = np.concatenate([c.log_numerators for c in chunks])
        records = None
        if all(c.step_records is not None for c in chunks):
            records = StepRecords.concatenate([c.step_records for c in chunks])
        return EnsembleResult(
            satisfied=np.concatenate([c.satisfied for c in chunks]),
            decided=np.concatenate([c.decided for c in chunks]),
            lengths=np.concatenate([c.lengths for c in chunks]),
            log_proposals=logp,
            log_numerators=lognum,
            step_records=records,
        )


class KernelBackend:
    """Lockstep ensemble backend: the per-step loop through ``smc.kernels``.

    Per simulated step the driver draws one uniform batch (in trace order
    within the step, each repetition's traces from its own generator, see
    :meth:`run_ensembles`) and passes it into the kernels. The per-step lookups
    (CSR gather-step, monitor-mask update, futility cut) are the NumPy
    kernels of :mod:`repro.smc.kernels`; the log sums are one array
    addition per step from the resolved entries.

    Transition counts are recorded as per-step CSR entry positions and
    returned raw, with the CSR's entry-key table, as one
    :class:`~repro.smc.kernels.StepRecords` block; when the plan
    carries a ``weight_chain``, the IS numerator ``Σ n_ij log a_ij``
    accumulates inside the loop (fused weights).
    """

    name = "kernel"

    def __init__(self, plan: SimulationPlan, max_ensemble: int = DEFAULT_MAX_ENSEMBLE):
        spec = plan.mask_spec
        if max_ensemble <= 0:
            raise EstimationError("max_ensemble must be positive")
        self._plan = plan
        self._max_ensemble = int(max_ensemble)
        self._csr = _per_chain(plan.chain, "csr", CompiledCSR.from_chain)
        # One column per recorded log accumulator — the log-proposal,
        # then the fused numerator — so a step adds both with one gather.
        log_tables = []
        if plan.record_log_prob:
            log_tables.append(self._csr.logprobs)
        if plan.weight_chain is not None:
            log_tables.append(
                entry_weight_logs(
                    self._csr.n_states,
                    self._csr.indptr,
                    self._csr.indices,
                    plan.weight_chain,
                    plan.weight_state_map,
                )
            )
        self._log_tables = np.stack(log_tables, axis=1) if log_tables else None
        self._entry_keys = (
            self._csr.entry_keys() if plan.count_mode != "none" else None
        )
        # An unbounded until decides a trace past its leading X (and past
        # the futility mask's start) from the trace's state alone: one
        # per-state verdict table, futility cut folded in, replaces the
        # monitor and cut kernels from position ``_table_from`` on.
        # ``_cut_states`` marks the states where the mask does the
        # deciding, for the tracing-gated cut census.
        self._state_codes = self._cut_states = None
        if spec.kind == "until" and spec.bound is None:
            fut = plan.futility
            self._table_from = spec.n_next + 1
            codes = _kernels.monitor_codes(
                spec, np.arange(self._csr.n_states), self._table_from
            )
            if fut is not None:
                self._table_from = max(self._table_from, fut.start_position)
                self._cut_states = (codes == CODE_UNDECIDED) & fut.mask
                codes[self._cut_states] = CODE_FALSE
            self._state_codes = codes

    @property
    def plan(self) -> SimulationPlan:
        return self._plan

    @property
    def csr(self) -> CompiledCSR:
        """The upfront-compiled chain arrays."""
        return self._csr

    def run_ensemble(self, n_samples: int, rng: np.random.Generator) -> EnsembleResult:
        """Simulate *n_samples* traces drawing from *rng*: the one-generator
        case of :meth:`run_ensembles`."""
        return self.run_ensembles(n_samples, [rng])[0]

    def run_ensembles(
        self, n_samples: int, rngs: "list[np.random.Generator]"
    ) -> "list[EnsembleResult]":
        """Simulate *n_samples* traces per generator in one lockstep loop.

        Each generator is one repetition: its traces draw only from it, in
        the order its own :meth:`run_ensemble` would draw them, so each
        result and each generator's state afterwards are bitwise those of
        ``run_ensemble(n_samples, rng)``. What the repetitions share is
        the loop's per-iteration cost. Each repetition's traces are split
        into chunks of at most ``max_ensemble`` as a lone run splits them,
        and chunk *k* of every repetition runs in the same loop.
        """
        if n_samples <= 0:
            raise EstimationError("n_samples must be positive")
        rngs = list(rngs)
        if not rngs:
            raise EstimationError("run_ensembles needs at least one generator")
        if len({id(rng) for rng in rngs}) < len(rngs):
            # Two repetitions would interleave their draws on one stream.
            raise EstimationError("each repetition needs a generator of its own")
        chunks: "list[list[EnsembleResult]]" = [[] for _ in rngs]
        remaining = n_samples
        cuts = iterations = 0
        started = _time.perf_counter()
        with _obs_trace.span(
            "simulate",
            backend=self.name,
            traces=n_samples * len(rngs),
            repetitions=len(rngs),
        ) as sp:
            while remaining > 0:
                size = min(remaining, self._max_ensemble)
                results, chunk_cuts, chunk_iterations = self._simulate(size, rngs)
                for chunk, result in zip(chunks, results):
                    chunk.append(result)
                cuts += chunk_cuts
                iterations += chunk_iterations
                remaining -= size
            results = [EnsembleResult.concatenate(chunk) for chunk in chunks]
            n_satisfied = sum(r.n_satisfied for r in results)
            n_steps = sum(r.total_length for r in results)
            sp.annotate(
                satisfied=n_satisfied,
                steps=n_steps,
                iterations=iterations,
                futility_cuts=cuts,
            )
        _record_ensemble(
            self.name,
            n_samples * len(rngs),
            n_steps,
            n_satisfied,
            _time.perf_counter() - started,
            cuts,
        )
        return results

    def _simulate(
        self, n: int, rngs: "list[np.random.Generator]"
    ) -> "tuple[list[EnsembleResult], int, int]":
        """Advance *n* traces per generator in lockstep; returns one
        ensemble per generator, the futility cuts counted (only while
        tracing) and the iterations run.

        Slots are repetition-major: repetition ``r`` owns slots
        ``[r·n, (r + 1)·n)``. The live traces' states and log sums are
        carried compacted in ``current`` and ``live_logs``, aligned with
        their ascending slots ``active``, so each repetition's live traces
        are one span of them; each step, repetition ``r`` fills its span
        of the uniforms from its own generator, which is what and how much
        its lone run draws. The spans are refreshed only on iterations
        that decide a trace. A trace's verdict, length and log sums are
        written once, when it is decided (or at the step cap). Each live
        sum still starts at 0.0 and adds one table entry per step in time
        order, exactly as a scatter-add into the slots would.
        """
        plan, csr = self._plan, self._csr
        fut = plan.futility
        keep_counts = plan.count_mode != "none"
        count_cuts = _count_cuts()
        cuts = 0
        spec = plan.mask_spec
        state_codes, cut_states = self._state_codes, self._cut_states
        n_reps = len(rngs)
        joint = n_reps > 1
        total = n * n_reps
        edges = np.arange(n_reps + 1, dtype=np.int64) * n  # repetition slot ranges

        start = np.full(total, plan.initial_state, dtype=np.int64)
        verdicts = _kernels.monitor_codes(spec, start, 0)
        if fut is not None and 0 >= fut.start_position:
            if count_cuts:
                false_before = int(np.count_nonzero(verdicts == CODE_FALSE))
            _kernels.futility_cut(verdicts, fut.mask, start)
            if count_cuts:
                cuts += int(np.count_nonzero(verdicts == CODE_FALSE)) - false_before
        lengths = np.zeros(total, dtype=np.int64)
        # Per repetition: its recorded slots and entry positions, step by
        # step, and the keys of its failed traces already dropped.
        step_traces: "list[list[np.ndarray]]" = [[] for _ in rngs]
        step_keys: "list[list[np.ndarray]]" = [[] for _ in rngs]
        pruned = np.zeros(n_reps, dtype=np.int64)

        active = np.flatnonzero(verdicts == CODE_UNDECIDED)
        current = start[: active.size]
        log_tables = self._log_tables
        logs = live_logs = None
        if log_tables is not None:
            logs = np.zeros((total, log_tables.shape[1]), dtype=np.float64)
            live_logs = np.zeros((active.size, log_tables.shape[1]), dtype=np.float64)
        rng, traces0, keys0 = rngs[0], step_traces[0], step_keys[0]
        if joint:
            spans = _live_spans(rngs, active, edges)
        time = 0
        while active.size and time < plan.max_steps:
            # The driver owns the RNGs: one uniform batch per step.
            if joint:
                u = np.empty(active.size)
                for _, generator, lo, hi in spans:
                    generator.random(out=u[lo:hi])
            else:
                u = rng.random(active.size)
            pos, nxt = csr.gather(current, u)
            if live_logs is not None:
                live_logs += log_tables.take(pos, axis=0)
            if keep_counts:
                # Entry positions; StepRecords' entry table keys them.
                if joint:
                    for r, _, lo, hi in spans:
                        step_traces[r].append(active[lo:hi])
                        step_keys[r].append(pos[lo:hi])
                else:
                    traces0.append(active)
                    keys0.append(pos)
            time += 1
            if state_codes is not None and time >= self._table_from:
                codes = state_codes.take(nxt)
                if count_cuts and cut_states is not None:
                    cuts += int(np.count_nonzero(cut_states[nxt]))
            else:
                codes = _kernels.monitor_codes(spec, nxt, time)
                if fut is not None and time >= fut.start_position:
                    if count_cuts:
                        false_before = int(np.count_nonzero(codes == CODE_FALSE))
                    _kernels.futility_cut(codes, fut.mask, nxt)
                    if count_cuts:
                        cuts += (
                            int(np.count_nonzero(codes == CODE_FALSE)) - false_before
                        )
            if np.count_nonzero(codes):  # some trace was decided: compact
                live = codes == CODE_UNDECIDED
                gone = np.flatnonzero(~live)
                finished = active.take(gone)
                verdicts[finished] = codes.take(gone)
                lengths[finished] = time
                if live_logs is not None:
                    logs[finished] = live_logs.take(gone, axis=0)
                    live_logs = live_logs.compress(live, axis=0)
                active, current = active[live], nxt[live]
                if joint:
                    spans = _live_spans(rngs, active, edges)
            else:
                current = nxt
            if keep_counts and time % COMPACT_INTERVAL == 0:
                # A trace has recorded one key per step it took: its
                # length once decided (0 until then), ``time`` while live.
                failed = verdicts == CODE_FALSE
                failed_keys = (lengths * failed).reshape(n_reps, n).sum(axis=1)
                stale = failed_keys - pruned
                live_counts = np.diff(np.searchsorted(active, edges))
                held = lengths.reshape(n_reps, n).sum(axis=1) + time * live_counts - pruned
                for r in np.flatnonzero((stale > 0) & (2 * stale >= held)).tolist():
                    traces_cat = np.concatenate(step_traces[r])
                    keys_cat = np.concatenate(step_keys[r])
                    sel = ~failed[traces_cat]
                    # In place: ``traces0``/``keys0`` alias repetition 0's.
                    step_traces[r][:] = [traces_cat[sel]]
                    step_keys[r][:] = [keys_cat[sel]]
                    pruned[r] = failed_keys[r]
        lengths[active] = time  # still undecided at the step cap
        if live_logs is not None:
            logs[active] = live_logs
            logs = logs.T.copy()  # one contiguous row per accumulator

        satisfied = verdicts == CODE_TRUE
        decided = verdicts != CODE_UNDECIDED
        empty = [np.zeros(0, dtype=np.int64)]
        results = []
        for r in range(n_reps):
            lo, hi = r * n, (r + 1) * n
            records = None
            if keep_counts:
                traces = np.concatenate(step_traces[r] or empty)
                records = StepRecords(
                    n,
                    csr.n_states,
                    traces - lo if lo else traces,
                    np.concatenate(step_keys[r] or empty),
                    self._entry_keys,
                )
            results.append(
                EnsembleResult(
                    satisfied=satisfied[lo:hi],
                    decided=decided[lo:hi],
                    lengths=lengths[lo:hi],
                    log_proposals=logs[0][lo:hi] if plan.record_log_prob else None,
                    log_numerators=(
                        logs[-1][lo:hi] if plan.weight_chain is not None else None
                    ),
                    step_records=records,
                )
            )
        return results, cuts, time


def _live_spans(
    rngs: "list[np.random.Generator]", active: np.ndarray, edges: np.ndarray
) -> "list[tuple[int, np.random.Generator, int, int]]":
    """``(r, generator, lo, hi)`` of each repetition ``r`` with live
    traces: its span ``active[lo:hi]`` of the ascending live slots
    (*edges* holds the repetitions' slot ranges)."""
    bounds = np.searchsorted(active, edges).tolist()
    return [
        (r, rngs[r], bounds[r], bounds[r + 1])
        for r in range(len(rngs))
        if bounds[r] < bounds[r + 1]
    ]

