"""Cross-entropy optimisation of importance-sampling proposals.

Implements the Markov-chain cross-entropy scheme of Ridder ("Importance
sampling simulations of Markovian reliability systems using cross-entropy",
Ann. OR 134, 2005) — the method the paper uses to build proposals for the
repair benchmarks (reference [24]).

Each iteration samples traces under the current proposal ``B_t`` and sets

    b_ij  ←  Σ_k w_k n_ij(ω_k)  /  Σ_k w_k n_i(ω_k),

where ``w_k = z(ω_k) L(ω_k)`` is the likelihood-ratio weight against the
*original* chain — the closed-form minimiser of the cross-entropy to the
zero-variance measure over Markov proposals. Two safeguards keep the
iteration well-posed:

* **support floor** — the update only sees observed transitions, so the raw
  update can starve transitions that satisfying paths occasionally need;
  each updated row is mixed with the original row (weight ``support_floor``)
  to keep absolute continuity;
* **smoothing** — standard CE smoothing ``B ← λ·B_new + (1−λ)·B_old``.

When the event is very rare (γ ≈ 1e-7), CE from the original chain may see
no successful trace at all; start it from a zero-variance proposal of a
learnt chain (:func:`repro.importance.zero_variance.zero_variance_proposal`)
or from a tilted instance, as the experiments do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from repro.core import linalg
from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.importance.estimator import (
    ess_from_log_weights,
    estimate_from_sample,
    log_weights,
    run_importance_sampling,
)
from repro.properties.logic import Formula
from repro.smc.kernels import TraceCounts
from repro.smc.results import EstimationResult
from repro.util.rng import ensure_rng

_METRIC_CE_ROUNDS = _obs_metrics.registry().counter(
    "repro_ce_rounds_total",
    "Cross-entropy refinement rounds executed.",
)


def _ce_round_event(round_index: int, rounds: int, sample, log_w) -> None:
    """Per-round CE diagnostics on the trace stream (free when disabled)."""
    if not _obs_trace.enabled():
        return
    _obs_trace.event(
        "ce-round",
        round=round_index + 1,
        rounds=rounds,
        n_satisfied=sample.n_satisfied,
        ess=ess_from_log_weights(log_w),
        max_log_weight=float(log_w.max()),
    )


@dataclass
class CrossEntropyResult:
    """Outcome of a cross-entropy run."""

    proposal: DTMC
    iterations: int
    n_satisfied_per_iteration: list[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True when the last iteration saw at least one successful trace."""
        return bool(self.n_satisfied_per_iteration) and self.n_satisfied_per_iteration[-1] > 0


def _weighted_transition_stats(
    counts: TraceCounts, weights: np.ndarray
) -> tuple[dict[tuple[int, int], float], dict[int, float]]:
    """Σ w_k n_ij and Σ w_k n_i over the successful traces.

    One ``np.bincount`` per statistic over the count entries in their
    ``(trace, transition)`` order — the order a walk over each trace's
    table in turn would add them in, so every sum is bitwise that walk's.
    """
    contributions = weights[counts.trace_ids] * counts.counts
    keys = counts.sources * np.int64(counts.n_states) + counts.targets
    edges, edge_of = np.unique(keys, return_inverse=True)
    states, state_of = np.unique(counts.sources, return_inverse=True)
    sources, targets = np.divmod(edges, np.int64(counts.n_states))
    edge_stats = dict(
        zip(
            zip(sources.tolist(), targets.tolist()),
            np.bincount(edge_of, weights=contributions).tolist(),
        )
    )
    state_stats = dict(
        zip(states.tolist(), np.bincount(state_of, weights=contributions).tolist())
    )
    return edge_stats, state_stats


def cross_entropy_update(
    original: DTMC,
    current: DTMC,
    counts: TraceCounts,
    log_w: np.ndarray,
    smoothing: float = 1.0,
    support_floor: float = 0.05,
) -> DTMC:
    """One CE update of the proposal from weighted success statistics.

    *counts* holds the successful traces' transition counts (an
    :class:`~repro.importance.estimator.ISSample`'s ``count_arrays``),
    *log_w* their log likelihood ratios.
    """
    if log_w.size == 0:
        _validate_ce_parameters(smoothing, support_floor)
        return current
    # Normalise weights for numerical stability (scale cancels in the ratio).
    weights = np.exp(log_w - log_w.max())
    edge_stats, state_stats = _weighted_transition_stats(counts, weights)
    return _chain_from_stats(original, current, edge_stats, state_stats, smoothing, support_floor)


def _initial_chain(original: DTMC, initial_proposal: DTMC | None) -> DTMC:
    """The chain the CE iteration starts from: *initial_proposal*, else *original*."""
    if initial_proposal is None:
        return original
    if not isinstance(initial_proposal, DTMC):
        # e.g. swat's time-dependent UnrolledProposal
        raise EstimationError(
            "cross-entropy refines time-homogeneous chains (a DTMC), got a "
            f"{type(initial_proposal).__name__}; seed it with "
            "zero_variance_proposal(chain, formula, bounded=True) instead"
        )
    return initial_proposal


def _validate_ce_parameters(smoothing: float, support_floor: float) -> None:
    if not 0.0 < smoothing <= 1.0:
        raise EstimationError("smoothing must be in (0, 1]")
    if not 0.0 <= support_floor < 1.0:
        raise EstimationError("support_floor must be in [0, 1)")


def _chain_from_stats(
    original: DTMC,
    current: DTMC,
    edge_stats: "dict[tuple[int, int], float]",
    state_stats: "dict[int, float]",
    smoothing: float,
    support_floor: float,
) -> DTMC:
    """Build the updated proposal from (possibly accumulated) CE stats."""
    _validate_ce_parameters(smoothing, support_floor)
    rows, cols, data = [], [], []
    updated_states = set()
    for state, total in state_stats.items():
        if total <= 0.0:
            continue
        updated_states.add(state)
        support, base_probs = original.row_entries(state)
        base = {int(j): float(p) for j, p in zip(support, base_probs)}
        current_row = {
            int(j): float(p) for j, p in zip(*current.row_entries(state))
        }
        for j in base:
            ce_value = edge_stats.get((state, j), 0.0) / total
            mixed = (1.0 - support_floor) * ce_value + support_floor * base[j]
            smoothed = smoothing * mixed + (1.0 - smoothing) * current_row.get(j, 0.0)
            if smoothed > 0.0:
                rows.append(state)
                cols.append(j)
                data.append(smoothed)
    # Untouched states keep their current rows.
    for state in range(current.n_states):
        if state in updated_states:
            continue
        support, probs = current.row_entries(state)
        rows.extend([state] * support.size)
        cols.extend(int(j) for j in support)
        data.extend(float(p) for p in probs)

    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(current.n_states, current.n_states))
    # Renormalise rows exactly (smoothing of mixtures already sums to 1 up to
    # floating error; enforce it).
    sums = linalg.row_sums(matrix)
    if np.any(sums <= 0):
        raise EstimationError("cross-entropy update produced an empty row")
    matrix = linalg.scale_rows(matrix, 1.0 / sums)
    if not current.is_sparse:
        matrix = matrix.toarray()
    return DTMC(matrix, current.initial_state, current.labels, current.state_names)


def cross_entropy_proposal(
    original: DTMC,
    formula: Formula,
    n_iterations: int = 5,
    samples_per_iteration: int = 1000,
    rng: np.random.Generator | int | None = None,
    initial_proposal: DTMC | None = None,
    smoothing: float = 1.0,
    support_floor: float = 0.05,
    max_steps: int | None = None,
) -> CrossEntropyResult:
    """Iterate the CE update to produce an IS proposal for *formula*.

    *initial_proposal* defaults to the original chain — appropriate when the
    event is merely uncommon; for truly rare events seed with a
    zero-variance proposal of a learnt chain (see module docstring).
    """
    if n_iterations <= 0:
        raise EstimationError("n_iterations must be positive")
    generator = ensure_rng(rng)
    proposal = _initial_chain(original, initial_proposal)
    successes: list[int] = []
    for _ in range(n_iterations):
        sample = run_importance_sampling(
            proposal, formula, samples_per_iteration, generator, max_steps=max_steps
        )
        successes.append(sample.n_satisfied)
        if sample.n_satisfied == 0:
            continue
        log_w = log_weights(original, sample)
        proposal = cross_entropy_update(
            original, proposal, sample.count_arrays, log_w, smoothing, support_floor
        )
    return CrossEntropyResult(proposal, n_iterations, successes)


@dataclass(frozen=True)
class CrossEntropyEstimate:
    """Outcome of an iterated optimise-then-estimate cross-entropy run.

    Attributes
    ----------
    result:
        The final importance-sampling estimate, drawn under the refined
        proposal (``method == "cross-entropy"``).
    proposal:
        The refined proposal the final run sampled under (``None`` when
        the estimate was decoded from a stored record — the store codec
        keeps the scalar results, not the chain).
    rounds:
        Number of refinement rounds executed.
    refine_samples:
        Total traces spent on refinement (``rounds ×`` per-round budget).
    final_samples:
        Traces spent on the final estimation run.
    n_satisfied_per_round:
        Successful-trace count of each refinement round, in order.
    """

    result: EstimationResult
    proposal: DTMC | None
    rounds: int
    refine_samples: int
    final_samples: int
    n_satisfied_per_round: tuple[int, ...]


def cross_entropy_estimate(
    original: DTMC,
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    *,
    rounds: int = 3,
    refine_fraction: float = 0.5,
    smoothing: float = 1.0,
    support_floor: float = 0.05,
    initial_proposal: DTMC | None = None,
    confidence: float = 0.95,
    max_steps: int | None = None,
    backend: str | None = "auto",
) -> CrossEntropyEstimate:
    """Iterated optimise-then-estimate: CE refinement, then one IS run.

    The *n_samples* budget is split: ``refine_fraction`` of it is divided
    evenly across *rounds* CE refinement rounds (each sampling under the
    current proposal, with per-trace counts kept for the update), and
    the remainder funds a final fused-weight IS run under the refined
    proposal — so the total simulation cost matches a plain ``is`` run of
    the same budget.

    Unlike :func:`cross_entropy_proposal`, the weighted transition
    statistics *accumulate* across rounds — every refinement trace informs
    the final fit (each round's weights target the same zero-variance
    stats, so pooling them is consistent), which keeps the fitted rows
    from thrashing at small per-round budgets.

    A refinement round that sees no successful trace raises
    :class:`~repro.errors.EstimationError` immediately rather than letting
    zero weights poison the update: seed with a better *initial_proposal*
    (e.g. :func:`~repro.importance.zero_variance.zero_variance_proposal`)
    or raise the budget.
    """
    _validate_ce_parameters(smoothing, support_floor)
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    if rounds <= 0:
        raise EstimationError("rounds must be positive")
    if not 0.0 < refine_fraction < 1.0:
        raise EstimationError("refine_fraction must be in (0, 1)")
    per_round = int(n_samples * refine_fraction) // rounds
    if per_round <= 0:
        raise EstimationError(
            f"budget too small: {n_samples} samples leave no traces for "
            f"{rounds} refinement round(s) at refine_fraction={refine_fraction}"
        )
    final_samples = n_samples - rounds * per_round
    generator = ensure_rng(rng)
    proposal = _initial_chain(original, initial_proposal)
    successes: list[int] = []
    edge_stats: "dict[tuple[int, int], float]" = {}
    state_stats: "dict[int, float]" = {}
    shift: float | None = None
    with _obs_trace.span("ce-refine", rounds=rounds):
        for round_index in range(rounds):
            sample = run_importance_sampling(
                proposal,
                formula,
                per_round,
                generator,
                max_steps=max_steps,
                backend=backend,
                original=original,
                keep_counts=True,
            )
            successes.append(sample.n_satisfied)
            _METRIC_CE_ROUNDS.inc()
            if sample.n_satisfied == 0:
                raise EstimationError(
                    f"cross-entropy round {round_index + 1}/{rounds} saw no "
                    f"successful trace in {per_round} samples; seed with a "
                    "better initial_proposal (e.g. zero_variance_proposal) or "
                    "raise the budget"
                )
            log_w = log_weights(original, sample)
            _ce_round_event(round_index, rounds, sample, log_w)
            # One weight scale across all rounds: stats are normalised by the
            # running maximum log weight, rescaling the accumulators when a
            # new round raises it (the common scale cancels in the ratio).
            round_max = float(log_w.max())
            if shift is None:
                shift = round_max
            elif round_max > shift:
                factor = math.exp(shift - round_max)
                edge_stats = {key: value * factor for key, value in edge_stats.items()}
                state_stats = {key: value * factor for key, value in state_stats.items()}
                shift = round_max
            weights = np.exp(log_w - shift)
            new_edges, new_states = _weighted_transition_stats(
                sample.count_arrays, weights
            )
            for key, value in new_edges.items():
                edge_stats[key] = edge_stats.get(key, 0.0) + value
            for key, value in new_states.items():
                state_stats[key] = state_stats.get(key, 0.0) + value
            proposal = _chain_from_stats(
                original, proposal, edge_stats, state_stats, smoothing, support_floor
            )
    final_sample = run_importance_sampling(
        proposal,
        formula,
        final_samples,
        generator,
        max_steps=max_steps,
        backend=backend,
        original=original,
        keep_counts=False,
    )
    result = replace(
        estimate_from_sample(original, final_sample, confidence),
        method="cross-entropy",
    )
    return CrossEntropyEstimate(
        result=result,
        proposal=proposal,
        rounds=rounds,
        refine_samples=rounds * per_round,
        final_samples=final_samples,
        n_satisfied_per_round=tuple(successes),
    )
