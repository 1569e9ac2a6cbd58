"""Cross-entropy optimisation of importance-sampling proposals.

Implements the Markov-chain cross-entropy scheme of Ridder ("Importance
sampling simulations of Markovian reliability systems using cross-entropy",
Ann. OR 134, 2005) — the method the paper uses to build proposals for the
repair benchmarks (reference [24]).

Each refinement round samples traces under the current proposal ``B_t``
and sets

    b_ij  ←  Σ_k w_k n_ij(ω_k)  /  Σ_k w_k n_i(ω_k),

summing over the successful traces of every round so far, where
``w_k = z(ω_k) L(ω_k)`` is the likelihood-ratio weight against the
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
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from repro.core import linalg
from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.importance.estimator import (
    ISSample,
    ess_from_log_sums,
    estimate_from_sample,
    log_weight_sums,
    log_weights,
    run_importance_sampling,
)
from repro.properties.logic import Formula
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
    log_f, log_g = log_weight_sums(log_w)
    _obs_trace.event(
        "ce-round",
        round=round_index + 1,
        rounds=rounds,
        n_satisfied=sample.n_satisfied,
        ess=ess_from_log_sums(log_f, log_g),
        max_log_weight=float(log_w.max()),
        max_weight_share=float(np.exp(log_w.max() - log_f)),
    )


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


def _csr_entries(chain: DTMC) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Rows, columns, probabilities and ``row·n + column`` keys of *chain*'s
    non-zero entries in canonical CSR order, so the keys are sorted."""
    csr = sparse.csr_matrix(chain.transitions)
    if not csr.has_sorted_indices:
        csr = csr.sorted_indices()
    rows = np.repeat(np.arange(chain.n_states, dtype=np.int64), np.diff(csr.indptr))
    cols = csr.indices.astype(np.int64)
    return rows, cols, csr.data, rows * np.int64(chain.n_states) + cols


def _entry_sums(keys: np.ndarray, sample: ISSample, weights: np.ndarray) -> np.ndarray:
    """``Σ_k w_k n_ij`` per original entry, binned from *sample*'s step records.

    *keys* are the original chain's sorted entry keys (:func:`_csr_entries`)
    and ``weights[k]`` is successful trace ``k``'s weight. Each entry of
    the sampled chain's record table is mapped to its original entry once
    (past the last bin when the original lacks it: only a failed trace
    can take such a transition, since :func:`log_weights` rejects a
    successful one); failed traces weigh zero. ``np.bincount`` adds each
    bin's terms in record order.
    """
    records = sample.step_records
    at = np.minimum(np.searchsorted(keys, records.entry_keys), keys.size - 1)
    entry_of = np.where(keys[at] == records.entry_keys, at, keys.size)
    trace_weights = np.zeros(records.n_traces)
    trace_weights[sample.trace_ids] = weights
    return np.bincount(
        entry_of.take(records.positions),
        weights=trace_weights.take(records.traces),
        minlength=keys.size + 1,
    )[:-1]


def _refit(
    entries: "tuple[np.ndarray, ...]",
    current: DTMC,
    entry_stats: np.ndarray,
    smoothing: float,
    support_floor: float,
) -> DTMC:
    """The proposal refitted from accumulated CE statistics.

    A state's total ``Σ_k w_k n_i`` is the sum of its row's
    *entry_stats*. A state of positive total takes the original row's
    support (*entries*), each entry ``s·((1−f)·e/total + f·base) +
    (1−s)·current`` (the chain drops those that come out zero); every
    other state keeps its current row.
    """
    rows, cols, base, keys = entries
    state_stats = np.bincount(rows, weights=entry_stats, minlength=current.n_states)
    updated = state_stats > 0.0
    fit = updated[rows]
    fit_rows, fit_keys = rows[fit], keys[fit]
    ce_value = entry_stats[fit] / state_stats[fit_rows]
    mixed = (1.0 - support_floor) * ce_value + support_floor * base[fit]
    cur_rows, cur_cols, cur_probs, cur_keys = _csr_entries(current)
    at = np.minimum(np.searchsorted(cur_keys, fit_keys), cur_keys.size - 1)
    cur_at = np.where(cur_keys[at] == fit_keys, cur_probs[at], 0.0)
    smoothed = smoothing * mixed + (1.0 - smoothing) * cur_at
    copied = ~updated[cur_rows]
    n = current.n_states
    matrix = sparse.csr_matrix(
        (
            np.concatenate((smoothed, cur_probs[copied])),
            (
                np.concatenate((fit_rows, cur_rows[copied])),
                np.concatenate((cols[fit], cur_cols[copied])),
            ),
        ),
        shape=(n, n),
    )
    # Renormalise rows exactly (smoothing of mixtures already sums to 1 up to
    # floating error; enforce it).
    sums = linalg.row_sums(matrix)
    if np.any(sums <= 0):
        raise EstimationError("cross-entropy update produced an empty row")
    matrix = linalg.scale_rows(matrix, 1.0 / sums)
    if not current.is_sparse:
        matrix = matrix.toarray()
    return DTMC(matrix, current.initial_state, current.labels, current.state_names)


@dataclass(frozen=True)
class CrossEntropyEstimate:
    """Outcome of an iterated optimise-then-estimate cross-entropy run.

    Attributes
    ----------
    result:
        The final importance-sampling estimate, drawn under the refined
        proposal (``method == "cross-entropy"``).
    proposal:
        The refined proposal the final run sampled under (the store
        codec keeps the scalar results, not the chain).
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
    proposal: DTMC
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
) -> CrossEntropyEstimate:
    """Iterated optimise-then-estimate: CE refinement, then one IS run.

    The *n_samples* budget is split: ``refine_fraction`` of it is divided
    evenly across *rounds* CE refinement rounds (each sampling under the
    current proposal, with its step records kept for the update), and
    the remainder funds a final fused-weight IS run under the refined
    proposal — so the total simulation cost matches a plain ``is`` run of
    the same budget.

    The weighted transition statistics *accumulate* across rounds, in
    one float array per original-chain CSR entry, binned straight from
    each round's step records (no per-trace count tables are built):
    every refinement trace informs each refit (each round's weights
    target the same zero-variance stats, so pooling them is consistent),
    which keeps the fitted rows from thrashing at small per-round budgets.

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
    entries = _csr_entries(original)
    entry_stats = np.zeros(entries[3].size)
    shift = -math.inf
    with _obs_trace.span("ce-refine", rounds=rounds):
        for round_index in range(rounds):
            sample = run_importance_sampling(
                proposal,
                formula,
                per_round,
                generator,
                max_steps=max_steps,
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
            # running maximum log weight, rescaling the accumulator when a
            # new round raises it (the common scale cancels in the ratio;
            # the first round scales the zero array by exp(-inf) = 0).
            round_max = float(log_w.max())
            if round_max > shift:
                entry_stats *= math.exp(shift - round_max)
                shift = round_max
            entry_stats += _entry_sums(entries[3], sample, np.exp(log_w - shift))
            proposal = _refit(entries, proposal, entry_stats, smoothing, support_floor)
    final_sample = run_importance_sampling(
        proposal,
        formula,
        final_samples,
        generator,
        max_steps=max_steps,
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
