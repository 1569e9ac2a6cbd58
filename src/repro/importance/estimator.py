"""The importance-sampling estimator (Section III-A, Equation 7).

Sampling and estimation are deliberately split:

* :func:`run_importance_sampling` draws traces under the proposal and keeps,
  per successful trace, its transition-count table and its log-probability
  under the proposal — exactly the tables of Algorithm 1 (lines 1–15);
* :func:`estimate_from_sample` turns such a sample into the IS estimate and
  confidence interval with respect to *any* original chain ``A``.

The split matters because IMCIS evaluates the same sample against many
candidate chains ``A ∈ [Â]`` — the sample is drawn once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.importance.bounded import UnrolledProposal
from repro.obs import trace as _obs_trace
from repro.properties.logic import Formula
from repro.smc.engine import KernelBackend, make_plan
from repro.smc.intervals import normal_ci
from repro.smc.kernels import StepRecords, flat_pair_log_probs
from repro.smc.results import EstimationResult
from repro.util.rng import ensure_rng
from repro.util.stats import logsumexp


class ISSample:
    """A batch of traces drawn under an importance-sampling proposal.

    Only successful traces carry data (a failed trace contributes
    ``z·L = 0``); ``n_total`` remembers the full batch size ``N_IS``.
    Per successful trace ``k`` the sample holds ``log_proposal[k] =
    log P_B(ω_k)``. ``log_numerator`` holds the fused ``log P_A(ω_k)``
    against ``weight_chain`` when the sample was drawn with one;
    :func:`log_weights` uses it for that exact chain and the step
    records for any other.

    When counts were kept, ``step_records`` holds the whole batch's raw
    :class:`~repro.smc.kernels.StepRecords` (trace ids over the batch,
    projected onto the original chain for an unrolled proposal) and
    ``trace_ids[k]`` is the batch index of successful trace ``k``. Every
    count consumer reads the records directly: the IMCIS observation
    tables, the count-path weights and the cross-entropy update.
    """

    def __init__(
        self,
        n_total: int,
        log_proposal=(),
        n_undecided: int = 0,
        mean_length: float = 0.0,
        log_numerator: "np.ndarray | None" = None,
        weight_chain: "DTMC | None" = None,
        step_records: "StepRecords | None" = None,
        trace_ids: "np.ndarray | None" = None,
    ):
        self.n_total = n_total
        self.log_proposal = np.asarray(log_proposal, dtype=np.float64)
        self.n_undecided = n_undecided
        self.mean_length = mean_length
        self.log_numerator = log_numerator
        self.weight_chain = weight_chain
        self.step_records = step_records
        self.trace_ids = trace_ids

    @property
    def n_satisfied(self) -> int:
        """Number of successful traces."""
        return int(self.log_proposal.shape[0])

    @classmethod
    def from_ensemble(
        cls,
        batch,
        state_map: "np.ndarray | None" = None,
        n_states: "int | None" = None,
        weight_chain: "DTMC | None" = None,
    ) -> "ISSample":
        """Build a sample from an engine :class:`EnsembleResult`.

        *batch* must have been simulated with ``record_log_prob=True``
        and carry step records, fused log-numerators, or both.
        *state_map*/*n_states* project the records through ``state →
        state_map[state]`` (unrolled-chain counts back onto the original
        chain). *weight_chain* records which chain the batch's fused
        ``log_numerators`` were accumulated against.
        """
        if batch.log_proposals is None:
            raise EstimationError(
                "the batch was simulated without log-proposal probabilities; "
                "sample with record_log_prob=True"
            )
        records = batch.step_records
        if records is None and batch.log_numerators is None:
            raise EstimationError(
                "the batch was simulated without count tables or fused "
                "log-numerators; sample with count_mode='satisfied' or a "
                "weight_chain"
            )
        if records is not None and state_map is not None:
            if n_states is None:
                raise EstimationError("state_map requires n_states")
            records = records.map_states(state_map, n_states)
        sat_idx = np.flatnonzero(batch.satisfied)
        lognum = (
            batch.log_numerators[sat_idx]
            if batch.log_numerators is not None
            else None
        )
        return cls(
            n_total=batch.n_samples,
            log_proposal=batch.log_proposals[sat_idx],
            n_undecided=batch.n_undecided,
            mean_length=batch.mean_length,
            log_numerator=lognum,
            weight_chain=weight_chain,
            step_records=records,
            trace_ids=sat_idx,
        )

    def effective_sample_size(self, original: DTMC) -> float:
        """ESS of the sample weighted against *original*.

        The standard IS health diagnostic ``(Σ L_k)² / Σ L_k²``: the
        number of ideal unweighted samples the weighted sample is worth.
        An ESS far below ``n_satisfied`` signals weight degeneracy — a
        proposal poorly matched to *original* (the failure mode behind
        the over-confident IS intervals of the paper's Table II).
        """
        return ess_from_log_sums(*log_weight_sums(log_weights(original, self)))


def run_importance_sampling(
    proposal: "DTMC | UnrolledProposal",
    formula: Formula,
    n_samples: int,
    rng: "np.random.Generator | int | None | Sequence[np.random.Generator]" = None,
    max_steps: int | None = None,
    initial_state: int | None = None,
    original: DTMC | None = None,
    keep_counts: bool = True,
) -> "ISSample | list[ISSample]":
    """Draw *n_samples* traces under *proposal*, keeping success tables.

    Simulation goes through the batch engine: the whole sample is
    advanced as a lockstep ensemble, so *formula* must have a mask spec
    (see :meth:`~repro.properties.logic.Formula.mask_spec`).

    Given a list (or tuple) of generators as *rng*, it draws one sample per
    generator, all in one lockstep loop
    (:meth:`~repro.smc.engine.KernelBackend.run_ensembles`), and returns
    them as a list in generator order; each sample is bitwise the one a
    call with that generator alone returns.

    An :class:`~repro.importance.bounded.UnrolledProposal` (a
    time-dependent proposal for a bounded until) is sampled on its
    unrolled chain against its own goal formula, which replaces
    *formula*; its counts come back projected onto the original chain,
    so the sample feeds ``estimate_from_sample`` and
    ``imcis_from_sample`` like any other.

    Passing *original* fuses the IS numerator into the simulation loop —
    :func:`log_weights` against that chain then costs one array
    subtraction. With ``keep_counts=False`` the per-trace counts are
    dropped entirely (the fastest path, enough for a single-chain
    estimate); the sample then serves only the fused chain.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    several = isinstance(rng, (list, tuple))
    generators = [ensure_rng(g) for g in rng] if several else [ensure_rng(rng)]
    chain, futility, state_map, n_states = proposal, "auto", None, None
    if isinstance(proposal, UnrolledProposal):
        chain, formula, futility = proposal.chain, proposal.formula, proposal.futility
        state_map, n_states = proposal.state_map(), proposal.n_original
    count_mode = "none" if (original is not None and not keep_counts) else "satisfied"
    plan = make_plan(
        chain,
        formula,
        max_steps=max_steps,
        count_mode=count_mode,
        record_log_prob=True,
        initial_state=initial_state,
        futility=futility,
        weight_chain=original,
        weight_state_map=state_map if original is not None else None,
    )
    simulator = KernelBackend(plan)
    if several:
        batches = simulator.run_ensembles(n_samples, generators)
    else:
        batches = [simulator.run_ensemble(n_samples, generators[0])]
    samples = [
        ISSample.from_ensemble(
            batch, state_map=state_map, n_states=n_states, weight_chain=original
        )
        for batch in batches
    ]
    return samples if several else samples[0]


def _entry_log_probs(original: DTMC, records: StepRecords) -> np.ndarray:
    """``log a_ij`` under *original* of each entry of the records' table."""
    sources, targets = np.divmod(records.entry_keys, np.int64(records.n_states))
    return flat_pair_log_probs(original, sources, targets)


def _impossible_traces_error(
    original: DTMC, sample: ISSample, n_impossible: int
) -> EstimationError:
    """Name what makes sampled traces impossible under *original*.

    With step records, the first ``(source, target)`` of zero probability
    under *original*, in ``(trace, transition key)`` order over the
    successful traces, and how many successful traces take it; without,
    how many traces are affected.
    """
    records = sample.step_records
    if records is not None:
        successful = np.zeros(records.n_traces, dtype=bool)
        successful[sample.trace_ids] = True
        hit = np.isneginf(_entry_log_probs(original, records)).take(records.positions)
        hit &= successful.take(records.traces)
        traces = records.traces[hit]
        keys = records.entry_keys.take(records.positions[hit])
        key = int(keys[traces == traces.min()].min())
        users = int(np.unique(traces[keys == key]).size)
        source, target = divmod(key, records.n_states)
        detail = (
            f"transition ({source}, {target}) has probability zero under the "
            f"original chain and is taken by {users} of {sample.n_satisfied} "
            "successful traces"
        )
    else:
        detail = (
            f"{n_impossible} of {sample.n_satisfied} successful traces take a "
            "transition of probability zero under the original chain "
            "(re-sample with keep_counts=True to name it)"
        )
    return EstimationError(
        f"sampled trace impossible under the original chain: {detail}; "
        "the proposal is not valid for importance sampling"
    )


def log_weights(original: DTMC, sample: ISSample) -> np.ndarray:
    """Per-successful-trace ``log L_k`` against *original*.

    Served from the fused ``log_numerator`` when the sample was drawn
    with exactly that chain fused in, else from the step records: one
    gather of ``log a_ij`` per entry of the records' table, then one
    ``np.bincount`` of the records' terms by trace. ``bincount`` adds each
    trace's terms in the records' order, which is simulation time, from
    ``0.0`` — exactly as the fused accumulator does — so both paths give
    bitwise the same ``Σ log a_ij − log P_B(ω)``.

    Raises :class:`~repro.errors.EstimationError` naming the offending
    transition when a successful trace is impossible under *original*, and
    when the sample's records are over another number of states.
    """
    records = sample.step_records
    if records is not None and records.n_states != original.n_states:
        raise EstimationError(
            f"the original chain has {original.n_states} states but the "
            f"sample's transition counts are over {records.n_states}"
        )
    if sample.n_satisfied == 0:
        return np.zeros(0, dtype=np.float64)
    lognum = sample.log_numerator
    if lognum is not None and original is sample.weight_chain:
        log_a = lognum
    elif records is not None:
        terms = _entry_log_probs(original, records).take(records.positions)
        log_a = np.bincount(
            records.traces, weights=terms, minlength=records.n_traces
        ).take(sample.trace_ids)
    else:
        raise EstimationError(
            "this sample carries fused log weights for another chain and no "
            "count tables (drawn with keep_counts=False); re-sample with "
            "keep_counts=True to weight it against a different chain"
        )
    impossible = np.isneginf(log_a)
    if impossible.any():
        raise _impossible_traces_error(
            original, sample, int(np.count_nonzero(impossible))
        )
    return log_a - sample.log_proposal


def log_weight_sums(log_w: np.ndarray) -> "tuple[float, float]":
    """``(log Σ L_k, log Σ L_k²)`` from log likelihood ratios.

    The two log-sum-exps every weight statistic reads: the moments, the
    ESS and the max-weight share. Both are ``-inf`` for an empty sample.
    """
    return logsumexp(log_w), logsumexp(2.0 * log_w)


def ess_from_log_sums(log_f: float, log_g: float) -> float:
    """Effective sample size ``(Σ L_k)² / Σ L_k²`` from :func:`log_weight_sums`
    (0 for an empty sample)."""
    if log_g == -math.inf:
        return 0.0
    return float(np.exp(2.0 * log_f - log_g))


def moments_from_log_sums(log_f: float, log_g: float, n_total: int) -> tuple[float, float]:
    """``(γ̂, σ̂)`` from :func:`log_weight_sums` over *n_total* traces.

    ``γ̂ = (Σ L_k)/N`` and ``σ̂² = (Σ L_k²)/N − γ̂²`` (the population form
    used in Algorithm 1, lines 20–23).
    """
    log_n = math.log(n_total)
    gamma = math.exp(log_f - log_n)
    variance = math.exp(log_g - log_n) - gamma * gamma
    return gamma, math.sqrt(max(0.0, variance))


def estimate_from_sample(
    original: DTMC,
    sample: ISSample,
    confidence: float = 0.95,
) -> EstimationResult:
    """IS estimate of ``γ(original)`` from a sample drawn under a proposal.

    The result carries the effective sample size of the weights as its
    ``ess`` diagnostic, read from the same two log-sum-exps as the
    moments.
    """
    with _obs_trace.span("weights", n_satisfied=sample.n_satisfied) as sp:
        log_w = log_weights(original, sample)
        sums = log_weight_sums(log_w)
        gamma, std_dev = moments_from_log_sums(*sums, sample.n_total)
        result = EstimationResult(
            estimate=gamma,
            std_dev=std_dev,
            n_samples=sample.n_total,
            interval=normal_ci(gamma, std_dev, sample.n_total, confidence),
            n_satisfied=sample.n_satisfied,
            n_undecided=sample.n_undecided,
            method="importance-sampling",
            ess=ess_from_log_sums(*sums),
        )
        sp.annotate(ess=result.ess)
    return result
