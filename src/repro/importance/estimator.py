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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.importance.bounded import UnrolledProposal
from repro.obs import trace as _obs_trace
from repro.properties.logic import Formula
from repro.smc.engine import make_plan, resolve_backend
from repro.smc.intervals import normal_ci
from repro.smc.kernels import TraceCounts, flat_pair_log_probs
from repro.smc.results import EstimationResult
from repro.util.rng import ensure_rng


@dataclass(eq=False)
class ISSample:
    """A batch of traces drawn under an importance-sampling proposal.

    Only successful traces carry data (a failed trace contributes
    ``z·L = 0``); ``n_total`` remembers the full batch size ``N_IS``.
    Per successful trace ``k`` the sample holds ``log_proposal[k] =
    log P_B(ω_k)`` and, when counts were kept, its transition counts as
    trace ``k`` of ``count_arrays`` (a
    :class:`~repro.smc.kernels.TraceCounts`). ``log_numerator`` holds the
    fused ``log P_A(ω_k)`` against ``weight_chain`` when the sample was
    drawn with one; :func:`log_weights` uses it for that exact chain and
    the counts for any other.
    """

    n_total: int
    log_proposal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_undecided: int = 0
    mean_length: float = 0.0
    count_arrays: "TraceCounts | None" = None
    log_numerator: "np.ndarray | None" = None
    weight_chain: "DTMC | None" = None

    def __post_init__(self) -> None:
        self.log_proposal = np.asarray(self.log_proposal, dtype=np.float64)

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
        and carry count arrays, fused log-numerators, or both.
        *state_map*/*n_states* project the counts through ``state →
        state_map[state]`` (unrolled-chain counts back onto the original
        chain). *weight_chain* records which chain the batch's fused
        ``log_numerators`` were accumulated against.
        """
        if batch.log_proposals is None:
            raise EstimationError(
                "the batch was simulated without log-proposal probabilities; "
                "sample with record_log_prob=True"
            )
        if batch.count_arrays is None and batch.log_numerators is None:
            raise EstimationError(
                "the batch was simulated without count tables or fused "
                "log-numerators; sample with count_mode='satisfied' or a "
                "weight_chain"
            )
        sat_idx = np.flatnonzero(batch.satisfied)
        arrays = None
        if batch.count_arrays is not None:
            arrays = batch.count_arrays.select(sat_idx)
            if state_map is not None:
                if n_states is None:
                    raise EstimationError("state_map requires n_states")
                arrays = arrays.map_states(state_map, n_states)
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
            count_arrays=arrays,
            log_numerator=lognum,
            weight_chain=weight_chain,
        )

    def effective_sample_size(self, original: DTMC) -> float:
        """ESS of the sample weighted against *original*.

        The standard IS health diagnostic ``(Σ L_k)² / Σ L_k²``: the
        number of ideal unweighted samples the weighted sample is worth.
        An ESS far below ``n_satisfied`` signals weight degeneracy — a
        proposal poorly matched to *original* (the failure mode behind
        the over-confident IS intervals of the paper's Table II).
        """
        return ess_from_log_weights(log_weights(original, self))


def run_importance_sampling(
    proposal: "DTMC | UnrolledProposal",
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    max_steps: int | None = None,
    initial_state: int | None = None,
    backend: str | None = "auto",
    original: DTMC | None = None,
    keep_counts: bool = True,
) -> ISSample:
    """Draw *n_samples* traces under *proposal*, keeping success tables.

    Simulation goes through the batch engine: with the default *backend*
    the whole sample is advanced as a lockstep ensemble whenever the
    formula compiles to masks, falling back to the scalar loop otherwise.

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
    generator = ensure_rng(rng)
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
    return ISSample.from_ensemble(
        resolve_backend(backend, plan).run_ensemble(n_samples, generator),
        state_map=state_map,
        n_states=n_states,
        weight_chain=original,
    )


def _impossible_traces_error(
    original: DTMC, sample: ISSample, n_impossible: int
) -> EstimationError:
    """Name what makes sampled traces impossible under *original*.

    With counts, the first ``(source, target)`` of zero probability under
    *original* (in ``(trace, transition)`` entry order) and how many
    successful traces take it; without, how many traces are affected.
    """
    arrays = sample.count_arrays
    if arrays is not None:
        zero = np.isneginf(flat_pair_log_probs(original, arrays.sources, arrays.targets))
        first = int(np.flatnonzero(zero)[0])
        source, target = int(arrays.sources[first]), int(arrays.targets[first])
        users = int(
            np.count_nonzero((arrays.sources == source) & (arrays.targets == target))
        )
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
    with exactly that chain fused in, else from the count arrays
    (:meth:`~repro.smc.kernels.TraceCounts.trace_log_probs`). Both compute
    ``Σ n_ij log a_ij − log P_B(ω)``, identical up to floating-point
    summation order (the fused path adds ``log a_ij`` step by step in
    simulation time; the count path sums ``n_ij · log a_ij`` over the
    distinct transitions of each trace), so estimates agree to a few ULPs
    but not necessarily bitwise across the two.

    Raises :class:`~repro.errors.EstimationError` naming the offending
    transition when a successful trace is impossible under *original*.
    """
    if sample.n_satisfied == 0:
        return np.zeros(0, dtype=np.float64)
    lognum = sample.log_numerator
    if lognum is not None and original is sample.weight_chain:
        log_a = lognum
    elif sample.count_arrays is not None:
        log_a = sample.count_arrays.trace_log_probs(original)
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


def ess_from_log_weights(log_w: np.ndarray) -> float:
    """Effective sample size ``(Σ L_k)² / Σ L_k²`` from log weights."""
    if log_w.size == 0:
        return 0.0
    return float(np.exp(2.0 * logsumexp(log_w) - logsumexp(2.0 * log_w)))


def moments_from_log_weights(log_w: np.ndarray, n_total: int) -> tuple[float, float]:
    """``(γ̂, σ̂)`` from log likelihood ratios, via log-sum-exp.

    ``γ̂ = (Σ L_k)/N`` and ``σ̂² = (Σ L_k²)/N − γ̂²`` (the population form
    used in Algorithm 1, lines 20–23).
    """
    if log_w.size == 0:
        return 0.0, 0.0
    log_f = float(logsumexp(log_w))
    log_g = float(logsumexp(2.0 * log_w))
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
    ``ess`` diagnostic — computed from the same log weights, at the cost
    of one extra ``logsumexp``.
    """
    with _obs_trace.span("weights", n_satisfied=sample.n_satisfied) as sp:
        log_w = log_weights(original, sample)
        gamma, std_dev = moments_from_log_weights(log_w, sample.n_total)
        result = EstimationResult(
            estimate=gamma,
            std_dev=std_dev,
            n_samples=sample.n_total,
            interval=normal_ci(gamma, std_dev, sample.n_total, confidence),
            n_satisfied=sample.n_satisfied,
            n_undecided=sample.n_undecided,
            method="importance-sampling",
            ess=ess_from_log_weights(log_w),
        )
        sp.annotate(ess=result.ess)
    return result


def importance_sampling_estimate(
    original: DTMC,
    proposal: DTMC,
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    confidence: float = 0.95,
    max_steps: int | None = None,
    initial_state: int | None = None,
    backend: str | None = "auto",
) -> EstimationResult:
    """One-call IS estimation: sample under *proposal*, weight by *original*.

    The single-chain shape needs no per-trace tables, so the weights are
    fused into the simulation loop (``keep_counts=False``) — the fastest
    IS path.
    """
    sample = run_importance_sampling(
        proposal, formula, n_samples, rng, max_steps, initial_state,
        backend=backend, original=original, keep_counts=False,
    )
    return estimate_from_sample(original, sample, confidence)
