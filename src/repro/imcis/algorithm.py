"""IMC Importance Sampling, end to end (Algorithm 1 = IMCIS).

Given an IMC ``[Â]``, an IS proposal ``B`` and a property ``φ``:

1. sample ``N`` traces under ``B``, keeping per-successful-trace transition
   count tables and proposal log-probabilities (lines 1–15);
2. build the objective ``f(A)``/``g(A)`` over the observed transitions
   (lines 16–18);
3. optimise ``f`` over ``A ∈ [Â]`` in both directions by Dirichlet random
   search (line 19 / Algorithm 2);
4. report the conservative ``(1 − δ)`` interval

   ``[ γ̂(A_min) − z σ̂(A_min)/√N ,  γ̂(A_max) + z σ̂(A_max)/√N ]``

(lines 20–23 and the output line). The interval is defined with respect to
the *entire* IMC instead of the single learnt chain ``Â`` — this is what
restores coverage of the true ``γ`` in the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dtmc import DTMC
from repro.core.imc import IMC
from repro.errors import EstimationError
from repro.imcis.candidates import CandidateSpace
from repro.obs import trace as _obs_trace
from repro.imcis.objective import ISObjective
from repro.imcis.random_search import (
    RandomSearchConfig,
    RandomSearchResult,
    random_search,
)
from repro.imcis.tables import ObservationTables
from repro.importance.bounded import UnrolledProposal
from repro.importance.estimator import (
    ISSample,
    estimate_from_sample,
    run_importance_sampling,
)
from repro.properties.logic import Formula
from repro.smc.intervals import normal_quantile
from repro.smc.results import ConfidenceInterval, EstimationResult
from repro.util.rng import ensure_rng


@dataclass
class IMCISResult:
    """Everything Algorithm 1 outputs (plus diagnostics).

    Attributes
    ----------
    interval:
        The final conservative confidence interval ``CI = [L, U]``.
    gamma_min, sigma_min, gamma_max, sigma_max:
        The estimates and standard deviations at ``A_min`` and ``A_max``.
    center_estimate:
        The plain IS estimate w.r.t. the centre chain ``Â`` from the *same*
        sample — the quantity standard IS would report (Table II's IS rows).
    search:
        The random-search trace (rounds, extreme rows, history).
    n_total, n_satisfied, n_undecided:
        Sampling statistics.
    """

    interval: ConfidenceInterval
    gamma_min: float
    sigma_min: float
    gamma_max: float
    sigma_max: float
    center_estimate: EstimationResult
    search: RandomSearchResult | None
    n_total: int
    n_satisfied: int
    n_undecided: int = 0

    @property
    def mid_value(self) -> float:
        """Mid point of the final interval (Table II's "Mid value")."""
        return self.interval.midpoint

    def summary(self) -> str:
        """A compact multi-line report of the run."""
        lines = [
            f"IMCIS: N = {self.n_total} traces "
            f"({self.n_satisfied} satisfied, {self.n_undecided} undecided)",
            f"  IS w.r.t. centre: {self.center_estimate.interval} "
            f"(estimate {self.center_estimate.estimate:.6g})",
            f"  gamma range:      [{self.gamma_min:.6g}, {self.gamma_max:.6g}]",
            f"  IMCIS interval:   {self.interval}",
        ]
        if self.search is not None:
            lines.append(
                f"  search: {self.search.rounds_total} rounds "
                f"(converged at {self.search.rounds_to_converge}, "
                f"stopped by {self.search.stopped_by}); "
                f"{len(self.search.rows_min)} states optimised"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class IMCISConfig:
    """Configuration of an IMCIS run."""

    confidence: float = 0.95
    search: RandomSearchConfig = field(default_factory=RandomSearchConfig)


def imcis_from_sample(
    imc: IMC,
    sample: ISSample,
    rng: np.random.Generator | int | None = None,
    config: IMCISConfig = IMCISConfig(),
) -> IMCISResult:
    """Run the optimisation half of Algorithm 1 on an existing sample.

    Splitting sampling from optimisation lets experiments evaluate IS and
    IMCIS on the *same* traces (as Algorithm 1 does) and re-run the search
    with different settings without re-simulating.
    """
    generator = ensure_rng(rng)
    center_estimate = estimate_from_sample(imc.center, sample, config.confidence)
    n_samples = sample.n_total
    z = normal_quantile(config.confidence)

    if sample.n_satisfied == 0:
        # No successful trace: f ≡ 0 over the whole polytope.
        interval = ConfidenceInterval(0.0, 0.0, config.confidence)
        return IMCISResult(
            interval=interval,
            gamma_min=0.0,
            sigma_min=0.0,
            gamma_max=0.0,
            sigma_max=0.0,
            center_estimate=center_estimate,
            search=None,
            n_total=n_samples,
            n_satisfied=0,
            n_undecided=sample.n_undecided,
        )

    with _obs_trace.span(
        "optimize", method="imcis", n_satisfied=sample.n_satisfied
    ) as sp:
        tables = ObservationTables.from_sample(sample)
        objective = ISObjective(tables)
        space = CandidateSpace(
            imc,
            tables,
            dirichlet=config.search.dirichlet,
            closed_form_single=config.search.closed_form_single,
        )
        search_result = random_search(objective, space, generator, config.search)
        sp.annotate(rounds=search_result.rounds_total)

    gamma_min = search_result.moments_min.gamma
    sigma_min = search_result.moments_min.sigma
    gamma_max = search_result.moments_max.gamma
    sigma_max = search_result.moments_max.sigma
    sqrt_n = np.sqrt(n_samples)
    lower = max(0.0, gamma_min - z * sigma_min / sqrt_n)
    upper = gamma_max + z * sigma_max / sqrt_n
    return IMCISResult(
        interval=ConfidenceInterval(lower, upper, config.confidence),
        gamma_min=gamma_min,
        sigma_min=sigma_min,
        gamma_max=gamma_max,
        sigma_max=sigma_max,
        center_estimate=center_estimate,
        search=search_result,
        n_total=n_samples,
        n_satisfied=sample.n_satisfied,
        n_undecided=sample.n_undecided,
    )


def imcis_estimate(
    imc: IMC,
    proposal: DTMC | UnrolledProposal,
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    config: IMCISConfig = IMCISConfig(),
    max_steps: int | None = None,
    backend: str | None = "auto",
) -> IMCISResult:
    """Full Algorithm 1: sample under *proposal*, optimise over *imc*.

    ``Remark 5.1``: candidate generation and the optimisation are
    independent of the proposal — any ``B`` absolutely continuous w.r.t.
    the chains in the IMC works; the experiments use the perfect proposal
    of the centre chain, a cross-entropy proposal or (SWaT) a
    time-dependent :class:`~repro.importance.bounded.UnrolledProposal`.
    The sampling half runs on the selected simulation *backend*.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    generator = ensure_rng(rng)
    # Fuse the centre-chain numerator into the loop: the centre estimate
    # then comes straight off arrays, while the kept tables feed the
    # polytope search. Count tables stay on (keep_counts default).
    sample = run_importance_sampling(
        proposal, formula, n_samples, generator, max_steps=max_steps,
        backend=backend, original=imc.center,
    )
    return imcis_from_sample(imc, sample, generator, config)
