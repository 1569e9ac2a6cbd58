"""Bayesian estimation for statistical model checking.

The paper notes (Section I) that SMC "is not limited to frequentist
inference and may use alternative efficient techniques, such as Bayesian
inference [Jha et al., CMSB 2009]". This module provides the standard
Beta–Bernoulli machinery: a conjugate posterior over ``γ`` from trace
verdicts, credible intervals, and the Bayes-factor test of Jha et al.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.properties.logic import Formula
from repro.smc.engine import DEFAULT_CHUNK_SIZE, iter_verdicts, make_plan, resolve_backend
from repro.smc.results import ConfidenceInterval
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class BetaPosterior:
    """A Beta(α, β) posterior over a satisfaction probability."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise EstimationError("Beta parameters must be positive")

    @property
    def mean(self) -> float:
        """Posterior mean ``α / (α + β)``."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def mode(self) -> float | None:
        """Posterior mode (undefined when either parameter is below one)."""
        if self.alpha <= 1 or self.beta <= 1:
            return None
        return (self.alpha - 1) / (self.alpha + self.beta - 2)

    @property
    def variance(self) -> float:
        """Posterior variance."""
        total = self.alpha + self.beta
        return self.alpha * self.beta / (total * total * (total + 1.0))

    def update(self, successes: int, failures: int) -> "BetaPosterior":
        """Conjugate update with new Bernoulli observations."""
        if successes < 0 or failures < 0:
            raise EstimationError("counts must be non-negative")
        return BetaPosterior(self.alpha + successes, self.beta + failures)

    def credible_interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Equal-tailed credible interval at the given level."""
        if not 0.0 < confidence < 1.0:
            raise EstimationError("confidence must be in (0, 1)")
        tail = (1.0 - confidence) / 2.0
        low = float(stats.beta.ppf(tail, self.alpha, self.beta))
        high = float(stats.beta.ppf(1.0 - tail, self.alpha, self.beta))
        return ConfidenceInterval(low, high, confidence)

    def probability_above(self, threshold: float) -> float:
        """Posterior probability that γ exceeds *threshold*."""
        return float(stats.beta.sf(threshold, self.alpha, self.beta))


@dataclass(frozen=True)
class BayesianResult:
    """Outcome of a Bayesian estimation run."""

    posterior: BetaPosterior
    interval: ConfidenceInterval
    n_samples: int
    n_satisfied: int

    @property
    def estimate(self) -> float:
        """Posterior-mean point estimate."""
        return self.posterior.mean


def bayesian_estimate(
    model: DTMC,
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    prior: BetaPosterior = BetaPosterior(1.0, 1.0),
    confidence: float = 0.95,
    max_steps: int | None = None,
    backend: str | None = "auto",
) -> BayesianResult:
    """Estimate ``P(model ⊨ formula)`` with a Beta–Bernoulli posterior.

    The verdicts are exchangeable, so the whole sample is drawn as one
    batch on the selected simulation *backend*.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    generator = ensure_rng(rng)
    simulator = resolve_backend(
        backend, make_plan(model, formula, max_steps=max_steps, count_mode="none")
    )
    successes = simulator.run_ensemble(n_samples, generator).n_satisfied
    posterior = prior.update(successes, n_samples - successes)
    return BayesianResult(
        posterior=posterior,
        interval=posterior.credible_interval(confidence),
        n_samples=n_samples,
        n_satisfied=successes,
    )


def bayes_factor_test(
    model: DTMC,
    formula: Formula,
    threshold: float,
    bayes_factor_bound: float = 100.0,
    prior: BetaPosterior = BetaPosterior(1.0, 1.0),
    rng: np.random.Generator | int | None = None,
    max_samples: int = 1_000_000,
    max_steps: int | None = None,
    backend: str | None = "auto",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[str, int]:
    """Sequential Bayes-factor test of ``H0: γ >= threshold`` (Jha et al.).

    Samples until the Bayes factor ``P(H0|data)/P(H1|data) ×
    P(H1)/P(H0)`` exceeds *bayes_factor_bound* (accept) or drops below its
    reciprocal (reject). Returns ``(decision, samples_used)`` with decision
    in ``{"accept", "reject", "undecided"}``. Traces come from the
    simulation engine in batches of *chunk_size*; the factor is updated
    per verdict, so the stopping index matches one-at-a-time sampling.
    """
    if not 0.0 < threshold < 1.0:
        raise EstimationError("threshold must be in (0, 1)")
    if bayes_factor_bound <= 1.0:
        raise EstimationError("bayes_factor_bound must exceed 1")
    generator = ensure_rng(rng)
    simulator = resolve_backend(
        backend, make_plan(model, formula, max_steps=max_steps, count_mode="none")
    )
    prior_h0 = prior.probability_above(threshold)
    prior_h1 = 1.0 - prior_h0
    if prior_h0 <= 0.0 or prior_h1 <= 0.0:
        raise EstimationError("the prior must give both hypotheses positive mass")
    prior_odds = prior_h1 / prior_h0

    successes = 0
    n = 0
    for satisfied in iter_verdicts(simulator, max_samples, generator, chunk_size):
        n += 1
        successes += int(satisfied)
        posterior = prior.update(successes, n - successes)
        p_h0 = posterior.probability_above(threshold)
        p_h1 = 1.0 - p_h0
        if p_h1 <= 0.0:
            return "accept", n
        if p_h0 <= 0.0:
            return "reject", n
        factor = (p_h0 / p_h1) * prior_odds
        if factor >= bayes_factor_bound:
            return "accept", n
        if factor <= 1.0 / bayes_factor_bound:
            return "reject", n
    return "undecided", max_samples
