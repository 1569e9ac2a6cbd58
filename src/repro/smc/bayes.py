"""Bayesian estimation for statistical model checking.

The paper notes (Section I) that SMC "is not limited to frequentist
inference and may use alternative efficient techniques, such as Bayesian
inference [Jha et al., CMSB 2009]". This module provides the standard
Beta–Bernoulli machinery: a conjugate posterior over ``γ`` from trace
verdicts and its credible intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.properties.logic import Formula
from repro.smc.engine import KernelBackend, make_plan
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
        # Boost's ibeta_inv, the routine behind the beta distribution's
        # ppf, without importing the ~0.7 s stats package.
        low = float(betaincinv(self.alpha, self.beta, tail))
        high = float(betaincinv(self.alpha, self.beta, 1.0 - tail))
        return ConfidenceInterval(low, high, confidence)


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
) -> BayesianResult:
    """Estimate ``P(model ⊨ formula)`` with a Beta–Bernoulli posterior.

    The verdicts are exchangeable, so the whole sample is drawn as one
    batch on the lockstep :class:`~repro.smc.engine.KernelBackend`.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    generator = ensure_rng(rng)
    simulator = KernelBackend(
        make_plan(model, formula, max_steps=max_steps, count_mode="none")
    )
    successes = simulator.run_ensemble(n_samples, generator).n_satisfied
    posterior = prior.update(successes, n_samples - successes)
    return BayesianResult(
        posterior=posterior,
        interval=posterior.credible_interval(confidence),
        n_samples=n_samples,
        n_satisfied=successes,
    )
