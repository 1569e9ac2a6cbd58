"""Learning global parameters of parametric models (Section II-B, VI-B).

Large models are often "parametrised by global variables that may be learnt
up to some precision" — the repair benchmarks depend on a single failure
rate ``α``. Instead of estimating every transition, one estimates ``α``
from event observations and derives the chain (and the IMC over the
parameter's confidence interval) from it. The paper's group-repair
experiment: frequentist inference gives ``α̂ = 0.0995`` with a 99.9 %
confidence interval ``[0.09852, 0.10048]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LearningError
from repro.smc.intervals import normal_quantile


@dataclass(frozen=True)
class ParameterEstimate:
    """A point estimate of a global parameter with a confidence interval."""

    value: float
    low: float
    high: float
    confidence: float
    n_observations: int

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.high - self.low) / 2.0

    def as_interval(self) -> tuple[float, float]:
        """The ``(low, high)`` pair, e.g. for ``ParametricModel.imc_over_box``."""
        return (self.low, self.high)


def estimate_bernoulli_parameter(
    n_events: int, n_trials: int, confidence: float = 0.999
) -> ParameterEstimate:
    """Frequentist estimate of an event probability with a normal CI.

    ``α̂ = k/n`` and ``α̂ ± z sqrt(α̂(1−α̂)/n)`` — the construction behind
    the paper's ``α ∈ [0.09852, 0.10048]`` interval.
    """
    if n_trials <= 0:
        raise LearningError("n_trials must be positive")
    if not 0 <= n_events <= n_trials:
        raise LearningError("n_events must lie in [0, n_trials]")
    p = n_events / n_trials
    z = normal_quantile(confidence)
    half = z * math.sqrt(max(p * (1.0 - p), 1e-300) / n_trials)
    return ParameterEstimate(
        value=p,
        low=max(0.0, p - half),
        high=min(1.0, p + half),
        confidence=confidence,
        n_observations=n_trials,
    )


def exposure_for_margin(
    value: float, half_width: float, confidence: float = 0.999
) -> int:
    """Trials needed for the CI of *value* to have the given half width.

    Useful to reproduce a target interval: the paper's ``α̂ = 0.0995 ±
    0.00098`` needs ``n ≈ z² α(1−α) / h²`` observations.
    """
    if half_width <= 0:
        raise LearningError("half_width must be positive")
    z = normal_quantile(confidence)
    return math.ceil(z * z * value * (1.0 - value) / (half_width * half_width))
