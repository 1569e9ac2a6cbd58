"""Confidence-interval and error-bound arithmetic.

Implements the interval constructions the paper relies on:

* the normal-approximation interval
  ``γ̂ ± Φ⁻¹(1 − δ/2) σ̂ / sqrt(N)`` (Sections II-C and III-A),
* the Okamoto (a.k.a. Chernoff–Hoeffding) bound used in Section II-B to
  derive learning margins: ``P(|γ̂ − γ| > ε) <= 2 exp(−2 N ε²)``,
* Wilson's score interval as a robust alternative for Bernoulli data.
"""

from __future__ import annotations

import math

from scipy.special import ndtri

from repro.errors import EstimationError
from repro.smc.results import ConfidenceInterval


def normal_quantile(confidence: float) -> float:
    """``Φ⁻¹(1 − δ/2)`` for a two-sided interval at level *confidence*."""
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    delta = 1.0 - confidence
    # ndtri is the normal distribution's own ppf; calling it directly keeps
    # the ~0.7 s stats package out of the import graph.
    return float(ndtri(1.0 - delta / 2.0))


def normal_ci(
    mean: float, std_dev: float, n_samples: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Normal-approximation interval ``mean ± z σ̂ / sqrt(N)``.

    The lower endpoint is clipped at zero: the estimated quantities are
    probabilities.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    if std_dev < 0:
        raise EstimationError("standard deviation must be non-negative")
    z = normal_quantile(confidence)
    half = z * std_dev / math.sqrt(n_samples)
    return ConfidenceInterval(max(0.0, mean - half), mean + half, confidence)


def wilson_ci(successes: int, n_samples: int, confidence: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval — well-behaved at very small proportions."""
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    z = normal_quantile(confidence)
    p = successes / n_samples
    denom = 1.0 + z * z / n_samples
    centre = (p + z * z / (2 * n_samples)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n_samples + z * z / (4 * n_samples * n_samples))
    return ConfidenceInterval(max(0.0, centre - half), min(1.0, centre + half), confidence)


def okamoto_epsilon(n_samples: int, delta: float) -> float:
    """Okamoto-bound absolute error: ``ε = sqrt(ln(2/δ) / (2N))``.

    Section II-B uses this to turn a learnt transition frequency into an
    interval: with ``δ = 1e-5`` and ``N = 1e4``, ``ε ≈ 0.025`` — matching
    the paper's worked example.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    if not 0.0 < delta < 1.0:
        raise EstimationError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def required_samples_relative_error(gamma: float, relative_error: float) -> int:
    """Samples for a target relative error under crude Monte Carlo.

    Section III: the relative error of the Monte Carlo estimator is
    ``z sqrt((1−γ)/(N γ))``; for RE = 10 % one needs ``N ≈ 100/γ``
    (paper's rule of thumb, with z ≈ 1). Returns ``(1−γ)/(γ RE²)``.
    """
    if not 0.0 < gamma < 1.0:
        raise EstimationError("gamma must be in (0, 1)")
    if relative_error <= 0:
        raise EstimationError("relative_error must be positive")
    return math.ceil((1.0 - gamma) / (gamma * relative_error * relative_error))
