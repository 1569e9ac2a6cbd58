"""Shared JSON codecs for the result records the experiments cache.

Each experiment owns the codec of its repetition type (it knows what its
aggregation consumes); the building blocks common to several of them —
confidence intervals, plain estimation results, cross-entropy estimates —
live here. Encoding uses plain ``float``/``int`` fields only, so a JSON
round-trip is bitwise exact for every finite value and stable for the
non-finite ones (``NaN`` effective sample sizes of all-zero-weight
samples survive as ``NaN``).

A matrix ``imcis`` cell stores its centre-chain IS result with the
estimation-result codec; that is the IS row Table II and Figures 2 and 4
read. A ``ce`` cell stores its estimate with the cross-entropy encoder,
which drops the refined proposal chain: the scalar results and per-round
diagnostics are what the matrix artifacts show. Nothing decodes it back.
"""

from __future__ import annotations

from repro.importance.cross_entropy import CrossEntropyEstimate
from repro.smc.results import ConfidenceInterval, EstimationResult

__all__ = [
    "decode_estimation_result",
    "decode_interval",
    "encode_ce_estimate",
    "encode_estimation_result",
    "encode_interval",
]


def encode_interval(interval: ConfidenceInterval) -> "dict[str, float]":
    """Encode a confidence interval to a JSON-serialisable payload."""
    return {
        "low": interval.low,
        "high": interval.high,
        "confidence": interval.confidence,
    }


def decode_interval(payload: "dict[str, float]") -> ConfidenceInterval:
    """Invert :func:`encode_interval`."""
    return ConfidenceInterval(
        low=payload["low"], high=payload["high"], confidence=payload["confidence"]
    )


def encode_estimation_result(result: EstimationResult) -> "dict[str, object]":
    """Encode an :class:`~repro.smc.results.EstimationResult`."""
    return {
        "estimate": result.estimate,
        "std_dev": result.std_dev,
        "n_samples": result.n_samples,
        "interval": encode_interval(result.interval),
        "n_satisfied": result.n_satisfied,
        "n_undecided": result.n_undecided,
        "method": result.method,
        "ess": result.ess,
    }


def decode_estimation_result(payload: "dict[str, object]") -> EstimationResult:
    """Invert :func:`encode_estimation_result`."""
    return EstimationResult(
        estimate=payload["estimate"],
        std_dev=payload["std_dev"],
        n_samples=payload["n_samples"],
        interval=decode_interval(payload["interval"]),
        n_satisfied=payload["n_satisfied"],
        n_undecided=payload["n_undecided"],
        method=payload["method"],
        ess=payload["ess"],
    )


def encode_ce_estimate(estimate: CrossEntropyEstimate) -> "dict[str, object]":
    """Encode a :class:`~repro.importance.cross_entropy.CrossEntropyEstimate`.

    The refined proposal chain is dropped (see module docstring); every
    scalar — the final estimate, the budget split, the per-round success
    counts — is kept as a plain JSON number.
    """
    return {
        "result": encode_estimation_result(estimate.result),
        "rounds": estimate.rounds,
        "refine_samples": estimate.refine_samples,
        "final_samples": estimate.final_samples,
        "n_satisfied_per_round": list(estimate.n_satisfied_per_round),
    }
