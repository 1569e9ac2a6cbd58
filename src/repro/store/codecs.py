"""Shared JSON codecs for the result records the experiments cache.

Each experiment owns the codec of its repetition type (it knows what its
aggregation consumes); the building blocks common to several of them —
confidence intervals, plain estimation results, IMCIS results — live
here. Encoding uses plain ``float``/``int`` fields only, so a JSON
round-trip is bitwise exact for every finite value and stable for the
non-finite ones (``NaN`` effective sample sizes of all-zero-weight
samples survive as ``NaN``).

The IMCIS codec intentionally drops the random-search trace
(:attr:`~repro.imcis.algorithm.IMCISResult.search`): it is a per-run
diagnostic — row assignments and improvement history — that no experiment
artifact aggregates, and it dwarfs the scalar results it accompanies. A
decoded result therefore has ``search=None``; everything the coverage,
Table II and figure artifacts read is preserved exactly. The
cross-entropy codec similarly drops the refined proposal chain (a decoded
estimate has ``proposal=None``): the scalar results and per-round
diagnostics are what the matrix artifacts aggregate.
"""

from __future__ import annotations

from repro.imcis.algorithm import IMCISResult
from repro.importance.cross_entropy import CrossEntropyEstimate
from repro.smc.results import ConfidenceInterval, EstimationResult

__all__ = [
    "decode_ce_estimate",
    "decode_estimation_result",
    "decode_imcis_result",
    "decode_interval",
    "encode_ce_estimate",
    "encode_estimation_result",
    "encode_imcis_result",
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


def encode_imcis_result(result: IMCISResult) -> "dict[str, object]":
    """Encode an :class:`~repro.imcis.algorithm.IMCISResult` (sans search)."""
    return {
        "interval": encode_interval(result.interval),
        "gamma_min": result.gamma_min,
        "sigma_min": result.sigma_min,
        "gamma_max": result.gamma_max,
        "sigma_max": result.sigma_max,
        "center_estimate": encode_estimation_result(result.center_estimate),
        "n_total": result.n_total,
        "n_satisfied": result.n_satisfied,
        "n_undecided": result.n_undecided,
    }


def encode_ce_estimate(estimate: CrossEntropyEstimate) -> "dict[str, object]":
    """Encode a :class:`~repro.importance.cross_entropy.CrossEntropyEstimate`.

    The refined proposal chain is dropped (see module docstring); every
    scalar — the final estimate, the budget split, the per-round success
    counts — round-trips exactly.
    """
    return {
        "result": encode_estimation_result(estimate.result),
        "rounds": estimate.rounds,
        "refine_samples": estimate.refine_samples,
        "final_samples": estimate.final_samples,
        "n_satisfied_per_round": list(estimate.n_satisfied_per_round),
    }


def decode_ce_estimate(payload: "dict[str, object]") -> CrossEntropyEstimate:
    """Invert :func:`encode_ce_estimate` (``proposal`` comes back ``None``)."""
    return CrossEntropyEstimate(
        result=decode_estimation_result(payload["result"]),
        proposal=None,
        rounds=payload["rounds"],
        refine_samples=payload["refine_samples"],
        final_samples=payload["final_samples"],
        n_satisfied_per_round=tuple(payload["n_satisfied_per_round"]),
    )


def decode_imcis_result(payload: "dict[str, object]") -> IMCISResult:
    """Invert :func:`encode_imcis_result` (``search`` comes back ``None``)."""
    return IMCISResult(
        interval=decode_interval(payload["interval"]),
        gamma_min=payload["gamma_min"],
        sigma_min=payload["sigma_min"],
        gamma_max=payload["gamma_max"],
        sigma_max=payload["sigma_max"],
        center_estimate=decode_estimation_result(payload["center_estimate"]),
        search=None,
        n_total=payload["n_total"],
        n_satisfied=payload["n_satisfied"],
        n_undecided=payload["n_undecided"],
    )
