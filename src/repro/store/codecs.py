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
read. Next to it, under ``"search"``, sits Algorithm 2's summary
(:func:`encode_search_summary`): rounds, stopping reason, γ/σ at both
extremes and the optimised rows, which Table I reads; it is ``None`` when
no trace succeeded. Records written before the summary existed lack the
key and still decode as estimation results. A ``ce`` cell stores its
estimate with the cross-entropy encoder, which drops the refined proposal
chain: the scalar results and per-round diagnostics are what the matrix
artifacts show. Nothing decodes it back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.importance.cross_entropy import CrossEntropyEstimate
from repro.smc.results import ConfidenceInterval, EstimationResult

if TYPE_CHECKING:
    from repro.imcis.random_search import RandomSearchResult

__all__ = [
    "decode_estimation_result",
    "decode_interval",
    "decode_search_summary",
    "encode_ce_estimate",
    "encode_estimation_result",
    "encode_interval",
    "encode_search_summary",
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


def encode_search_summary(search: "RandomSearchResult | None") -> "dict[str, object] | None":
    """Encode Algorithm 2's outcome without its history or log-vectors.

    Keeps the round counts, the stopping reason, γ/σ at both extremes and
    the optimised rows as ``{state: [probabilities]}`` (JSON object keys
    are strings). ``None`` when the search did not run.
    """
    if search is None:
        return None
    return {
        "rounds_total": search.rounds_total,
        "rounds_to_min": search.rounds_to_min,
        "rounds_to_max": search.rounds_to_max,
        "stopped_by": search.stopped_by,
        "gamma_min": search.moments_min.gamma,
        "sigma_min": search.moments_min.sigma,
        "gamma_max": search.moments_max.gamma,
        "sigma_max": search.moments_max.sigma,
        "rows_min": {str(state): row.tolist() for state, row in search.rows_min.items()},
        "rows_max": {str(state): row.tolist() for state, row in search.rows_max.items()},
    }


def decode_search_summary(payload: "dict[str, object] | None") -> "dict[str, object] | None":
    """Invert :func:`encode_search_summary`, with the rows keyed by ``int`` state."""
    if payload is None:
        return None
    summary = dict(payload)
    for name in ("rows_min", "rows_max"):
        summary[name] = {int(state): row for state, row in payload[name].items()}
    return summary
