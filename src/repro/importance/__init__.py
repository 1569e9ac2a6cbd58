"""Importance sampling: estimators, zero-variance and cross-entropy proposals."""

from repro.importance.cross_entropy import (
    CrossEntropyEstimate,
    cross_entropy_estimate,
)
from repro.importance.estimator import (
    ISSample,
    ess_from_log_sums,
    estimate_from_sample,
    log_weight_sums,
    log_weights,
    moments_from_log_sums,
    run_importance_sampling,
)
from repro.importance.likelihood import check_absolute_continuity
from repro.importance.zero_variance import (
    tilt_by_values,
    zero_variance_proposal,
    zero_variance_values,
)

__all__ = [
    "CrossEntropyEstimate",
    "ISSample",
    "check_absolute_continuity",
    "cross_entropy_estimate",
    "ess_from_log_sums",
    "estimate_from_sample",
    "log_weight_sums",
    "log_weights",
    "moments_from_log_sums",
    "run_importance_sampling",
    "tilt_by_values",
    "zero_variance_proposal",
    "zero_variance_values",
]
