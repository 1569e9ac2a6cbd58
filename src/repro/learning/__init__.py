"""Model learning: frequentist estimation and parameter inference."""

from repro.learning.frequentist import (
    learn_dtmc,
    learn_imc,
    observe_traces_batch,
    okamoto_margins,
)
from repro.learning.parametric import (
    ParameterEstimate,
    estimate_bernoulli_parameter,
    exposure_for_margin,
)

__all__ = [
    "ParameterEstimate",
    "estimate_bernoulli_parameter",
    "exposure_for_margin",
    "learn_dtmc",
    "learn_imc",
    "observe_traces_batch",
    "okamoto_margins",
]
