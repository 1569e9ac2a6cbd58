"""Statistical model checking: simulation and estimation."""

from repro.smc.bayes import (
    BayesianResult,
    BetaPosterior,
    bayesian_estimate,
)
from repro.smc.estimators import monte_carlo_estimate
from repro.smc.intervals import (
    normal_ci,
    normal_quantile,
    okamoto_epsilon,
    required_samples_relative_error,
    wilson_ci,
)
from repro.smc.results import ConfidenceInterval, EstimationResult
from repro.smc.engine import (
    CompiledCSR,
    EnsembleResult,
    KernelBackend,
    SimulationPlan,
    make_plan,
)
from repro.smc.kernels import kernel_runtime_info

__all__ = [
    "BayesianResult",
    "BetaPosterior",
    "CompiledCSR",
    "ConfidenceInterval",
    "EnsembleResult",
    "EstimationResult",
    "KernelBackend",
    "SimulationPlan",
    "make_plan",
    "bayesian_estimate",
    "kernel_runtime_info",
    "monte_carlo_estimate",
    "normal_ci",
    "normal_quantile",
    "okamoto_epsilon",
    "required_samples_relative_error",
    "wilson_ci",
]
