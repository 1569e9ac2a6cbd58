"""repro — Importance Sampling of Interval Markov Chains (IMCIS).

A complete reproduction of Jegourel, Wang & Sun, "Importance Sampling of
Interval Markov Chains", DSN 2018: core chain formalisms, a PRISM-subset
modelling language, numerical model-checking engines, a statistical
model-checking stack with importance sampling, and the paper's IMCIS
algorithm with its Dirichlet random-search optimiser — plus the paper's
four case studies and the full experiment harness.

Quickstart::

    import numpy as np
    from repro.models import illustrative
    from repro.imcis import imcis_estimate

    study = illustrative.make_study()
    result = imcis_estimate(
        study.imc, study.proposal, study.formula,
        n_samples=10_000, rng=np.random.default_rng(0),
    )
    print(result.interval)          # conservative CI over the whole IMC
    print(result.center_estimate)   # what plain IS would have reported
"""

from repro.core import CTMC, DTMC, IMC, ParametricModel, Path, TransitionCounts
from repro.errors import (
    ConsistencyError,
    EstimationError,
    EvaluationError,
    LearningError,
    ModelError,
    OptimizationError,
    ParseError,
    PropertyError,
    ReproError,
)
from repro.imcis import IMCISConfig, IMCISResult, imcis_estimate, imcis_from_sample
from repro.properties import parse_property

# Kept in sync with pyproject.toml (tests/store/test_keys.py enforces it):
# the artifact store embeds this in every cache key, so a release that
# changes numerics must bump both to invalidate cached repetitions.
__version__ = "0.17.0"

__all__ = [
    "CTMC",
    "ConsistencyError",
    "DTMC",
    "EstimationError",
    "EvaluationError",
    "IMC",
    "IMCISConfig",
    "IMCISResult",
    "LearningError",
    "ModelError",
    "OptimizationError",
    "ParametricModel",
    "ParseError",
    "Path",
    "PropertyError",
    "ReproError",
    "TransitionCounts",
    "__version__",
    "imcis_estimate",
    "imcis_from_sample",
    "parse_property",
]
