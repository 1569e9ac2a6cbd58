"""Crude Monte Carlo estimation (Section II-C).

``γ̂_N = (1/N) Σ z(ω_i)`` over independently sampled traces, with the
normal-approximation confidence interval
``γ̂ ± Φ⁻¹(1 − δ/2) sqrt(γ̂(1 − γ̂)/N)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.properties.logic import Formula
from repro.smc.engine import KernelBackend, make_plan
from repro.smc.intervals import normal_ci
from repro.smc.results import EstimationResult
from repro.util.rng import ensure_rng


def monte_carlo_estimate(
    model: DTMC,
    formula: Formula,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    confidence: float = 0.95,
    max_steps: int | None = None,
    initial_state: int | None = None,
) -> EstimationResult:
    """Estimate ``P(model ⊨ formula)`` by crude Monte Carlo.

    Returns an :class:`~repro.smc.results.EstimationResult` whose interval
    is the normal-approximation CI of Section II-C. For rare properties
    this needs ``N ≈ 100/γ`` samples for a 10 % relative error — the
    motivation for importance sampling. Sampling runs as one batch on the
    lockstep :class:`~repro.smc.engine.KernelBackend`.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    generator = ensure_rng(rng)
    plan = make_plan(
        model,
        formula,
        max_steps=max_steps,
        count_mode="none",
        initial_state=initial_state,
    )
    batch = KernelBackend(plan).run_ensemble(n_samples, generator)
    n_satisfied = batch.n_satisfied
    n_undecided = batch.n_undecided
    estimate = n_satisfied / n_samples
    std_dev = math.sqrt(estimate * (1.0 - estimate))
    return EstimationResult(
        estimate=estimate,
        std_dev=std_dev,
        n_samples=n_samples,
        interval=normal_ci(estimate, std_dev, n_samples, confidence),
        n_satisfied=n_satisfied,
        n_undecided=n_undecided,
        method="monte-carlo",
    )
