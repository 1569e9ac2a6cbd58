"""Wald's sequential probability ratio test (SPRT).

The paper (Section I) notes SMC "may use alternative efficient techniques,
such as ... hypothesis testing [Wald 1945] to decide with specified
confidence whether the probability of a property exceeds a given threshold".
This module implements the classical SPRT over Bernoulli trace verdicts:

* ``H0: γ >= p0``  (accepted ⇒ "probability at least the threshold")
* ``H1: γ <= p1``  with ``p1 < p0`` an indifference region around θ.

The random walk ``log Λ`` moves by ``log(p1/p0)`` on success and
``log((1−p1)/(1−p0))`` on failure; it stops at ``log(B) = log(β/(1−α))``
(accept H0) or ``log(A) = log((1−β)/α)`` (accept H1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.properties.logic import Formula
from repro.smc.engine import DEFAULT_CHUNK_SIZE, iter_verdicts, make_plan, resolve_backend
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class SPRTResult:
    """Outcome of a sequential test."""

    #: ``"accept"`` (γ >= θ), ``"reject"`` (γ < θ) or ``"undecided"``.
    decision: str
    n_samples: int
    n_satisfied: int
    threshold: float
    indifference: float
    alpha: float
    beta: float

    @property
    def accepted(self) -> bool:
        """True when H0 (γ at least the threshold) was accepted."""
        return self.decision == "accept"


def sprt(
    model: DTMC,
    formula: Formula,
    threshold: float,
    indifference: float,
    alpha: float = 0.05,
    beta: float = 0.05,
    rng: np.random.Generator | int | None = None,
    max_samples: int = 10_000_000,
    max_steps: int | None = None,
    backend: str | None = "auto",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SPRTResult:
    """Sequentially test ``P(model ⊨ formula) >= threshold``.

    Traces are drawn from the simulation engine in batches of *chunk_size*
    and their verdicts consumed one by one, so the lockstep backend's
    throughput is available while the walk still stops at exactly the
    same sample index a one-trace-at-a-time test would (surplus traces of
    the final chunk are discarded).

    Parameters
    ----------
    threshold, indifference:
        The test distinguishes ``γ >= threshold + indifference`` from
        ``γ <= threshold − indifference``; both must stay inside (0, 1).
    alpha, beta:
        Type I and type II error bounds.
    max_samples:
        Hard cap; if reached, the decision is ``"undecided"``.
    backend, chunk_size:
        Simulation backend selector and the batch size drawn per round.
    """
    p0 = threshold + indifference
    p1 = threshold - indifference
    if not 0.0 < p1 < p0 < 1.0:
        raise EstimationError(
            f"invalid indifference region: p1={p1}, p0={p0} must satisfy 0 < p1 < p0 < 1"
        )
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise EstimationError("alpha and beta must be in (0, 1)")
    generator = ensure_rng(rng)
    simulator = resolve_backend(
        backend, make_plan(model, formula, max_steps=max_steps, count_mode="none")
    )

    log_accept_h1 = math.log((1.0 - beta) / alpha)
    log_accept_h0 = math.log(beta / (1.0 - alpha))
    step_success = math.log(p1 / p0)
    step_failure = math.log((1.0 - p1) / (1.0 - p0))

    log_ratio = 0.0
    n_samples = 0
    n_satisfied = 0
    for satisfied in iter_verdicts(simulator, max_samples, generator, chunk_size):
        n_samples += 1
        n_satisfied += int(satisfied)
        log_ratio += step_success if satisfied else step_failure
        if log_ratio >= log_accept_h1:
            return SPRTResult(
                "reject", n_samples, n_satisfied, threshold, indifference, alpha, beta
            )
        if log_ratio <= log_accept_h0:
            return SPRTResult(
                "accept", n_samples, n_satisfied, threshold, indifference, alpha, beta
            )
    return SPRTResult(
        "undecided", max_samples, n_satisfied, threshold, indifference, alpha, beta
    )
