"""Secure Water Treatment (SWaT) surrogate model (Section VI-D).

The paper's SWaT experiment runs on a 70-state DTMC/IMC *learnt from
execution logs* of the iTrust testbed — a proprietary dataset. The
substitution here (the SWaT row of ``docs/paper-map.md``, §VI-D) keeps the
paper's pipeline intact and replaces only the data source:

1. a **synthetic ground truth**: a 70-state chain over
   (tank-level bucket × subsystem mode) abstracting stage 3 of the
   plant — 14 LIT301 level buckets (bucket 13 ≈ "level > 800") times 5
   modes (normal, inflow-stuck, drain-fault, repairing, degraded). Mode
   dynamics and mode-conditioned level drifts are fixed constants below;
2. **logs** are simulated from the ground truth and the paper's learning
   pipeline (frequentist counts + Okamoto margins,
   :mod:`repro.learning.frequentist`) produces the 70-state learnt DTMC
   ``Â`` and the IMC ``[Â]``;
3. the property is the paper's: from a failure state being repaired in
   about 5 steps, the level exceeds the threshold within 30 steps
   (``F<=30 "overflow"``), with ``γ(Â)`` in the paper's reported range
   ``[5e-3, 2.5e-2]``;
4. the IS proposal is the time-dependent zero-variance proposal of ``Â``
   blended with a defensive mixture — imperfect on purpose, reproducing
   the scattered, sometimes non-intersecting IS intervals of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reachability import probability
from repro.core.dtmc import DTMC
from repro.core.imc import IMC
from repro.importance.bounded import UnrolledProposal, time_dependent_zero_variance
from repro.learning.frequentist import learn_imc, observe_traces_batch
from repro.models.base import CaseStudy
from repro.properties.logic import Atom, Eventually, Formula
from repro.util.rng import ensure_rng

#: Level buckets (bucket LEVELS-1 represents LIT301 > 800).
LEVELS = 14
#: Subsystem modes.
MODES = 5
NORMAL, INFLOW_STUCK, DRAIN_FAULT, REPAIRING, DEGRADED = range(MODES)
MODE_NAMES = ("normal", "inflow-stuck", "drain-fault", "repairing", "degraded")

#: Mode transition matrix (row = current mode). Calibrated so that the
#: overflow probability from the initial failure state is ≈ 1.45e-2 — the
#: mid value of the paper's Table II SWaT rows.
MODE_DYNAMICS = np.array(
    [
        # normal  stuck  drain  repair degraded
        [0.970, 0.005, 0.010, 0.000, 0.015],  # normal
        [0.000, 0.700, 0.000, 0.300, 0.000],  # inflow-stuck
        [0.000, 0.000, 0.700, 0.300, 0.000],  # drain-fault
        [0.200, 0.000, 0.000, 0.800, 0.000],  # repairing  (~5 steps)
        [0.200, 0.000, 0.000, 0.000, 0.800],  # degraded
    ]
)

#: Mode-conditioned level drift: (up, stay, down).
LEVEL_DRIFT = np.array(
    [
        [0.24, 0.32, 0.44],  # normal: slow net drain
        [0.62, 0.24, 0.14],  # inflow-stuck: rises fast
        [0.05, 0.25, 0.70],  # drain-fault: falls fast
        [0.35, 0.30, 0.35],  # repairing: inflow still partly stuck
        [0.34, 0.33, 0.33],  # degraded: mild upward bias
    ]
)

#: The failure state the paper starts from: under repair, tank already high.
INITIAL_MODE = REPAIRING
INITIAL_LEVEL = 5

#: Step bound of the overflow property.
BOUND = 30

#: Default log volume for the learning pipeline (~5 M transitions — enough
#: for per-state Okamoto margins below 1 %, like the testbed's long logs).
LOG_TRACES = 2_000
LOG_STEPS = 2_500
#: Confidence parameter of the Okamoto learning margins.
LEARN_DELTA = 1e-2


def state_index(mode: int, level: int) -> int:
    """Flat index of ``(mode, level)``."""
    if not 0 <= mode < MODES or not 0 <= level < LEVELS:
        raise ValueError(f"invalid (mode, level) = ({mode}, {level})")
    return mode * LEVELS + level


def ground_truth() -> DTMC:
    """The 70-state synthetic ground-truth chain."""
    n = MODES * LEVELS
    matrix = np.zeros((n, n))
    for mode in range(MODES):
        up, stay, down = LEVEL_DRIFT[mode]
        for level in range(LEVELS):
            source = state_index(mode, level)
            # Boundary redistribution: at level 0 "down" folds into "stay",
            # at the top bucket "up" does.
            level_probs: dict[int, float] = {}
            for target_level, p in (
                (min(level + 1, LEVELS - 1), up),
                (level, stay),
                (max(level - 1, 0), down),
            ):
                level_probs[target_level] = level_probs.get(target_level, 0.0) + p
            for next_mode in range(MODES):
                mode_p = MODE_DYNAMICS[mode, next_mode]
                if mode_p == 0.0:
                    continue
                for target_level, level_p in level_probs.items():
                    matrix[source, state_index(next_mode, target_level)] += mode_p * level_p
    overflow = np.zeros(n, dtype=bool)
    for mode in range(MODES):
        overflow[state_index(mode, LEVELS - 1)] = True
    labels = {
        "overflow": overflow,
        "init": [state_index(INITIAL_MODE, INITIAL_LEVEL)],
        "repairing": [state_index(REPAIRING, level) for level in range(LEVELS)],
    }
    names = [f"({MODE_NAMES[m]},L{level})" for m in range(MODES) for level in range(LEVELS)]
    return DTMC(matrix, state_index(INITIAL_MODE, INITIAL_LEVEL), labels, names)


def overflow_formula() -> Formula:
    """``F<=30 "overflow"`` — level exceeds the threshold within 30 steps."""
    return Eventually(Atom("overflow"), BOUND)


@dataclass
class SwatPipeline:
    """Everything the learn-then-verify pipeline produces."""

    truth: DTMC
    learned_imc: IMC
    proposal: UnrolledProposal
    gamma_true: float
    gamma_center: float
    #: The raw observation counts the model was learnt from.
    log_counts: object = None


def learn_pipeline(
    rng: np.random.Generator | int | None = None,
    log_traces: int = LOG_TRACES,
    log_steps: int = LOG_STEPS,
    delta: float = LEARN_DELTA,
    proposal_mixing: float = 0.4,
) -> SwatPipeline:
    """Simulate logs, learn the DTMC/IMC, and build the IS proposal.

    ``proposal_mixing`` keeps the proposal deliberately imperfect (see the
    module docstring); 0 gives the exact time-dependent zero-variance
    proposal of the learnt chain.
    """
    generator = ensure_rng(rng)
    truth = ground_truth()
    counts = observe_traces_batch(truth, n_steps=log_steps, n_traces=log_traces, rng=generator)
    imc = learn_imc(counts, truth.n_states, delta=delta, template=truth)
    formula = overflow_formula()
    proposal = time_dependent_zero_variance(imc.center, formula, mixing=proposal_mixing)
    return SwatPipeline(
        truth=truth,
        learned_imc=imc,
        proposal=proposal,
        gamma_true=probability(truth, formula),
        gamma_center=probability(imc.center, formula),
        log_counts=counts,
    )


def make_study(
    rng: np.random.Generator | int | None = None,
    n_samples: int = 10_000,
    confidence: float = 0.99,
    log_traces: int = LOG_TRACES,
    log_steps: int = LOG_STEPS,
    delta: float = LEARN_DELTA,
    proposal_mixing: float = 0.4,
) -> CaseStudy:
    """Prepare the Section VI-D experiment configuration.

    The study's proposal is the time-dependent
    :class:`~repro.importance.bounded.UnrolledProposal` of the learnt chain;
    every estimator samples under it through
    :func:`~repro.importance.estimator.run_importance_sampling`. Fig. 4 uses
    99 % intervals.
    """
    pipeline = learn_pipeline(
        rng,
        log_traces=log_traces,
        log_steps=log_steps,
        delta=delta,
        proposal_mixing=proposal_mixing,
    )
    return CaseStudy(
        name="swat",
        imc=pipeline.learned_imc,
        formula=overflow_formula(),
        proposal=pipeline.proposal,
        true_chain=pipeline.truth,
        gamma_true=pipeline.gamma_true,
        gamma_center=pipeline.gamma_center,
        n_samples=n_samples,
        confidence=confidence,
    )
