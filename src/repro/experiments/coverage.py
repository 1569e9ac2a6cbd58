"""The repeat-and-count-coverage protocol of Section VI.

"To empirically verify our results we performed each simulation experiment
100 times and report the coverage of the experiments with respect to the
approximated DTMC Â and with the exact DTMC A." Each repetition draws a
fresh sample under the proposal, runs both estimators on the *same* traces
(as Algorithm 1 does) and records whether each interval contains
``γ(Â)`` and ``γ``.

That repetition is the matrix's ``imcis`` cell
(:mod:`repro.experiments.matrix`), which keeps the centre-chain IS result
of its sample next to the IMCIS interval: this module only reads its
outcomes, so Table II and Figures 2 and 4 share store records with
``repro matrix --estimators imcis``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.experiments.matrix import _CellContext, interval_coverage, run_cell_repetitions
from repro.imcis.random_search import RandomSearchConfig
from repro.models.base import CaseStudy
from repro.smc.results import ConfidenceInterval, EstimationResult
from repro.store.codecs import decode_estimation_result
from repro.store.store import ArtifactStore


@dataclass
class RepetitionOutcome:
    """One repetition: the IS result and the IMCIS interval on the same sample."""

    is_result: EstimationResult
    imcis_interval: ConfidenceInterval

    @property
    def is_interval(self) -> ConfidenceInterval:
        """The plain-IS confidence interval (w.r.t. the centre chain)."""
        return self.is_result.interval


@dataclass
class CoverageReport:
    """Aggregate of a coverage experiment.

    Coverage percentages are fractions in [0, 1]; multiply by 100 for the
    paper's presentation.
    """

    study_name: str
    repetitions: int
    gamma_true: float | None
    gamma_center: float
    outcomes: list[RepetitionOutcome] = field(default_factory=list)

    @property
    def is_intervals(self) -> list[ConfidenceInterval]:
        """IS intervals of every repetition."""
        return [o.is_interval for o in self.outcomes]

    @property
    def imcis_intervals(self) -> list[ConfidenceInterval]:
        """IMCIS intervals of every repetition."""
        return [o.imcis_interval for o in self.outcomes]

    def is_coverage_of_center(self) -> float | None:
        """Fraction of IS intervals containing γ(Â) (``None`` when empty)."""
        return interval_coverage(self.is_intervals, self.gamma_center)

    def is_coverage_of_true(self) -> float | None:
        """Fraction of IS intervals containing γ."""
        return interval_coverage(self.is_intervals, self.gamma_true)

    def imcis_coverage_of_center(self) -> float | None:
        """Fraction of IMCIS intervals containing γ(Â) (``None`` when empty)."""
        return interval_coverage(self.imcis_intervals, self.gamma_center)

    def imcis_coverage_of_true(self) -> float | None:
        """Fraction of IMCIS intervals containing γ."""
        return interval_coverage(self.imcis_intervals, self.gamma_true)

    @staticmethod
    def _mean_interval(intervals: list[ConfidenceInterval]) -> tuple[float, float]:
        lows = np.array([ci.low for ci in intervals])
        highs = np.array([ci.high for ci in intervals])
        return float(lows.mean()), float(highs.mean())

    def mean_is_interval(self) -> tuple[float, float]:
        """Average IS interval bounds (Table II's "95 %-CI" column)."""
        return self._mean_interval(self.is_intervals)

    def mean_imcis_interval(self) -> tuple[float, float]:
        """Average IMCIS interval bounds."""
        return self._mean_interval(self.imcis_intervals)


def run_coverage_experiment(
    study: CaseStudy,
    repetitions: int,
    rng: np.random.Generator | int | None = None,
    search: RandomSearchConfig | None = None,
    n_samples: int | None = None,
    backend: str | None = "auto",
    workers: "int | str | None" = None,
    store: "ArtifactStore | Path | str | None" = None,
) -> CoverageReport:
    """Run the Section VI protocol on *study*.

    Each repetition gets an independent child seed, draws one sample of
    ``n_samples`` traces under the study's proposal (time-dependent for
    SWaT), and evaluates IS (w.r.t. the centre ``Â``) and IMCIS (over the
    IMC, with random search *search*) on that sample, both at the study's
    confidence level.

    *backend* selects the simulation engine. *workers* fans the
    repetitions out across a process pool (``"auto"`` = CPU count) —
    because each repetition depends only on its own child seed, the report
    is bitwise-identical for every worker count, including the serial
    ``workers=None``/``1`` path.

    *store* caches per-repetition results under the matrix's ``imcis``
    cell key: repetitions already on disk — from this harness or from
    ``run_matrix`` — are decoded instead of simulated, with every
    reported number bitwise identical. Requires an explicit,
    non-``None`` *rng* seed.
    """
    search = dataclasses.replace(
        search if search is not None else RandomSearchConfig(), record_history=False
    )
    context = _CellContext(
        study=study,
        estimator="imcis",
        n_samples=n_samples if n_samples is not None else study.n_samples,
        confidence=study.confidence,
        search=search,
        backend=backend,
    )
    outcomes = run_cell_repetitions(
        context, repetitions, rng, workers=workers, store=ArtifactStore.coerce(store)
    )
    return CoverageReport(
        study_name=study.name,
        repetitions=repetitions,
        gamma_true=study.gamma_true,
        gamma_center=study.gamma_center,
        outcomes=[
            RepetitionOutcome(decode_estimation_result(o.detail), o.interval) for o in outcomes
        ],
    )
