"""Table II: IS vs IMCIS confidence intervals, mid values and coverage.

One :class:`Table2Row` pair (IS row + IMCIS row) per case study, built from
a :class:`~repro.experiments.coverage.CoverageReport`. Coverage is measured
against the exact ``γ(Â)`` and (when a ground truth exists) the exact
``γ`` — computed numerically, never by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.experiments.coverage import CoverageReport, run_coverage_experiment
from repro.imcis.random_search import RandomSearchConfig
from repro.models.base import CaseStudy
from repro.store.store import ArtifactStore
from repro.util.tables import format_number, format_table


@dataclass(frozen=True)
class Table2Row:
    """One line of Table II."""

    study: str
    method: str
    ci_low: float
    ci_high: float
    mid_value: float
    coverage_center: float | None
    coverage_true: float | None

    def cells(self) -> list[str]:
        """Formatted cells in the paper's column order."""

        def pct(value: float | None) -> str:
            return "-" if value is None else f"{100 * value:.0f}%"

        return [
            self.study,
            self.method,
            f"[{format_number(self.ci_low)}, {format_number(self.ci_high)}]",
            format_number(self.mid_value),
            pct(self.coverage_center),
            pct(self.coverage_true),
        ]


def rows_from_report(report: CoverageReport) -> list[Table2Row]:
    """The IS and IMCIS rows of one case study."""
    is_low, is_high = report.mean_is_interval()
    imcis_low, imcis_high = report.mean_imcis_interval()
    return [
        Table2Row(
            study=report.study_name,
            method="IS",
            ci_low=is_low,
            ci_high=is_high,
            mid_value=float(np.mean([o.is_result.estimate for o in report.outcomes])),
            coverage_center=report.is_coverage_of_center(),
            coverage_true=report.is_coverage_of_true(),
        ),
        Table2Row(
            study=report.study_name,
            method="IMCIS",
            ci_low=imcis_low,
            ci_high=imcis_high,
            mid_value=float(np.mean([o.imcis_interval.midpoint for o in report.outcomes])),
            coverage_center=report.imcis_coverage_of_center(),
            coverage_true=report.imcis_coverage_of_true(),
        ),
    ]


def run_table2(
    studies: "list[CaseStudy]",
    repetitions: int,
    rng: "np.random.Generator | int | None" = None,
    search: RandomSearchConfig | None = None,
    n_samples: int | None = None,
    backend: str | None = "auto",
    workers: "int | str | None" = None,
    store: "ArtifactStore | Path | str | None" = None,
) -> list[CoverageReport]:
    """Run the Table II protocol over several case studies.

    Each study runs one coverage experiment; *workers* fans the
    repetitions of every study out across the process pool (studies run
    one after another — the repetition axis is where the hardware
    parallelism is). *search* tunes the IMCIS random search; both rows of
    a study are at its own confidence level. With an integer (or
    ``None``) *rng* every study is seeded identically, so a single-study
    run reproduces its rows from the full sweep; a shared ``Generator``
    hands each study the next spawned stream instead.

    *store* forwards to every study's coverage experiment: repetitions
    already recorded under the same study content, configuration and
    seed — by Table II or by a matrix ``imcis`` cell — are decoded from
    disk instead of simulated. Requires an explicit, non-``None`` *rng*
    seed.
    """
    return [
        run_coverage_experiment(
            study,
            repetitions,
            rng=rng,
            search=search,
            n_samples=n_samples,
            backend=backend,
            workers=workers,
            store=store,
        )
        for study in studies
    ]


def render_table2(reports: list[CoverageReport]) -> str:
    """ASCII rendering shaped like the paper's Table II."""
    rows = [row.cells() for report in reports for row in rows_from_report(report)]
    return format_table(
        ["Model", "Method", "CI (mean)", "Mid value", "Coverage of γ(Â)", "Coverage of γ"],
        rows,
        title="Table II — comparison between IS and IMCIS",
    )
