"""Tests of the figure-series generation."""

import numpy as np
import pytest

from repro.experiments import (
    BoundEvolution,
    IntervalSeries,
    ProbabilityCurve,
    run_coverage_experiment,
    write_csv,
)
from repro.imcis import IMCISConfig, RandomSearchConfig, imcis_estimate
from repro.models import illustrative


@pytest.fixture(scope="module")
def study():
    return illustrative.make_study(n_samples=1500)


@pytest.fixture(scope="module")
def report(study):
    search = RandomSearchConfig(r_undefeated=120, record_history=False)
    return run_coverage_experiment(study, 5, rng=11, search=search, n_samples=1500)


class TestIntervalSeries:
    def test_from_report(self, report, study):
        series = IntervalSeries.from_report(report, study.confidence)
        assert len(series.is_bounds) == len(series.imcis_bounds) == 5

    def test_containment_fraction(self, report, study):
        series = IntervalSeries.from_report(report, study.confidence)
        # Figure 2 observation: IS intervals sit inside IMCIS intervals.
        assert series.containment_fraction() == 1.0

    def test_render_contains_gamma_marker(self, report, study):
        series = IntervalSeries.from_report(report, study.confidence)
        text = series.render()
        assert "gamma" in text
        assert "=" in text and "-" in text

    def test_rows_and_csv(self, report, study, tmp_path):
        series = IntervalSeries.from_report(report, study.confidence)
        rows = series.rows()
        assert len(rows) == 5 and len(rows[0]) == 5
        path = write_csv(tmp_path / "out" / "fig2.csv", ["a", "b", "c", "d", "e"], rows)
        assert path.exists()
        assert path.read_text().count("\n") == 6

    def test_disjoint_count_zero_for_point_intervals(self, report, study):
        series = IntervalSeries.from_report(report, study.confidence)
        # The perfect proposal gives identical point IS intervals.
        assert series.is_pairwise_disjoint_count() == 0


class TestBoundEvolution:
    def test_from_result(self, study):
        config = IMCISConfig(search=RandomSearchConfig(r_undefeated=150, record_history=True))
        result = imcis_estimate(
            study.imc, study.proposal, study.formula, 1500, np.random.default_rng(3), config
        )
        evolution = BoundEvolution.from_result(result)
        assert evolution.rounds[0] == 0
        assert len(evolution.rounds) == len(evolution.lower_bounds)
        # Bounds only widen as the optimisation progresses (Figure 3).
        assert evolution.lower_bounds == sorted(evolution.lower_bounds, reverse=True)
        assert evolution.upper_bounds == sorted(evolution.upper_bounds)
        text = evolution.render()
        assert "Figure 3" in text

    def test_requires_history(self, study):
        config = IMCISConfig(search=RandomSearchConfig(r_undefeated=100, record_history=False))
        result = imcis_estimate(
            study.imc, study.proposal, study.formula, 500, np.random.default_rng(4), config
        )
        with pytest.raises(ValueError, match="history"):
            BoundEvolution.from_result(result)


class TestProbabilityCurve:
    def test_range_and_coverage(self):
        grid = np.linspace(0.0, 1.0, 5)
        values = np.linspace(1e-7, 2e-7, 5)
        curve = ProbabilityCurve("alpha", grid, values)
        lo, hi = curve.value_range()
        assert (lo, hi) == (1e-7, 2e-7)
        assert curve.coverage_by(1e-7, 2e-7) == pytest.approx(1.0)
        assert curve.coverage_by(1.5e-7, 2.5e-7) == pytest.approx(0.5)

    def test_render_and_rows(self):
        grid = np.linspace(0.0, 1.0, 5)
        values = np.linspace(0.1, 0.2, 5)
        curve = ProbabilityCurve("alpha", grid, values)
        assert "Figure 5" in curve.render()
        assert len(curve.rows()) == 5
