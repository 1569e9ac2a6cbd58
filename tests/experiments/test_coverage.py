"""Tests of the coverage-experiment harness (small-scale Table II runs)."""

import hashlib

import pytest

from repro.experiments import run_coverage_experiment
from repro.imcis import RandomSearchConfig
from repro.models import illustrative
from repro.models.registry import REGISTRY


@pytest.fixture(scope="module")
def report():
    study = illustrative.make_study(n_samples=2000)
    search = RandomSearchConfig(r_undefeated=150, record_history=False)
    return run_coverage_experiment(study, repetitions=8, rng=31, search=search, n_samples=2000)


class TestCoverageReport:
    def test_outcome_count(self, report):
        assert len(report.outcomes) == 8

    def test_paper_coverage_pattern(self, report):
        """Table II row pair: IS covers γ(Â) (100 %) but never γ (0 %);
        IMCIS covers both (100 %)."""
        assert report.is_coverage_of_center() == 1.0
        assert report.is_coverage_of_true() == 0.0
        assert report.imcis_coverage_of_center() == 1.0
        assert report.imcis_coverage_of_true() == 1.0

    def test_mean_intervals_ordered(self, report):
        is_lo, is_hi = report.mean_is_interval()
        imcis_lo, imcis_hi = report.mean_imcis_interval()
        assert imcis_lo < is_lo <= is_hi < imcis_hi

    def test_intervals_exposed(self, report):
        assert len(report.is_intervals) == 8
        assert len(report.imcis_intervals) == 8

    def test_coverage_without_truth(self, report):
        report_no_truth = type(report)(
            study_name="x",
            repetitions=8,
            gamma_true=None,
            gamma_center=report.gamma_center,
            outcomes=report.outcomes,
        )
        assert report_no_truth.is_coverage_of_true() is None

    def test_empty_report_has_no_coverage(self, report):
        """No intervals ⇒ coverage is unknown (None), not an observed 0 %.

        A genuine 0 % (``is_coverage_of_true`` in the paper's pattern) must
        stay distinguishable from "nothing was measured"."""
        empty = type(report)(
            study_name="x",
            repetitions=0,
            gamma_true=report.gamma_true,
            gamma_center=report.gamma_center,
        )
        assert empty.is_coverage_of_center() is None
        assert empty.imcis_coverage_of_center() is None
        assert empty.is_coverage_of_true() is None
        assert empty.imcis_coverage_of_true() is None
        # ... while a measured zero stays a float zero:
        assert report.is_coverage_of_true() == 0.0


class TestTable2Rendering:
    def test_rows(self, report):
        from repro.experiments import render_table2, rows_from_report

        rows = rows_from_report(report)
        assert [r.method for r in rows] == ["IS", "IMCIS"]
        text = render_table2([report])
        assert "illustrative" in text
        assert "IMCIS" in text
        assert "100%" in text

    def test_missing_coverage_rendered_as_dash(self, report):
        from repro.experiments.table2 import Table2Row

        row = Table2Row("swat", "IS", 0.01, 0.02, 0.015, None, None)
        assert row.cells()[-1] == "-"


#: SHA-256 (see :func:`_table2_digest`) of the Table II runs of
#: :class:`TestGoldenDigest`, regenerated at version 0.16.0, when a pass of
#: the IMCIS sampler over a screened group began drawing in two stages (a
#: new RNG stream). Version 0.15.0 (pooled passes) pinned
#: ``6c67afe9cb471d7ff8384b4756e2e1d177c50d09e4499bc0d684b5911d662185``,
#: version 0.14.0 (blocks of rounds)
#: ``9f3a2385be82a914bf7953b4a07fc7ecda48ebad64f72210997521f36047d502``,
#: versions 0.12.0–0.13.0
#: ``8148703780cc910629becb62b0cba673ab37018fcbfe8821afbf8c335328782d``.
GOLDEN_TABLE2_DIGEST = "dd6f827e23cd9f13d0207012158721c72312b05c512631bf027385eee97adaa4"


def _table2_digest():
    """Hash every repetition's IS estimate, ESS and interval and its IMCIS interval.

    Full illustrative (plain IS) and quick swat (its proposal is
    time-dependent), 4 repetitions x 1000 traces, R = 100, seed 31.
    """
    digest = hashlib.sha256()
    search = RandomSearchConfig(r_undefeated=100, record_history=False)
    for name, quick in (("illustrative", False), ("swat", True)):
        study = REGISTRY.make_study(name, rng=31, quick=quick)
        report = run_coverage_experiment(study, 4, rng=31, search=search, n_samples=1000)
        for outcome in report.outcomes:
            is_result = outcome.is_result
            values = [is_result.estimate, is_result.ess]
            for ci in (is_result.interval, outcome.imcis_interval):
                values += [ci.low, ci.high, ci.confidence]
            digest.update(repr(values).encode())
    return digest.hexdigest()


class TestGoldenDigest:
    def test_table2_matches_golden_digest(self):
        """Table II's IS and IMCIS intervals do not drift, bit for bit.

        A change here changes every Table II, Fig. 2 and Fig. 4 number:
        regenerate the digest only together with a results-version bump.
        """
        assert _table2_digest() == GOLDEN_TABLE2_DIGEST
