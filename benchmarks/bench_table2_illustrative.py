"""Table II (rows 1–2) — illustrative example, IS vs IMCIS coverage.

Paper: IS CI = [1.494 ± 0]e-5 with 100 % coverage of γ(Â) and 0 % of γ;
IMCIS CI ≈ [0.249, 2.7]e-5, mid 1.499e-5, 100 % coverage of both.
"""

from conftest import scaled, write_report

from repro.experiments import render_table2, run_coverage_experiment
from repro.imcis import RandomSearchConfig
from repro.models.registry import REGISTRY


def run():
    study = REGISTRY.make_study("illustrative")
    search = RandomSearchConfig(r_undefeated=scaled(1000, 1000), record_history=False)
    return run_coverage_experiment(
        study,
        repetitions=scaled(15, 100),
        rng=2018,
        search=search,
        n_samples=scaled(10_000, 10_000),
    )


def test_table2_illustrative(benchmark):
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table2([report])
    print("\n" + text)
    write_report("table2_illustrative", text)
    benchmark.extra_info["is_cov_center"] = report.is_coverage_of_center()
    benchmark.extra_info["is_cov_true"] = report.is_coverage_of_true()
    benchmark.extra_info["imcis_cov_center"] = report.imcis_coverage_of_center()
    benchmark.extra_info["imcis_cov_true"] = report.imcis_coverage_of_true()
    # The paper's headline pattern.
    assert report.is_coverage_of_center() == 1.0
    assert report.is_coverage_of_true() == 0.0
    assert report.imcis_coverage_of_center() == 1.0
    assert report.imcis_coverage_of_true() == 1.0
    lo, hi = report.mean_imcis_interval()
    assert 0.1e-5 < lo < 0.5e-5      # paper: 0.249e-5
    assert 2.2e-5 < hi < 3.2e-5      # paper: 2.7e-5
