"""Table II (rows 5–6) — SWaT model, IS vs IMCIS intervals.

Paper: IS CI ≈ [1.2, 1.7]e-2, IMCIS CI ≈ [0.7, 2.2]e-2, mid 1.45e-2 (no
coverage columns — the testbed's true γ is unknown; our synthetic surrogate
does have a ground truth, so coverage is reported as extra information).
"""

import numpy as np
from conftest import scaled, write_report

from repro.experiments import render_table2, run_coverage_experiment
from repro.imcis import RandomSearchConfig
from repro.models.registry import REGISTRY


def run():
    study = REGISTRY.make_study("swat", rng=2018)
    search = RandomSearchConfig(r_undefeated=scaled(500, 1000), record_history=False)
    report = run_coverage_experiment(
        study,
        repetitions=scaled(6, 100),
        rng=2019,
        search=search,
        n_samples=scaled(10_000, 10_000),
    )
    return study, report


def test_table2_swat(benchmark):
    study, report = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table2([report])
    print("\n" + text)
    write_report("table2_swat", text)
    is_lo, is_hi = report.mean_is_interval()
    imcis_lo, imcis_hi = report.mean_imcis_interval()
    benchmark.extra_info["mean_is"] = (is_lo, is_hi)
    benchmark.extra_info["mean_imcis"] = (imcis_lo, imcis_hi)
    benchmark.extra_info["gamma_center"] = study.gamma_center
    # Scale: γ(Â) in the paper's [5e-3, 2.5e-2] window, mid value ≈ 1.45e-2.
    assert 5e-3 < study.gamma_center < 2.5e-2
    # IMCIS strictly wider than IS, both centred near γ(Â).
    assert imcis_lo < is_lo and is_hi < imcis_hi
    mid = (imcis_lo + imcis_hi) / 2
    assert np.isfinite(mid)
    assert 0.8e-2 < mid < 2.2e-2
