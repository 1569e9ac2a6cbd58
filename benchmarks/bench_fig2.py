"""Figure 2 — superposed IS and IMCIS 95 % intervals, group repair model.

Paper observation: the (red) IS intervals are almost always fully contained
in the (blue) IMCIS intervals, with the exact γ = 1.179e-7 marked.
"""

from pathlib import Path

from conftest import scaled, write_report

from repro.experiments import IntervalSeries, run_coverage_experiment, write_csv
from repro.imcis import RandomSearchConfig
from repro.models import repair_group

OUT = Path(__file__).parent / "out"


def run():
    study = repair_group.make_study()
    search = RandomSearchConfig(
        r_undefeated=scaled(600, 1000),
        record_history=False,
        refine_rounds=scaled(1000, 3000),
    )
    report = run_coverage_experiment(
        study,
        repetitions=scaled(10, 100),
        rng=42,
        search=search,
        n_samples=scaled(10_000, 10_000),
    )
    return study, report


def test_fig2(benchmark):
    study, report = benchmark.pedantic(run, rounds=1, iterations=1)
    series = IntervalSeries.from_report(report, study.confidence)
    text = series.render()
    print("\n" + text)
    write_report("fig2", text)
    write_csv(
        OUT / "fig2.csv",
        ["rep", "is_low", "is_high", "imcis_low", "imcis_high"],
        series.rows(),
    )
    containment = series.containment_fraction()
    benchmark.extra_info["is_inside_imcis_fraction"] = containment
    # "Almost always fully contained".
    assert containment >= 0.8
