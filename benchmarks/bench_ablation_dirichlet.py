"""Ablation — Dirichlet tuning: K aggregation strategy and the two-scale split.

Section IV-C leaves two knobs open: how to aggregate per-coordinate
concentrations into ``K_i`` (min / mean / median) and when to activate the
two-scale split. This benchmark measures, per variant, the acceptance cost
(rejections per accepted row) and the width of the IMCIS interval found on
the SWaT problem — quantifying the §IV-C discussion.
"""

import numpy as np
from conftest import scaled, write_report

from repro.imcis import (
    CandidateSpace,
    DirichletConfig,
    ISObjective,
    ObservationTables,
    RandomSearchConfig,
    random_search,
)
from repro.importance import run_importance_sampling
from repro.models import swat
from repro.util.tables import format_number, format_table

VARIANTS = {
    "min (paper)": DirichletConfig(k_strategy="min"),
    "mean": DirichletConfig(k_strategy="mean"),
    "median": DirichletConfig(k_strategy="median"),
    "no split": DirichletConfig(k_strategy="min", outlier_ratio=1e18),
}


def run():
    pipeline = swat.learn_pipeline(rng=5)
    sample = run_importance_sampling(
        pipeline.proposal,
        swat.overflow_formula(),
        scaled(4000, 10_000),
        np.random.default_rng(2),
    )
    tables = ObservationTables.from_sample(sample)
    objective = ISObjective(tables)
    results = {}
    for name, dirichlet in VARIANTS.items():
        space = CandidateSpace(pipeline.learned_imc, tables, dirichlet=dirichlet)
        search = random_search(
            objective,
            space,
            np.random.default_rng(9),
            RandomSearchConfig(
                r_undefeated=scaled(300, 1000), dirichlet=dirichlet, record_history=False
            ),
        )
        samples = sum(p.sampler.stats.samples for p in space.sampled_plans)
        rejections = sum(p.sampler.stats.rejections for p in space.sampled_plans)
        results[name] = (
            search.moments_min.gamma,
            search.moments_max.gamma,
            rejections / max(samples, 1),
        )
    return results


def test_ablation_dirichlet(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, format_number(lo), format_number(hi), f"{cost:.1f}"]
        for name, (lo, hi, cost) in results.items()
    ]
    text = format_table(
        ["variant", "gamma_min", "gamma_max", "rejections/row"],
        rows,
        title="Ablation — Dirichlet candidate-generation tuning (SWaT)",
    )
    print("\n" + text)
    write_report("ablation_dirichlet", text)
    for name, values in results.items():
        benchmark.extra_info[name] = values
    for lo, hi, _cost in results.values():
        assert 0 < lo <= hi
