"""Seeded coverage checks for every registered estimator.

Each check runs one ``(study, estimator)`` matrix cell at a fixed seed and
asserts that the cell's mean confidence interval covers the study's exact
``gamma_true`` — the same ``within_ci`` gate the benchmark enforces, but
wired into pytest so a regression in any estimator (or in a registry
family's proposal) fails the suite, not just the nightly bench.

Two tiers:

* the **smoke** tests (tier-1) cover two representative quick studies —
  a repair family and a branching family — across the full estimator
  registry, plus per-backend coverage and the workers-parity contract for
  the adaptive estimators;
* the **nightly sweep** (``@pytest.mark.nightly``, skipped unless
  ``REPRO_NIGHTLY=1``) covers every quick registry study crossed with
  every registered estimator, scaling the crude-Monte-Carlo budget to the
  rarity of each study and skipping cells where no feasible budget gives
  the crude estimators a chance to see the event.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.experiments.matrix import ESTIMATOR_NAMES, MatrixConfig, run_matrix
from repro.models.registry import REGISTRY

#: Tier-1 smoke: one repair-family study, one branching DTMC study.
SMOKE_STUDIES = ("tandem-repair", "knuth-yao")
#: Crude estimators need the event to actually occur; IS-style ones don't.
CRUDE_ESTIMATORS = ("mc", "bayes")
#: Minimum expected event count for a crude cell to be statistically fair.
MIN_EXPECTED_HITS = 20
#: Budget ceiling for crude cells (keeps the nightly sweep bounded).
CRUDE_BUDGET_CAP = 60_000

BASE_CONFIG = MatrixConfig(
    repetitions=4,
    n_samples=1_000,
    search_rounds=100,
    quick=True,
    seed=2018,
)


def run_cell(study: str, estimator: str, **overrides):
    """Run one matrix cell at the harness seed and return it."""
    config = replace(
        BASE_CONFIG, studies=(study,), estimators=(estimator,), **overrides
    )
    result = run_matrix(config)
    (cell,) = result.cells
    return cell


def crude_budget(study: str) -> "int | None":
    """A fair crude-MC budget for *study*, or ``None`` when infeasible.

    Scales the per-repetition trace count so the expected number of
    satisfying traces is at least :data:`MIN_EXPECTED_HITS`; studies too
    rare to reach that under :data:`CRUDE_BUDGET_CAP` return ``None``.
    """
    gamma = REGISTRY.make_study(study, rng=0, quick=True).gamma_true
    if gamma is None or gamma <= 0.0:
        return None
    needed = math.ceil(MIN_EXPECTED_HITS / gamma)
    return needed if needed <= CRUDE_BUDGET_CAP else None


@pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
@pytest.mark.parametrize("study", SMOKE_STUDIES)
def test_smoke_coverage(study: str, estimator: str):
    """Every registered estimator covers gamma_true on the smoke studies."""
    overrides = {}
    if estimator in CRUDE_ESTIMATORS:
        budget = crude_budget(study)
        assert budget is not None, f"smoke study {study} must be crude-feasible"
        overrides["n_samples"] = budget
    cell = run_cell(study, estimator, **overrides)
    assert cell.within_ci, (
        f"{study}/{estimator}: mean CI [{cell.ci_low:.4g}, {cell.ci_high:.4g}] "
        f"misses gamma_true={cell.gamma_true:.4g}"
    )


@pytest.mark.parametrize("backend", ["sequential", "kernel"])
def test_backend_coverage(backend: str):
    """Coverage holds on every simulation backend, not just ``auto``."""
    for estimator in ("is", "ce"):
        cell = run_cell("knuth-yao", estimator, backend=backend)
        assert cell.within_ci, f"knuth-yao/{estimator} misses on backend={backend}"


@pytest.mark.parametrize("estimator", ["ce"])
def test_workers_bitwise_parity(estimator: str):
    """Adaptive estimators are bitwise invariant to the worker count."""
    config = replace(
        BASE_CONFIG,
        studies=SMOKE_STUDIES,
        estimators=(estimator,),
        n_samples=400,
    )
    serial = run_matrix(replace(config, workers=1))
    pooled = run_matrix(replace(config, workers=4))
    assert serial.to_csv_text() == pooled.to_csv_text()
    assert serial.to_json_text() == pooled.to_json_text()


@pytest.mark.nightly
@pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
@pytest.mark.parametrize("study", REGISTRY.quick_studies())
def test_nightly_coverage(study: str, estimator: str):
    """Full sweep: every quick study crossed with every estimator."""
    overrides = {}
    if estimator in CRUDE_ESTIMATORS:
        budget = crude_budget(study)
        if budget is None:
            pytest.skip(
                f"{study} is too rare for crude estimation under "
                f"{CRUDE_BUDGET_CAP} traces"
            )
        overrides["n_samples"] = budget
    cell = run_cell(study, estimator, **overrides)
    assert cell.within_ci, (
        f"{study}/{estimator}: mean CI [{cell.ci_low:.4g}, {cell.ci_high:.4g}] "
        f"misses gamma_true={cell.gamma_true:.4g}"
    )
