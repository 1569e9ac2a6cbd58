"""Unit tests for the alternative optimisers (appendix baselines)."""

import numpy as np
import pytest

from repro.core import DTMC, IMC, TransitionCounts
from repro.errors import OptimizationError
from repro.imcis import (
    CandidateSpace,
    ISObjective,
    ObservationTables,
    RandomSearchConfig,
    projected_gradient,
    random_search,
    slsqp,
)
from repro.importance.estimator import ISSample

from tests.conftest import illustrative_matrix, trace_counts


def setup_problem():
    center = DTMC(illustrative_matrix(3e-4, 0.0498), 0)
    eps = np.zeros((4, 4))
    eps[0, 1] = eps[0, 3] = 2.5e-4
    eps[1, 2] = eps[1, 0] = 5e-4
    imc = IMC.from_center(center, eps)
    paths = [[0, 1, 2], [0, 1, 0, 1, 2], [0, 1, 0, 1, 0, 1, 2]]
    counts = [TransitionCounts.from_path(p) for p in paths]
    sample = ISSample(n_total=60, step_records=trace_counts(counts), trace_ids=np.arange(len(counts)), log_proposal=[-1.0] * 3)
    tables = ObservationTables.from_sample(sample)
    return ISObjective(tables), CandidateSpace(imc, tables)


class TestProjectedGradient:
    def test_improves_on_center(self, rng):
        objective, space = setup_problem()
        center_vec, _ = space.log_vectors(space.center_rows())
        center_f = objective.log_f(center_vec)
        outcome = projected_gradient(objective, space, "min", iterations=100, rng=rng)
        assert objective.log_f(outcome.log_a) < center_f
        assert outcome.method == "projected-gd"

    def test_max_direction(self, rng):
        objective, space = setup_problem()
        center_vec, _ = space.log_vectors(space.center_rows())
        outcome = projected_gradient(objective, space, "max", iterations=100, rng=rng)
        assert objective.log_f(outcome.log_a) > objective.log_f(center_vec)

    def test_rows_feasible(self, rng):
        objective, space = setup_problem()
        outcome = projected_gradient(objective, space, "min", iterations=60, rng=rng)
        for plan in space.sampled_plans:
            row = outcome.rows[plan.state]
            assert row.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(row >= plan.lower - 1e-8)
            assert np.all(row <= plan.upper + 1e-8)

    def test_stochastic_variant_runs(self, rng):
        objective, space = setup_problem()
        outcome = projected_gradient(
            objective, space, "min", iterations=120, rng=rng, stochastic=True
        )
        assert outcome.method == "projected-sgd"
        assert outcome.moments.gamma >= 0

    def test_direction_validated(self, rng):
        objective, space = setup_problem()
        with pytest.raises(OptimizationError):
            projected_gradient(objective, space, "sideways", rng=rng)


class TestSLSQP:
    def test_reaches_near_optimum(self, rng):
        """SLSQP should do at least as well as a short random search."""
        objective, space = setup_problem()
        search = random_search(objective, space, rng, RandomSearchConfig(r_undefeated=300))
        outcome_min = slsqp(objective, space, "min")
        outcome_max = slsqp(objective, space, "max")
        assert outcome_min.moments.gamma <= search.moments_min.gamma * 1.02
        assert outcome_max.moments.gamma >= search.moments_max.gamma * 0.98

    def test_rows_feasible(self):
        objective, space = setup_problem()
        outcome = slsqp(objective, space, "max")
        for plan in space.sampled_plans:
            row = outcome.rows[plan.state]
            assert row.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(row >= plan.lower - 1e-8)
            assert np.all(row <= plan.upper + 1e-8)

    def test_no_sampled_states(self):
        center = DTMC(illustrative_matrix(3e-4, 0.0498), 0)
        eps = np.zeros((4, 4))
        eps[0, 1] = eps[0, 3] = 2.5e-4
        imc = IMC.from_center(center, eps)
        counts = [TransitionCounts.from_path([0, 1, 2])]
        sample = ISSample(n_total=10, step_records=trace_counts(counts), trace_ids=np.arange(len(counts)), log_proposal=[0.0])
        tables = ObservationTables.from_sample(sample)
        objective = ISObjective(tables)
        space = CandidateSpace(imc, tables)
        outcome = slsqp(objective, space, "min")
        assert outcome.iterations == 0
