"""Unit tests for Algorithm 2 (random-search optimisation)."""

import numpy as np
import pytest

from repro.core import DTMC, IMC, TransitionCounts
from repro.errors import OptimizationError
from repro.imcis import (
    CandidateSpace,
    ISObjective,
    ObservationTables,
    RandomSearchConfig,
    random_search,
)
from repro.importance.estimator import ISSample

from tests.conftest import illustrative_matrix, trace_counts


def setup_problem(paths=None, n_total=100):
    center = DTMC(illustrative_matrix(3e-4, 0.0498), 0)
    eps = np.zeros((4, 4))
    eps[0, 1] = eps[0, 3] = 2.5e-4
    eps[1, 2] = eps[1, 0] = 5e-4
    imc = IMC.from_center(center, eps)
    paths = paths or [[0, 1, 2], [0, 1, 0, 1, 2]] * 3
    counts = [TransitionCounts.from_path(p) for p in paths]
    sample = ISSample(n_total=n_total, count_arrays=trace_counts(counts), log_proposal=[-1.0] * len(counts))
    tables = ObservationTables.from_sample(sample)
    return ISObjective(tables), CandidateSpace(imc, tables), imc


class TestConfig:
    def test_r_positive(self):
        with pytest.raises(OptimizationError):
            RandomSearchConfig(r_undefeated=0)

    def test_max_rounds_at_least_r(self):
        with pytest.raises(OptimizationError):
            RandomSearchConfig(r_undefeated=100, max_rounds=50)


class TestSearch:
    def test_min_below_max(self, rng):
        objective, space, _ = setup_problem()
        result = random_search(objective, space, rng, RandomSearchConfig(r_undefeated=200))
        assert result.moments_min.gamma <= result.moments_max.gamma

    def test_extremes_bracket_center(self, rng):
        objective, space, imc = setup_problem()
        result = random_search(objective, space, rng, RandomSearchConfig(r_undefeated=200))
        center_rows = space.center_rows()
        log_min, log_max = space.log_vectors(center_rows)
        center_gamma_min = objective.moments(log_min).gamma
        center_gamma_max = objective.moments(log_max).gamma
        assert result.moments_min.gamma <= center_gamma_min + 1e-15
        assert result.moments_max.gamma >= center_gamma_max - 1e-15

    def test_rows_stay_feasible(self, rng):
        objective, space, imc = setup_problem()
        result = random_search(objective, space, rng, RandomSearchConfig(r_undefeated=150))
        for rows in (result.rows_min, result.rows_max):
            for plan in space.sampled_plans:
                row = rows[plan.state]
                assert row.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(row >= plan.lower - 1e-9)
                assert np.all(row <= plan.upper + 1e-9)

    def test_stops_after_r_undefeated(self, rng):
        objective, space, _ = setup_problem()
        result = random_search(objective, space, rng, RandomSearchConfig(r_undefeated=50))
        assert result.stopped_by == "r_undefeated"
        assert result.rounds_total >= 50
        assert result.rounds_total - result.rounds_to_converge >= 50

    def test_history_recorded(self, rng):
        objective, space, _ = setup_problem()
        result = random_search(
            objective, space, rng, RandomSearchConfig(r_undefeated=100, record_history=True)
        )
        assert result.history
        assert result.history[0].round == 0
        assert result.history[-1].round == result.rounds_total
        gammas_max = [h.gamma_max for h in result.history]
        assert gammas_max == sorted(gammas_max)  # max only improves

    def test_history_disabled(self, rng):
        objective, space, _ = setup_problem()
        result = random_search(
            objective, space, rng, RandomSearchConfig(r_undefeated=60, record_history=False)
        )
        assert result.history == []

    def test_no_free_rows_shortcut(self, rng):
        """Single-observation-only problems are solved without search."""
        objective, space, _ = setup_problem(paths=[[0, 1, 2]] * 4)
        assert space.n_sampled_states == 0
        result = random_search(objective, space, rng, RandomSearchConfig(r_undefeated=100))
        assert result.stopped_by == "no-free-rows"
        assert result.rounds_total == 0
        assert result.moments_min.gamma < result.moments_max.gamma

    def test_deterministic_given_seed(self):
        objective, space, _ = setup_problem()
        r1 = random_search(objective, space, 77, RandomSearchConfig(r_undefeated=100))
        objective2, space2, _ = setup_problem()
        r2 = random_search(objective2, space2, 77, RandomSearchConfig(r_undefeated=100))
        assert r1.moments_min.gamma == r2.moments_min.gamma
        assert r1.rounds_total == r2.rounds_total
