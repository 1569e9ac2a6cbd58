"""Unit tests for the local-refinement extension."""

import numpy as np
import pytest

from repro.core import DTMC, IMC, TransitionCounts
from repro.imcis import (
    CandidateSpace,
    ISObjective,
    ObservationTables,
    RandomSearchConfig,
    random_search,
)
from repro.imcis.refine import refine_extreme
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
    return ISObjective(tables), CandidateSpace(
        imc, tables, closed_form_single=False
    )


class TestRefineExtreme:
    def test_never_worsens(self, rng):
        objective, space = setup_problem()
        start = space.center_rows()
        refined, improvements = refine_extreme(
            objective, space, start, "min", rounds=200, rng=rng, rows_per_round=1
        )
        log_start, _ = space.log_vectors(start)
        log_end, _ = space.log_vectors(refined)
        assert objective.log_f(log_end) <= objective.log_f(log_start)
        assert improvements >= 0

    def test_max_direction_improves(self, rng):
        objective, space = setup_problem()
        start = space.center_rows()
        refined, improvements = refine_extreme(
            objective, space, start, "max", rounds=300, rng=rng, rows_per_round=1
        )
        _, log_start = space.log_vectors(start)
        _, log_end = space.log_vectors(refined)
        assert objective.log_f(log_end) > objective.log_f(log_start)
        assert improvements > 0

    def test_rows_stay_feasible(self, rng):
        objective, space = setup_problem()
        refined, _ = refine_extreme(
            objective, space, space.center_rows(), "max", rounds=200, rng=rng
        )
        for plan in space.sampled_plans:
            row = refined[plan.state]
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(row >= plan.lower - 1e-9)
            assert np.all(row <= plan.upper + 1e-9)

    def test_recentred_rows_drawn_in_blocks(self, rng, monkeypatch):
        from repro.imcis import dirichlet, refine

        blocks = []
        draw = dirichlet.BlockSampler.sample

        def sample(self, generator, rounds):
            blocks.append(rounds)
            return draw(self, generator, rounds)

        monkeypatch.setattr(dirichlet.BlockSampler, "sample", sample)
        objective, space = setup_problem()
        _, improvements = refine_extreme(
            objective, space, space.center_rows(), "max", rounds=60, rng=rng, rows_per_round=1
        )
        # One kernel call per ROWS_PER_DRAW rows of a recentred row: a new
        # block only when its rows run out or the row is recentred.
        assert set(blocks) == {refine.ROWS_PER_DRAW}
        assert len(blocks) <= 2 + improvements + 60 // refine.ROWS_PER_DRAW

    def test_zero_rounds_copy(self, rng):
        objective, space = setup_problem()
        start = space.center_rows()
        refined, improvements = refine_extreme(
            objective, space, start, "min", rounds=0, rng=rng
        )
        assert improvements == 0
        for state in start:
            assert np.allclose(refined[state], start[state])
            assert refined[state] is not start[state]

    def test_bad_direction(self, rng):
        objective, space = setup_problem()
        with pytest.raises(ValueError):
            refine_extreme(objective, space, space.center_rows(), "up", 10, rng)


class TestIntegrationWithSearch:
    def test_refinement_widens_bracket(self):
        objective, space = setup_problem()
        plain = random_search(
            objective, space, 3, RandomSearchConfig(r_undefeated=150, record_history=False)
        )
        objective2, space2 = setup_problem()
        refined = random_search(
            objective2,
            space2,
            3,
            RandomSearchConfig(
                r_undefeated=150, record_history=False, refine_rounds=400,
                refine_rows_per_round=1,
            ),
        )
        assert refined.moments_min.gamma <= plain.moments_min.gamma + 1e-18
        assert refined.moments_max.gamma >= plain.moments_max.gamma - 1e-18

    def test_refine_rounds_counted(self):
        objective, space = setup_problem()
        result = random_search(
            objective,
            space,
            4,
            RandomSearchConfig(r_undefeated=100, refine_rounds=50, record_history=True),
        )
        assert result.rounds_total >= 100 + 50
        gammas_max = [h.gamma_max for h in result.history]
        assert gammas_max == sorted(gammas_max)
