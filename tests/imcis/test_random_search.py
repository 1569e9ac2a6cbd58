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


def setup_problem(paths=None, n_total=100, eps_a=2.5e-4):
    center = DTMC(illustrative_matrix(3e-4, 0.0498), 0)
    eps = np.zeros((4, 4))
    eps[0, 1] = eps[0, 3] = eps_a
    eps[1, 2] = eps[1, 0] = 5e-4
    imc = IMC.from_center(center, eps)
    paths = paths or [[0, 1, 2], [0, 1, 0, 1, 2]] * 3
    counts = [TransitionCounts.from_path(p) for p in paths]
    sample = ISSample(n_total=n_total, step_records=trace_counts(counts), trace_ids=np.arange(len(counts)), log_proposal=[-1.0] * len(counts))
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


def instrument(objective, space):
    """Record each block's size and its scored ``(min, max)`` values."""
    blocks, scored = [], []
    draw, score = space.sample_rows, objective.log_f

    def sample_rows(rng, rounds):
        blocks.append(rounds)
        return draw(rng, rounds)

    def log_f(log_a, offsets=None):
        values = score(log_a, offsets)
        if offsets is not None:
            scored.append((values[0], values[1]))
        return values

    space.sample_rows = sample_rows
    objective.log_f = log_f
    return blocks, scored


def replay(first_min, first_max, values_min, values_max, config):
    """A plain one-round-at-a-time Algorithm 2 over already-scored rounds."""
    best_min, best_max = first_min, first_max
    undefeated = rounds = to_min = to_max = 0
    starts = []
    for value_min, value_max in zip(values_min, values_max):
        starts.append((rounds, undefeated))
        rounds += 1
        improved = False
        if value_min < best_min:
            best_min, to_min, improved = value_min, rounds, True
        if value_max > best_max:
            best_max, to_max, improved = value_max, rounds, True
        undefeated = 0 if improved else undefeated + 1
        if undefeated >= config.r_undefeated or rounds >= config.max_rounds:
            break
    stopped = "r_undefeated" if undefeated >= config.r_undefeated else "max_rounds"
    return rounds, to_min, to_max, stopped, starts


class TestBlockStoppingRule:
    """Blocks of rounds keep the exact one-round-at-a-time stopping rule."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("r_undefeated, max_rounds", [(40, 100_000), (150, 170), (100, 100)])
    def test_block_equals_sequential_replay(self, seed, r_undefeated, max_rounds):
        objective, space, _ = setup_problem()
        config = RandomSearchConfig(
            r_undefeated=r_undefeated, max_rounds=max_rounds, record_history=False
        )
        center_min, center_max = space.log_vectors(space.center_rows())
        first = (objective.log_f(center_min), objective.log_f(center_max))
        blocks, scored = instrument(objective, space)
        result = random_search(objective, space, seed, config)

        assert [v[0].size for v in scored] == blocks
        values_min = np.concatenate([v[0] for v in scored])
        values_max = np.concatenate([v[1] for v in scored])
        # Every drawn candidate is a real round: none is left over.
        assert values_min.size == result.rounds_total
        rounds, to_min, to_max, stopped, starts = replay(
            *first, values_min, values_max, config
        )
        assert (rounds, to_min, to_max, stopped) == (
            result.rounds_total,
            result.rounds_to_min,
            result.rounds_to_max,
            result.stopped_by,
        )
        # No block runs past R − undefeated or the round cap.
        position = 0
        for size in blocks:
            done, undefeated = starts[position]
            assert size <= config.r_undefeated - undefeated
            assert size <= config.max_rounds - done
            position += size
        if result.stopped_by == "max_rounds":
            assert result.rounds_total == config.max_rounds

    @pytest.mark.parametrize("eps_a", [2.5e-4, 3e-4])
    def test_offset_scores_match_direct_scores(self, eps_a):
        # eps_a = 3e-4 pins a ∈ [0, 6e-4]: log 0 on every trace's (0, 1)
        # step, so the min direction scores −inf throughout.
        objective, space, _ = setup_problem(eps_a=eps_a)
        blocks = []
        assemble = space.shared_log_vectors

        def shared_log_vectors(rows):
            result = assemble(rows)
            blocks.append(result)
            return result

        space.shared_log_vectors = shared_log_vectors
        _, scored = instrument(objective, space)
        random_search(objective, space, 2, RandomSearchConfig(r_undefeated=60))
        # The first assembled vector is the centre's (round 0).
        assert blocks[0].ndim == 1 and len(blocks) - 1 == len(scored) > 0
        for shared, (values_min, values_max) in zip(blocks[1:], scored):
            direct_min = objective.log_f(space.directed(shared, "min"))
            direct_max = objective.log_f(space.directed(shared, "max"))
            assert np.all(np.isfinite(direct_max))
            assert np.array_equal(np.isneginf(values_min), np.isneginf(direct_min))
            assert np.all(np.isneginf(direct_min)) == (eps_a == 3e-4)
            finite = np.isfinite(direct_min)
            assert np.allclose(values_min[finite], direct_min[finite], rtol=1e-12, atol=0)
            assert np.allclose(values_max, direct_max, rtol=1e-12, atol=0)

    def test_improving_rounds_get_their_direction_vectors(self):
        """The reported extremes' vectors are the winning candidates' own
        min- and max-vectors, as :meth:`CandidateSpace.log_vectors` builds them."""
        objective, space, _ = setup_problem()
        result = random_search(objective, space, 4, RandomSearchConfig(r_undefeated=80))
        assert result.rounds_to_min > 0 and result.rounds_to_max > 0
        log_min, _ = space.log_vectors(result.rows_min)
        _, log_max = space.log_vectors(result.rows_max)
        assert np.array_equal(result.log_a_min, log_min)
        assert np.array_equal(result.log_a_max, log_max)

    def test_max_rounds_lands_on_the_cap(self):
        # R = R_max: the first round always improves one extreme (the
        # centre is both incumbents), so the cap must stop the search.
        objective, space, _ = setup_problem()
        config = RandomSearchConfig(r_undefeated=100, max_rounds=100, record_history=False)
        result = random_search(objective, space, 5, config)
        assert result.stopped_by == "max_rounds"
        assert result.rounds_total == 100

    def test_blocks_respect_the_memory_cap(self, monkeypatch):
        from repro.imcis import dirichlet

        # Below one round's draw array the block shrinks to one round.
        monkeypatch.setattr(dirichlet, "BLOCK_BYTES", 1)
        objective, space, _ = setup_problem()
        assert space.max_block_rounds == 1
        blocks, _ = instrument(objective, space)
        result = random_search(objective, space, 1, RandomSearchConfig(r_undefeated=30))
        assert blocks == [1] * result.rounds_total
