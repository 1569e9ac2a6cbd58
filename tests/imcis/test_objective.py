"""Unit tests for the f/g objective (Equation 10, Algorithm 1 lines 16–18)."""

import math

import numpy as np
import pytest

from repro.core import DTMC, TransitionCounts
from repro.errors import EstimationError
from repro.imcis import ISObjective, ObservationTables
from repro.importance.estimator import ISSample

from tests.conftest import illustrative_matrix, trace_counts


def build_objective() -> tuple[ISObjective, DTMC, DTMC]:
    """Two successful traces sampled under a known proposal."""
    original = DTMC(illustrative_matrix(0.3, 0.4), 0)
    proposal = DTMC(illustrative_matrix(0.6, 0.7), 0)
    paths = [[0, 1, 2], [0, 1, 0, 1, 2]]
    counts = [TransitionCounts.from_path(p) for p in paths]
    log_b = [proposal.log_path_probability(p) for p in paths]
    sample = ISSample(n_total=50, step_records=trace_counts(counts), trace_ids=np.arange(len(counts)), log_proposal=log_b)
    return ISObjective(ObservationTables.from_sample(sample)), original, proposal


def log_a_for(objective: ISObjective, chain: DTMC) -> np.ndarray:
    return np.array(
        [math.log(chain.probability(i, j)) for (i, j) in objective.tables.transitions]
    )


class TestEvaluation:
    def test_f_matches_manual_sum(self):
        objective, original, proposal = build_objective()
        log_a = log_a_for(objective, original)
        expected = sum(
            original.path_probability(p) / proposal.path_probability(p)
            for p in ([0, 1, 2], [0, 1, 0, 1, 2])
        )
        assert math.exp(objective.log_f(log_a)) == pytest.approx(expected, rel=1e-12)

    def test_moments_match_algorithm1(self):
        objective, original, proposal = build_objective()
        log_a = log_a_for(objective, original)
        ratios = [
            original.path_probability(p) / proposal.path_probability(p)
            for p in ([0, 1, 2], [0, 1, 0, 1, 2])
        ]
        moments = objective.moments(log_a)
        n = 50
        gamma = sum(ratios) / n
        variance = sum(r * r for r in ratios) / n - gamma**2
        assert moments.gamma == pytest.approx(gamma, rel=1e-12)
        assert moments.sigma == pytest.approx(math.sqrt(variance), rel=1e-12)
        assert moments.f == pytest.approx(sum(ratios), rel=1e-12)

    def test_evaluating_proposal_gives_success_fraction(self):
        """f(B)/N is the raw success fraction — a useful sanity identity."""
        objective, _, proposal = build_objective()
        log_a = log_a_for(objective, proposal)
        assert objective.moments(log_a).gamma == pytest.approx(2 / 50)

    def test_monotone_in_each_coordinate(self):
        objective, original, _ = build_objective()
        log_a = log_a_for(objective, original)
        base = objective.log_f(log_a)
        for t in range(objective.n_columns):
            bumped = log_a.copy()
            bumped[t] += 0.05
            assert objective.log_f(bumped) > base

    def test_block_matches_single_candidates(self):
        objective, original, _ = build_objective()
        gen = np.random.default_rng(4)
        block = log_a_for(objective, original) + gen.uniform(-0.3, 0.0, (6, objective.n_columns))
        singles = [objective.log_f(row) for row in block]
        assert np.allclose(objective.log_f(block), singles, rtol=1e-12)
        delta = gen.uniform(-0.2, 0.2, objective.n_columns)
        offsets = np.stack(
            [np.zeros(objective.tables.n_successful), objective.log_ratio_shift(delta)]
        )
        shifted = objective.log_f(block, offsets)
        assert shifted.shape == (2, 6)
        assert np.allclose(shifted[0], singles, rtol=1e-12)
        assert np.allclose(shifted[1], [objective.log_f(row + delta) for row in block], rtol=1e-12)

    def test_wrong_shape_rejected(self):
        objective, *_ = build_objective()
        with pytest.raises(EstimationError, match="shape"):
            objective.log_f(np.zeros(objective.n_columns + 1))

    def test_empty_tables(self):
        sample = ISSample(n_total=10)
        objective = ISObjective(ObservationTables.from_sample(sample))
        moments = objective.moments(np.empty(0))
        assert moments.gamma == 0.0 and moments.sigma == 0.0
        assert objective.log_f(np.empty(0)) == float("-inf")
        assert np.all(objective.log_f(np.empty((3, 0))) == float("-inf"))

    def test_zero_probability_candidate(self):
        objective, original, _ = build_objective()
        log_a = log_a_for(objective, original)
        log_a[0] = float("-inf")  # transition (0,1) impossible: every trace dies
        assert objective.moments(log_a).gamma == 0.0


class TestGradient:
    def test_gradient_matches_finite_difference(self):
        objective, original, _ = build_objective()
        log_a = log_a_for(objective, original)
        grad = objective.gradient_log_f(log_a)
        eps = 1e-7
        for t in range(objective.n_columns):
            bumped = log_a.copy()
            bumped[t] += eps
            fd = (objective.log_f(bumped) - objective.log_f(log_a)) / eps
            assert grad[t] == pytest.approx(fd, rel=1e-4)

    def test_gradient_empty(self):
        sample = ISSample(n_total=3)
        objective = ISObjective(ObservationTables.from_sample(sample))
        assert objective.gradient_log_f(np.empty(0)).size == 0
