"""Unit tests for the f/g objective (Equation 10, Algorithm 1 lines 16–18)."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.special import logsumexp

from repro.core import DTMC, TransitionCounts
from repro.errors import EstimationError
from repro.imcis import (
    CandidateSpace,
    ISObjective,
    ObservationTables,
    RandomSearchConfig,
    random_search,
)
from repro.importance.estimator import ISSample, run_importance_sampling
from repro.models.registry import REGISTRY

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
            [
                objective.log_ratio_shift(np.zeros(objective.n_columns)),
                objective.log_ratio_shift(delta),
            ]
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


def per_trace_log_f(tables: ObservationTables, log_a: np.ndarray, offsets=None):
    """The objective summed trace by trace: one log-sum-exp term per
    successful trace, *offsets* per trace (the oracle of the grouped sum)."""
    counts, log_b = tables.counts, tables.log_proposal
    if counts.shape[0] == 0:
        ratios = np.empty((0,) + log_a.shape[:-1])
    elif log_a.ndim == 1:
        ratios = np.asarray(counts @ log_a).ravel() - log_b
    else:
        ratios = np.asarray(counts @ log_a.T) - log_b[:, None]
    if offsets is not None:
        shape = (-1,) + (1,) * (log_a.ndim - 1)
        return np.array([logsumexp(ratios + o.reshape(shape), axis=0) for o in offsets])
    return logsumexp(ratios, axis=0)


class PerTraceObjective(ISObjective):
    """:class:`ISObjective` with the per-trace ``log_f`` and shifts."""

    def log_ratio_shift(self, delta_log_a):
        return np.asarray(self.tables.counts @ delta_log_a).ravel()

    def log_f(self, log_a, offsets=None):
        values = per_trace_log_f(self.tables, log_a, offsets)
        return float(values) if log_a.ndim == 1 and offsets is None else values


#: Count rows of :func:`grouped_tables`, one per trace. Rows 0, 1 and 3 are
#: equal; row 6 takes the columns of row 0 with other counts; only rows 2,
#: 4 and 5 take column 1.
ROWS = [[2, 0, 1], [2, 0, 1], [1, 1, 0], [2, 0, 1], [0, 3, 1], [1, 1, 0], [1, 0, 1]]


def grouped_tables() -> ObservationTables:
    """Tables whose equal count rows carry ``log P_B`` a few ULP apart.

    The ``log P_B`` values lie near −745, so ``exp(−log P_B)`` overflows
    unless each group's sum is shifted by its maximum.
    """
    base = -745.3
    log_b = np.array(
        [
            base,
            np.nextafter(base, -np.inf),
            -12.5,
            np.nextafter(np.nextafter(base, 0.0), 0.0),
            -3.0,
            -740.0,
            -20.25,
        ]
    )
    counts = sparse.csr_matrix(np.array(ROWS, dtype=float))
    return ObservationTables(((0, 1), (0, 2), (1, 2)), counts, log_b, 100)


class TestDistinctRows:
    """``log_f`` sums one term per distinct count row."""

    def test_rows_are_merged(self):
        objective = ISObjective(grouped_tables())
        assert objective.n_rows == 4
        # Distinct rows in order of first occurrence: ROWS 0, 2, 4, 6.
        assert np.array_equal(
            np.isneginf(objective.log_ratio_shift(np.array([0.0, -np.inf, 0.0]))),
            [False, True, True, False],
        )

    def test_vector_matches_per_trace_sum(self):
        tables = grouped_tables()
        objective = ISObjective(tables)
        gen = np.random.default_rng(7)
        for log_a in np.log(gen.uniform(0.05, 1.0, (20, 3))):
            value = objective.log_f(log_a)
            assert isinstance(value, float)
            assert value == pytest.approx(float(per_trace_log_f(tables, log_a)), rel=1e-12)

    def test_block_matches_per_trace_sum(self):
        tables = grouped_tables()
        objective = ISObjective(tables)
        block = np.log(np.random.default_rng(8).uniform(0.05, 1.0, (16, 3)))
        oracle = per_trace_log_f(tables, block)
        assert np.allclose(objective.log_f(block), oracle, rtol=1e-12, atol=0)

    def test_offsets_with_a_pinned_zero(self):
        """A −inf shift on column 1 kills exactly the rows that take it."""
        tables = grouped_tables()
        objective = ISObjective(tables)
        block = np.log(np.random.default_rng(9).uniform(0.05, 1.0, (16, 3)))
        block[:, 1] = 0.0
        deltas = [np.array([0.0, -np.inf, 0.0]), np.array([0.0, -0.7, 0.0])]
        shifts = np.stack([objective.log_ratio_shift(d) for d in deltas])
        assert not np.isnan(shifts).any()
        assert shifts.shape == (2, objective.n_rows)
        values = objective.log_f(block, shifts)
        oracle = per_trace_log_f(tables, block, [tables.counts @ d for d in deltas])
        assert values.shape == (2, 16)
        assert not np.isnan(values).any() and np.isfinite(values).all()
        assert np.allclose(values, oracle, rtol=1e-12, atol=0)

    def test_all_distinct_rows_reuse_the_tables(self):
        objective, original, _ = build_objective()
        assert objective.n_rows == objective.tables.n_successful == 2
        log_a = log_a_for(objective, original)
        ratios = objective.log_likelihood_ratios(log_a)
        assert objective.log_f(log_a) == float(logsumexp(ratios))


def study_problem(study: str):
    case = REGISTRY.make_study(study, rng=2018, quick=True)
    sample = run_importance_sampling(
        case.proposal, case.formula, 1000, np.random.default_rng(2018), original=case.imc.center
    )
    return ObservationTables.from_sample(sample), case.imc


@pytest.mark.parametrize("study", ["knuth-yao", "birth-death"])
def test_search_matches_per_trace_objective(study):
    """Algorithm 2 takes the same rounds on the grouped and per-trace sums."""
    tables, imc = study_problem(study)
    grouped = ISObjective(tables)
    assert grouped.n_rows < tables.n_successful
    config = RandomSearchConfig(r_undefeated=200, record_history=False)
    for seed in (1, 2, 3):
        fast = random_search(grouped, CandidateSpace(imc, tables), seed, config)
        oracle = random_search(PerTraceObjective(tables), CandidateSpace(imc, tables), seed, config)
        for name in ("rounds_total", "rounds_to_min", "rounds_to_max", "stopped_by"):
            assert getattr(fast, name) == getattr(oracle, name), (seed, name)
        assert fast.moments_min == oracle.moments_min
        assert fast.moments_max == oracle.moments_max
