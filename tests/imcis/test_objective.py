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


def random_tables(gen: np.random.Generator, n_rows: int, n_columns: int) -> ObservationTables:
    """Tables of *n_rows* random count rows (some repeated, some empty of
    a column) with ``log P_B`` spread over ~100 nats."""
    counts = gen.integers(0, 4, size=(n_rows, n_columns)) * (gen.random((n_rows, n_columns)) < 0.6)
    counts[gen.integers(0, n_rows, size=n_rows // 4)] = counts[0]
    counts[:, 0] += 1  # every trace takes column 0
    log_b = -gen.uniform(1.0, 100.0, n_rows)
    transitions = tuple((0, j + 1) for j in range(n_columns))
    return ObservationTables(transitions, sparse.csr_matrix(counts.astype(float)), log_b, 10 * n_rows)


def direction_scores(objective: ISObjective, shared: np.ndarray, deltas) -> np.ndarray:
    """Each direction's block scored on its own: the per-direction oracle."""
    return np.array([objective.log_f(shared + delta) for delta in deltas])


class TestFusedOffsets:
    """A block with offsets is scored from one exponential pass."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_matches_per_direction(self, seed):
        gen = np.random.default_rng(seed)
        objective = ISObjective(random_tables(gen, 120, 9))
        pinned = [2, 5]
        shared = np.log(gen.uniform(1e-3, 1.0, (64, 9)))
        shared[:, pinned] = 0.0
        deltas = np.zeros((2, 9))
        deltas[:, pinned] = np.log(gen.uniform(1e-6, 1.0, (2, 2)))
        offsets = np.stack([objective.log_ratio_shift(d) for d in deltas])
        values = objective.log_f(shared, offsets)
        assert values.shape == (2, 64)
        assert np.allclose(values, direction_scores(objective, shared, deltas), rtol=1e-12, atol=0)

    def test_neg_inf_offsets_and_an_all_neg_inf_direction(self):
        gen = np.random.default_rng(11)
        objective = ISObjective(random_tables(gen, 80, 6))
        shared = np.log(gen.uniform(1e-3, 1.0, (32, 6)))
        shared[:, [0, 3]] = 0.0
        deltas = np.zeros((3, 6))
        deltas[0, 3] = -np.inf  # a pinned zero: kills the rows through column 3
        deltas[1, 0] = -np.inf  # every row takes column 0: the whole direction is −inf
        deltas[2, 3] = -0.5
        offsets = np.stack([objective.log_ratio_shift(d) for d in deltas])
        assert np.isneginf(offsets[0]).any() and np.isfinite(offsets[0]).any()
        assert np.isneginf(offsets[1]).all()
        values = objective.log_f(shared, offsets)
        oracle = direction_scores(objective, shared, deltas)
        assert np.isneginf(values[1]).all()
        assert np.isfinite(values[[0, 2]]).all()
        assert np.allclose(values[[0, 2]], oracle[[0, 2]], rtol=1e-12, atol=0)

    def test_neg_inf_candidate_entries(self):
        """A zero probability in a candidate (swat's blocks have them)."""
        gen = np.random.default_rng(12)
        objective = ISObjective(random_tables(gen, 60, 5))
        shared = np.log(gen.uniform(1e-3, 1.0, (16, 5)))
        shared[:, 4] = 0.0
        shared[::3, 2] = -np.inf
        shared[5, 0] = -np.inf  # every row: a −inf candidate
        deltas = np.zeros((2, 5))
        deltas[:, 4] = [-2.0, -0.1]
        offsets = np.stack([objective.log_ratio_shift(d) for d in deltas])
        with np.errstate(invalid="raise"):
            values = objective.log_f(shared, offsets)
        oracle = direction_scores(objective, shared, deltas)
        assert np.array_equal(np.isneginf(values), np.isneginf(oracle))
        assert np.isneginf(values[:, 5]).all()
        finite = np.isfinite(oracle)
        assert np.allclose(values[finite], oracle[finite], rtol=1e-12, atol=0)

    def test_wide_spread_takes_the_exact_path(self, monkeypatch):
        """Offsets 900 nats apart would underflow the row that dominates
        once shifted; the direction is summed on its own instead."""
        from repro.imcis import objective as objective_module

        counts = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        log_b = np.array([-10.0, -810.0])  # row 1's term lies ~800 nats above row 0's
        objective = ISObjective(ObservationTables(((0, 1), (0, 2)), counts, log_b, 10))
        block = np.log(np.array([[0.5, 0.25], [0.125, 1.0]]))
        # Spread 900 (exact path) and 590 (shared pass, near the limit).
        offsets = np.array([[0.0, -900.0], [0.0, -590.0]])
        values = objective.log_f(block, offsets)
        for d, o in enumerate(offsets):
            for b, log_a in enumerate(block):
                terms = np.array([log_a[0] + 10.0 + o[0], log_a[1] + 810.0 + o[1]])
                assert values[d, b] == pytest.approx(float(logsumexp(terms)), rel=1e-13)
        # Without the guard the shared pass loses row 0, which leads the
        # first direction by ~100 nats.
        monkeypatch.setattr(objective_module, "FUSED_OFFSET_SPAN", math.inf)
        assert np.isneginf(objective.log_f(block, offsets)[0]).all()

    def test_zero_rows(self):
        objective = ISObjective(ObservationTables.from_sample(ISSample(n_total=3)))
        values = objective.log_f(np.empty((4, 0)), np.empty((2, 0)))
        assert values.shape == (2, 4)
        assert np.isneginf(values).all()

    def test_vector_with_offsets_keeps_the_exact_path(self):
        objective = ISObjective(grouped_tables())
        log_a = np.log(np.array([0.3, 1.0, 0.6]))
        offsets = np.stack(
            [objective.log_ratio_shift(np.array([0.0, d, 0.0])) for d in (-np.inf, -0.7)]
        )
        values = objective.log_f(log_a, offsets)
        assert values.shape == (2,)
        for value, delta in zip(values, (-np.inf, -0.7)):
            assert value == pytest.approx(objective.log_f(log_a + [0.0, delta, 0.0]), rel=1e-12)


def study_problem(study: str):
    case = REGISTRY.make_study(study, rng=2018, quick=True)
    sample = run_importance_sampling(
        case.proposal, case.formula, 1000, np.random.default_rng(2018), original=case.imc.center
    )
    return ObservationTables.from_sample(sample), case.imc


@pytest.mark.parametrize("study", ["knuth-yao", "birth-death", "gamblers-ruin", "swat"])
def test_search_matches_per_trace_objective(study):
    """Algorithm 2 takes the same rounds on the grouped sum, scored with one
    exponential pass per block, and on the per-trace sums, scored direction
    by direction. swat's count rows are all distinct, but its candidates
    carry −inf entries."""
    tables, imc = study_problem(study)
    grouped = ISObjective(tables)
    assert grouped.n_rows < tables.n_successful or study == "swat"
    config = RandomSearchConfig(r_undefeated=200, record_history=False)
    for seed in (1, 2, 3):
        fast = random_search(grouped, CandidateSpace(imc, tables), seed, config)
        oracle = random_search(PerTraceObjective(tables), CandidateSpace(imc, tables), seed, config)
        for name in ("rounds_total", "rounds_to_min", "rounds_to_max", "stopped_by"):
            assert getattr(fast, name) == getattr(oracle, name), (seed, name)
        assert fast.moments_min == oracle.moments_min
        assert fast.moments_max == oracle.moments_max
