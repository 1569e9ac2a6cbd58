"""Unit tests for candidate-space construction and row classification."""

import math

import numpy as np
import pytest

from repro.core import DTMC, IMC, TransitionCounts
from repro.errors import EstimationError
from repro.imcis import CandidateSpace, ObservationTables
from repro.imcis.candidates import CONSTANT, PINNED, SAMPLED
from repro.importance.estimator import ISSample

from tests.conftest import illustrative_matrix, trace_counts


def make_space(paths, eps_a=2.5e-4, eps_c=5e-4, closed_form=True):
    center = DTMC(illustrative_matrix(3e-4, 0.0498), 0, labels={"goal": [2]})
    eps = np.zeros((4, 4))
    eps[0, 1] = eps[0, 3] = eps_a
    eps[1, 2] = eps[1, 0] = eps_c
    imc = IMC.from_center(center, eps)
    counts = [TransitionCounts.from_path(p) for p in paths]
    sample = ISSample(n_total=100, step_records=trace_counts(counts), trace_ids=np.arange(len(counts)), log_proposal=[0.0] * len(counts))
    tables = ObservationTables.from_sample(sample)
    return CandidateSpace(imc, tables, closed_form_single=closed_form), imc


class TestClassification:
    def test_single_observation_pinned(self):
        space, _ = make_space([[0, 1, 2]])
        kinds = {p.state: p.kind for p in space.plans}
        assert kinds[0] == PINNED  # only (0,1) observed
        assert kinds[1] == PINNED  # only (1,2) observed

    def test_multiple_observations_sampled(self):
        space, _ = make_space([[0, 1, 0, 1, 2]])
        kinds = {p.state: p.kind for p in space.plans}
        assert kinds[0] == PINNED
        assert kinds[1] == SAMPLED  # both (1,2) and (1,0) observed

    def test_closed_form_disabled(self):
        space, _ = make_space([[0, 1, 2]], closed_form=False)
        kinds = {p.state: p.kind for p in space.plans}
        assert kinds[0] == SAMPLED

    def test_dirac_row_constant(self):
        space, _ = make_space([[0, 1, 2, 2]])
        kinds = {p.state: p.kind for p in space.plans}
        assert kinds[2] == CONSTANT  # absorbing goal row has support {2}

    def test_observation_outside_imc_rejected(self):
        with pytest.raises(EstimationError, match="structurally impossible"):
            make_space([[0, 2]])  # (0,2) impossible in the illustrative chain


class TestPinnedValues:
    def test_paper_closed_form(self):
        """a_min = max(a⁻, 1 − Σ_{j'≠j} a⁺) for the single-observation row."""
        space, imc = make_space([[0, 1, 2]])
        plan = {p.state: p for p in space.plans}[0]
        a_min = math.exp(plan.pinned_log_min[0])
        a_max = math.exp(plan.pinned_log_max[0])
        # Interval [0.5e-4, 5.5e-4]; complementary interval leaves exactly it.
        assert a_min == pytest.approx(0.5e-4, rel=1e-9)
        assert a_max == pytest.approx(5.5e-4, rel=1e-9)

    def test_pinned_values_enter_vectors(self):
        space, _ = make_space([[0, 1, 2]])
        log_min, log_max = space.log_vectors(space.center_rows())
        col = space.tables.column_index()[(0, 1)]
        assert log_min[col] == pytest.approx(math.log(0.5e-4))
        assert log_max[col] == pytest.approx(math.log(5.5e-4))


class TestVectors:
    def test_center_rows_give_center_values(self):
        space, imc = make_space([[0, 1, 0, 1, 2]])
        log_min, _ = space.log_vectors(space.center_rows())
        col = space.tables.column_index()[(1, 2)]
        assert log_min[col] == pytest.approx(math.log(0.0498))

    def test_sampled_rows_flow_into_vectors(self, rng):
        space, imc = make_space([[0, 1, 0, 1, 2]])
        rows = {s: r[0] for s, r in space.sample_rows(rng, 1).items()}
        log_min, log_max = space.log_vectors(rows)
        col = space.tables.column_index()[(1, 2)]
        plan = next(p for p in space.sampled_plans if p.state == 1)
        pos = plan.obs_positions[list(plan.obs_columns).index(col)]
        assert log_min[col] == pytest.approx(math.log(rows[1][pos]))
        assert log_min[col] == log_max[col]

    def test_block_of_candidates(self, rng):
        space, _ = make_space([[0, 1, 0, 1, 2]])
        block = space.sample_rows(rng, 7)
        log_min, log_max = space.log_vectors(block)
        assert log_min.shape == log_max.shape == (7, space.tables.n_transitions)
        for i in range(7):
            single = space.log_vectors({s: rows[i] for s, rows in block.items()})
            assert np.array_equal(log_min[i], single[0])
            assert np.array_equal(log_max[i], single[1])

    @pytest.mark.parametrize("eps_a", [2.5e-4, 3e-4])
    def test_pinned_logs_rebuild_both_directions(self, rng, eps_a):
        # eps_a = 3e-4: a ∈ [0, 6e-4], so the pinned minimum is log 0.
        space, _ = make_space([[0, 1, 0, 1, 2], [0, 1, 2]], eps_a=eps_a)
        log_min, log_max = space.log_vectors(space.sample_rows(rng, 3))
        columns, pinned_min, pinned_max = space.pinned_logs()
        assert columns.tolist() == [space.tables.column_index()[(0, 1)]]
        shared = log_min.copy()
        shared[:, columns] = 0.0
        assert np.array_equal(shared + pinned_min, log_min)
        assert np.array_equal(shared + pinned_max, log_max)
        assert np.isneginf(pinned_min).any() == (eps_a == 3e-4)

    def test_row_summary(self, rng):
        space, _ = make_space([[0, 1, 0, 1, 2]])
        rows = {s: r[0] for s, r in space.sample_rows(rng, 1).items()}
        summary = space.row_summary(rows, "min")
        assert (0, 1) in summary  # pinned
        assert (1, 2) in summary  # sampled
        assert summary[(0, 1)] == pytest.approx(0.5e-4, rel=1e-9)

    def test_n_sampled_states(self):
        space, _ = make_space([[0, 1, 0, 1, 2]])
        assert space.n_sampled_states == 1
