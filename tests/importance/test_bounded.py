"""Unit tests for time-dependent (unrolled) importance sampling."""

import numpy as np
import pytest

from repro.analysis import probability
from repro.core import DTMC
from repro.errors import EstimationError
from repro.importance import estimate_from_sample, run_importance_sampling
from repro.importance.bounded import bounded_value_table, time_dependent_zero_variance
from repro.models import swat
from repro.properties import parse_property

from tests.conftest import aggregate_records, illustrative_matrix, records_from_keys
from tests.importance.oracle import unrolled_matrix


def _assert_matches_oracle(chain, formula, mixing):
    proposal = time_dependent_zero_variance(chain, formula, mixing=mixing)
    matrix, futile = unrolled_matrix(chain, formula, mixing)
    built = proposal.chain.transitions
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(built, name), getattr(matrix, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
    assert np.array_equal(proposal.futility.mask, futile)
    assert proposal.futility.start_position == 0


@pytest.fixture
def chain():
    return DTMC(illustrative_matrix(0.05, 0.3), 0, labels={"goal": [2], "init": [0]})


class TestValueTable:
    def test_layers_match_bounded_until(self, chain):
        from repro.analysis import bounded_until_values

        lhs = np.ones(4, dtype=bool)
        rhs = chain.label_mask("goal")
        table = bounded_value_table(chain, lhs, rhs, 5)
        for k in range(6):
            assert np.allclose(table[k], bounded_until_values(chain, lhs, rhs, k))

    def test_monotone_in_k(self, chain):
        lhs = np.ones(4, dtype=bool)
        table = bounded_value_table(chain, lhs, chain.label_mask("goal"), 8)
        assert np.all(np.diff(table, axis=0) >= -1e-15)


class TestUnrolledProposal:
    def test_structure(self, chain):
        formula = parse_property('F<=4 "goal"')
        proposal = time_dependent_zero_variance(chain, formula)
        assert proposal.bound == 4
        assert proposal.n_original == 4
        assert proposal.chain.n_states == 5 * 4

    def test_rejects_unbounded(self, chain):
        with pytest.raises(EstimationError, match="unbounded"):
            time_dependent_zero_variance(chain, parse_property('F "goal"'))

    def test_rejects_zero_probability(self, chain):
        with pytest.raises(EstimationError, match="probability zero"):
            time_dependent_zero_variance(chain, parse_property('F<=1 "goal"'))

    def test_projection_maps_layers_down(self, chain):
        formula = parse_property('F<=4 "goal"')
        proposal = time_dependent_zero_variance(chain, formula)
        n_unrolled = proposal.chain.n_states
        path = [0, 4 + 1, 8 + 2]  # layered path
        keys = np.array([s * n_unrolled + t for s, t in zip(path, path[1:])])
        records = records_from_keys(1, n_unrolled, np.zeros(2, dtype=np.int64), keys)
        projected = aggregate_records(records.map_states(proposal.state_map(), 4))
        assert dict(projected.tables()[0].items()) == {(0, 1): 1, (1, 2): 1}


class TestOracleParity:
    """The layer-at-a-time build equals the per-row loop byte for byte."""

    @pytest.mark.parametrize("mixing", [0.0, 0.4])
    @pytest.mark.parametrize("seed", [1, 7, 2018])
    def test_learnt_swat_chain(self, seed, mixing):
        pipeline = swat.learn_pipeline(seed, log_traces=200, log_steps=300)
        _assert_matches_oracle(pipeline.learned_imc.center, swat.overflow_formula(), mixing)

    @pytest.mark.parametrize("mixing", [0.0, 0.4])
    def test_row_of_zero_tilted_mass(self, mixing):
        """State 1 can only move to the trap state 3, whose value is 0 at
        every horizon: its tilted mass is 0 and it keeps its own row."""
        matrix = np.array(
            [
                [0.2, 0.3, 0.4, 0.1],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        chain = DTMC(matrix, 0, labels={"goal": [2]})
        _assert_matches_oracle(chain, parse_property('F<=5 "goal"'), mixing)

    @pytest.mark.parametrize("mixing", [0.0, 0.4])
    def test_sparse_chain_with_unsorted_rows(self, mixing):
        """A sparse chain keeps its rows' stored entry order."""
        from scipy import sparse

        dense = illustrative_matrix(0.05, 0.3)
        rows, cols = np.nonzero(dense)
        order = np.lexsort((-cols, rows))  # each row's columns descending
        indptr = np.r_[0, np.cumsum(np.count_nonzero(dense, axis=1))]
        matrix = sparse.csr_matrix(
            (dense[rows, cols][order], cols[order], indptr), shape=dense.shape
        )
        chain = DTMC(matrix, 0, labels={"goal": [2]})
        assert not chain.transitions.has_sorted_indices
        _assert_matches_oracle(chain, parse_property('F<=6 "goal"'), mixing)

    def test_lhs_restricted_until(self, chain):
        """Decided states of both kinds: the goal and the forbidden state."""
        chain = chain.with_labels({"bad": [3]})
        _assert_matches_oracle(chain, parse_property('!"bad" U<=5 "goal"'), 0.2)


class TestEstimation:
    def test_zero_variance_exact(self, chain, rng):
        formula = parse_property('F<=6 "goal"')
        exact = probability(chain, formula)
        proposal = time_dependent_zero_variance(chain, formula)
        sample = run_importance_sampling(proposal, formula, 400, rng)
        assert sample.n_satisfied == 400  # every trace succeeds
        result = estimate_from_sample(chain, sample)
        assert result.estimate == pytest.approx(exact, rel=1e-9)
        assert result.std_dev <= 1e-6 * result.estimate  # float-cancellation dust only

    def test_mixing_gives_variance_but_stays_unbiased(self, chain, rng):
        formula = parse_property('F<=6 "goal"')
        exact = probability(chain, formula)
        proposal = time_dependent_zero_variance(chain, formula, mixing=0.4)
        sample = run_importance_sampling(proposal, formula, 4000, rng)
        result = estimate_from_sample(chain, sample)
        assert result.std_dev > 0
        assert result.estimate == pytest.approx(exact, rel=0.15)

    def test_counts_live_on_original_transitions(self, chain, rng):
        formula = parse_property('F<=6 "goal"')
        proposal = time_dependent_zero_variance(chain, formula, mixing=0.2)
        sample = run_importance_sampling(proposal, formula, 50, rng)
        counts = aggregate_records(sample.step_records, sample.trace_ids)
        assert counts.n_states == 4
        assert counts.n_traces == sample.n_satisfied
        assert counts.trace_ids.size > 0
        assert np.all((0 <= counts.sources) & (counts.sources < 4))
        assert np.all((0 <= counts.targets) & (counts.targets < 4))

    def test_weighting_against_other_member(self, chain, rng):
        """The same unrolled sample can be re-weighted against any chain —
        the property IMCIS relies on."""
        formula = parse_property('F<=6 "goal"')
        other = DTMC(illustrative_matrix(0.06, 0.32), 0, labels={"goal": [2]})
        proposal = time_dependent_zero_variance(chain, formula, mixing=0.2)
        sample = run_importance_sampling(proposal, formula, 6000, rng)
        result = estimate_from_sample(other, sample)
        assert result.estimate == pytest.approx(probability(other, formula), rel=0.15)
