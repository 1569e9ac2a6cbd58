"""Unit tests for time-dependent (unrolled) importance sampling."""

import numpy as np
import pytest

from repro.analysis import probability
from repro.core import DTMC
from repro.errors import EstimationError
from repro.importance import estimate_from_sample, run_importance_sampling
from repro.importance.bounded import bounded_value_table, time_dependent_zero_variance
from repro.properties import parse_property

from tests.conftest import illustrative_matrix, trace_counts


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
        from repro.core import TransitionCounts

        unrolled_counts = trace_counts(
            [TransitionCounts.from_path([0, 4 + 1, 8 + 2])],  # layered path
            n_states=proposal.chain.n_states,
        )
        projected = unrolled_counts.map_states(proposal.state_map(), 4)
        assert dict(projected.to_tables()[0].items()) == {(0, 1): 1, (1, 2): 1}


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
        counts = sample.count_arrays
        assert counts.n_states == 4
        assert counts.n_traces == sample.n_satisfied
        assert counts.n_entries > 0
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
