"""Unit tests for zero-variance proposals (Fig. 1c behaviour)."""

import numpy as np
import pytest

from repro.analysis import probability
from repro.core import DTMC
from repro.errors import EstimationError
from repro.importance import (
    tilt_by_values,
    zero_variance_proposal,
    zero_variance_values,
)
from repro.properties import parse_property

from tests.conftest import fused_is_estimate, illustrative_matrix


@pytest.fixture
def chain():
    return DTMC(illustrative_matrix(0.01, 0.2), 0, labels={"goal": [2], "init": [0]})


class TestTilting:
    def test_rows_remain_stochastic(self, chain):
        values = np.array([0.5, 0.7, 1.0, 0.0])
        tilted = tilt_by_values(chain, values)
        assert np.allclose(tilted.dense().sum(axis=1), 1.0)

    def test_dead_rows_keep_original(self, chain):
        values = np.zeros(4)
        values[2] = 1.0  # only the goal has value
        tilted = tilt_by_values(chain, values)
        # s3 cannot reach the goal: row unchanged.
        assert np.allclose(tilted.row(3), chain.row(3))

    def test_mixing_keeps_support(self, chain):
        values = np.array([0.5, 0.7, 1.0, 0.0])
        tilted = tilt_by_values(chain, values, mixing=0.3)
        # s0 -> s3 has value 0 but mixing keeps it possible.
        assert tilted.probability(0, 3) > 0

    def test_bad_value_shape(self, chain):
        with pytest.raises(EstimationError):
            tilt_by_values(chain, np.ones(3))

    def test_bad_mixing(self, chain):
        with pytest.raises(EstimationError):
            tilt_by_values(chain, np.ones(4), mixing=1.0)


class TestZeroVariance:
    def test_every_trace_succeeds(self, chain, rng):
        formula = parse_property('F "goal"')
        proposal = zero_variance_proposal(chain, formula)
        from repro.importance import run_importance_sampling

        sample = run_importance_sampling(proposal, formula, 200, rng)
        assert sample.n_satisfied == 200

    def test_estimator_variance_is_zero(self, chain, rng):
        formula = parse_property('F "goal"')
        proposal = zero_variance_proposal(chain, formula)
        result = fused_is_estimate(chain, proposal, formula, 200, rng)
        assert result.std_dev == pytest.approx(0.0, abs=1e-15)
        assert result.estimate == pytest.approx(probability(chain, formula), rel=1e-9)

    def test_exempt_shape_proposal(self, chain, rng):
        formula = parse_property('"init" & (X !"init" U "goal")')
        proposal = zero_variance_proposal(chain, formula)
        result = fused_is_estimate(chain, proposal, formula, 200, rng)
        assert result.estimate == pytest.approx(probability(chain, formula), rel=1e-9)
        assert result.std_dev <= 1e-6 * result.estimate

    def test_values_match_until(self, chain):
        formula = parse_property('F "goal"')
        values = zero_variance_values(chain, formula.until_spec(chain))
        assert values[2] == 1.0
        assert values[3] == 0.0

    def test_impossible_property_rejected(self):
        island = DTMC(np.eye(4), 0, labels={"goal": []})
        with pytest.raises(EstimationError, match="probability zero"):
            zero_variance_proposal(island, parse_property('F "goal"'))

    def test_sparse_chain(self, chain, rng):
        from scipy import sparse

        sp = DTMC(sparse.csr_matrix(chain.dense()), 0, chain.labels)
        formula = parse_property('F "goal"')
        proposal = zero_variance_proposal(sp, formula)
        assert proposal.is_sparse
        result = fused_is_estimate(sp, proposal, formula, 100, rng)
        assert result.std_dev == pytest.approx(0.0, abs=1e-15)

    def test_bounded_uses_markovian_approximation(self, chain, rng):
        """Bounded property: the proposal is valid (unbiased) though not
        zero-variance."""
        formula = parse_property('F<=6 "goal"')
        proposal = zero_variance_proposal(chain, formula)
        exact = probability(chain, formula)
        result = fused_is_estimate(chain, proposal, formula, 4000, rng)
        assert result.estimate == pytest.approx(exact, rel=0.2)
