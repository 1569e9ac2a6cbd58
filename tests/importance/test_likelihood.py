"""Unit tests for the likelihood ratio's support condition and Eq. 6."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DTMC
from repro.errors import EstimationError
from repro.importance import check_absolute_continuity, log_weights, run_importance_sampling
from repro.properties import parse_property

from tests.conftest import aggregate_records, illustrative_matrix, random_dtmc


@pytest.fixture
def pair():
    original = DTMC(illustrative_matrix(0.3, 0.4), 0)
    proposal = DTMC(illustrative_matrix(0.6, 0.7), 0)
    return original, proposal


class TestAbsoluteContinuity:
    def test_full_support_passes(self, pair):
        check_absolute_continuity(*pair)

    def test_missing_transition_detected(self, pair):
        original, _ = pair
        matrix = illustrative_matrix(0.3, 0.4)
        matrix[0] = [0.0, 1.0, 0.0, 0.0]  # drops s0 -> s3
        proposal = DTMC(matrix, 0)
        with pytest.raises(EstimationError, match="zero probability"):
            check_absolute_continuity(original, proposal)

    def test_state_space_mismatch(self, pair):
        original, _ = pair
        with pytest.raises(EstimationError, match="state space"):
            check_absolute_continuity(original, DTMC(np.eye(2)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_likelihood_identity_on_random_chains(seed):
    """``exp(log_weights)`` equals ``Π (a_ij/b_ij)^{n_ij}`` per trace (Eq. 6).

    Covers both terms: the numerator from the counts and ``log P_B(ω)``
    as recorded during simulation.
    """
    gen = np.random.default_rng(seed)
    labels = {"goal": [3]}
    original = random_dtmc(gen, 4, labels, sparsity=1.0)
    proposal = random_dtmc(gen, 4, labels, sparsity=1.0)
    sample = run_importance_sampling(proposal, parse_property('F "goal"'), 20, gen)
    weights = np.exp(log_weights(original, sample))
    tables = aggregate_records(sample.step_records, sample.trace_ids).tables()
    assert len(tables) == weights.size == 20
    a, b = original.dense(), proposal.dense()
    for k, table in enumerate(tables):
        direct = np.prod([(a[i, j] / b[i, j]) ** n for (i, j), n in table.items()])
        assert weights[k] == pytest.approx(direct, rel=1e-9)
