"""Unit tests for prob0/prob1 graph precomputation."""

import numpy as np
import pytest
from scipy import sparse

from repro.analysis import backward_reachable, prob0_states, prob1_states

from tests.conftest import illustrative_matrix


@pytest.fixture(params=["dense", "sparse"])
def chain_matrix(request):
    matrix = illustrative_matrix(0.3, 0.4)
    return sparse.csr_matrix(matrix) if request.param == "sparse" else matrix


class TestBackwardReachable:
    def test_direct(self, chain_matrix):
        goal = np.array([False, False, True, False])
        through = np.array([True, True, False, False])
        reached = backward_reachable(chain_matrix, goal, through)
        assert list(reached) == [True, True, True, False]

    def test_blocked_by_through(self, chain_matrix):
        goal = np.array([False, False, True, False])
        through = np.array([True, False, False, False])  # s1 excluded
        reached = backward_reachable(chain_matrix, goal, through)
        assert list(reached) == [False, False, True, False]

    def test_targets_always_included(self, chain_matrix):
        goal = np.array([False, False, False, True])
        through = np.zeros(4, dtype=bool)
        assert backward_reachable(chain_matrix, goal, through)[3]


class TestProb0:
    def test_absorbing_failure_is_prob0(self, chain_matrix):
        lhs = np.ones(4, dtype=bool)
        rhs = np.array([False, False, True, False])
        zero = prob0_states(chain_matrix, lhs, rhs)
        assert list(zero) == [False, False, False, True]

    def test_lhs_restriction(self, chain_matrix):
        lhs = np.array([True, False, True, True])  # cannot pass through s1
        rhs = np.array([False, False, True, False])
        zero = prob0_states(chain_matrix, lhs, rhs)
        assert zero[0]  # s0 can only reach goal via s1


class TestProb1:
    def test_goal_itself(self, chain_matrix):
        lhs = np.ones(4, dtype=bool)
        rhs = np.array([False, False, True, False])
        one = prob1_states(chain_matrix, lhs, rhs)
        assert one[2]
        assert not one[0]  # can be absorbed at s3

    def test_certain_reachability(self):
        # A deterministic 3-cycle reaching the goal almost surely.
        matrix = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        lhs = np.ones(3, dtype=bool)
        rhs = np.array([False, False, True])
        assert prob1_states(matrix, lhs, rhs).all()

    def test_trapped_loop_is_not_prob1(self):
        # s0 <-> s1 loop that never reaches the (unreachable) goal s2.
        matrix = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        lhs = np.ones(3, dtype=bool)
        rhs = np.array([False, False, True])
        one = prob1_states(matrix, lhs, rhs)
        assert not one[0] and not one[1]
