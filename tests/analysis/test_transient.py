"""Unit tests for transient (bounded) analysis."""

import numpy as np
import pytest

from repro.analysis import bounded_until_values


class TestBoundedUntil:
    def test_bound_zero_is_indicator(self, small_chain):
        lhs = np.ones(4, dtype=bool)
        rhs = np.array([False, False, True, False])
        values = bounded_until_values(small_chain, lhs, rhs, 0)
        assert list(values) == [0.0, 0.0, 1.0, 0.0]

    def test_monotone_in_bound(self, small_chain):
        lhs = np.ones(4, dtype=bool)
        rhs = np.array([False, False, True, False])
        previous = bounded_until_values(small_chain, lhs, rhs, 0)
        for bound in range(1, 10):
            current = bounded_until_values(small_chain, lhs, rhs, bound)
            assert np.all(current >= previous - 1e-15)
            previous = current

    def test_negative_bound_rejected(self, small_chain):
        with pytest.raises(ValueError):
            bounded_until_values(small_chain, np.ones(4, bool), np.ones(4, bool), -1)
