"""Unit tests for paths and transition-count tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Path, TransitionCounts


class TestPath:
    def test_length_counts_transitions(self):
        assert len(Path.from_states([0, 1, 2])) == 2
        assert len(Path.from_states([5])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Path(())

    def test_first_last(self):
        path = Path.from_states([3, 1, 4])
        assert path.first == 3
        assert path.last == 4

    def test_transitions_iteration(self):
        path = Path.from_states([0, 1, 1, 2])
        assert list(path.transitions()) == [(0, 1), (1, 1), (1, 2)]

    def test_prefix(self):
        path = Path.from_states([0, 1, 2, 3])
        assert path.prefix(2).states == (0, 1, 2)
        assert path.prefix(10).states == path.states

    def test_prefix_negative(self):
        with pytest.raises(ValueError):
            Path.from_states([0, 1]).prefix(-1)

    def test_indexing(self):
        path = Path.from_states([7, 8, 9])
        assert path[1] == 8
        assert list(path) == [7, 8, 9]


class TestTransitionCounts:
    def test_from_path(self):
        counts = TransitionCounts.from_path([0, 1, 0, 1, 2])
        assert counts[(0, 1)] == 2
        assert counts[(1, 0)] == 1
        assert counts[(1, 2)] == 1
        assert counts[(2, 0)] == 0

    def test_total_is_path_length(self):
        path = Path.from_states([0, 1, 0, 1, 2])
        assert path.counts().total == len(path)

    def test_record_accumulates(self):
        counts = TransitionCounts()
        counts.record(1, 2)
        counts.record(1, 2, times=3)
        assert counts[(1, 2)] == 4

    def test_sources(self):
        counts = TransitionCounts.from_path([0, 1, 2, 2])
        assert counts.sources() == {0, 1, 2}

    def test_merge(self):
        a = TransitionCounts.from_path([0, 1])
        b = TransitionCounts.from_path([0, 1, 2])
        merged = a.merge(b)
        assert merged[(0, 1)] == 2
        assert merged[(1, 2)] == 1
        assert a[(0, 1)] == 1  # operands untouched

    def test_to_matrix(self):
        counts = TransitionCounts.from_path([0, 1, 0])
        matrix = counts.to_matrix(3)
        assert matrix[0, 1] == 1
        assert matrix[1, 0] == 1
        assert matrix.sum() == 2

    def test_from_pairs_rejects_negative(self):
        with pytest.raises(ValueError):
            TransitionCounts.from_pairs([((0, 1), -1)])

    def test_len_counts_distinct(self):
        counts = TransitionCounts.from_path([0, 1, 0, 1])
        assert len(counts) == 2


@settings(max_examples=30, deadline=None)
@given(states=st.lists(st.integers(0, 5), min_size=2, max_size=40))
def test_counts_total_matches_length(states):
    path = Path.from_states(states)
    counts = TransitionCounts.from_path(path)
    assert counts.total == len(path)
    assert sum(dict(counts.items()).values()) == len(path)
