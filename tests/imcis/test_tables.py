"""Unit tests for observation tables."""

import numpy as np
import pytest

from repro.core import TransitionCounts
from repro.errors import EstimationError
from repro.imcis import ObservationTables
from repro.importance.estimator import ISSample

from tests.conftest import trace_counts


def make_sample() -> ISSample:
    c1 = TransitionCounts.from_path([0, 1, 2])
    c2 = TransitionCounts.from_path([0, 1, 0, 1, 2])
    return ISSample(
        n_total=10, count_arrays=trace_counts([c1, c2]), log_proposal=[-1.0, -2.0]
    )


class TestConstruction:
    def test_shapes(self):
        tables = ObservationTables.from_sample(make_sample())
        assert tables.n_successful == 2
        assert tables.n_total == 10
        assert tables.n_transitions == 3  # (0,1), (1,2), (1,0)

    def test_counts_content(self):
        tables = ObservationTables.from_sample(make_sample())
        col = tables.column_index()
        dense = tables.counts.toarray()
        assert dense[0, col[(0, 1)]] == 1
        assert dense[1, col[(0, 1)]] == 2
        assert dense[1, col[(1, 0)]] == 1

    def test_log_proposal_kept(self):
        tables = ObservationTables.from_sample(make_sample())
        assert list(tables.log_proposal) == [-1.0, -2.0]

    def test_empty_total_rejected(self):
        with pytest.raises(EstimationError):
            ObservationTables.from_sample(ISSample(n_total=0))

    def test_no_successes_allowed(self):
        tables = ObservationTables.from_sample(ISSample(n_total=5))
        assert tables.n_successful == 0
        assert tables.n_transitions == 0


class TestQueries:
    def test_visited_states(self):
        tables = ObservationTables.from_sample(make_sample())
        assert tables.visited_states() == [0, 1]

    def test_columns_by_state(self):
        tables = ObservationTables.from_sample(make_sample())
        grouped = tables.columns_by_state()
        assert set(grouped) == {0, 1}
        assert len(grouped[1]) == 2  # (1,2) and (1,0)

    def test_total_counts(self):
        tables = ObservationTables.from_sample(make_sample())
        col = tables.column_index()
        totals = tables.total_counts()
        assert totals[col[(0, 1)]] == 3
        assert totals[col[(1, 2)]] == 2

    def test_fused_only_sample_rejected(self):
        sample = ISSample(n_total=4, log_proposal=[0.0], log_numerator=np.zeros(1))
        with pytest.raises(EstimationError, match="keep_counts"):
            ObservationTables.from_sample(sample)
