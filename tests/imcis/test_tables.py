"""Unit tests for observation tables."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import TransitionCounts
from repro.errors import EstimationError
from repro.imcis import ObservationTables
from repro.importance import run_importance_sampling
from repro.importance.estimator import ISSample
from repro.models.registry import REGISTRY

from tests.conftest import aggregate_records, trace_counts
from tests.smc.oracle import oracle_sample


def make_sample() -> ISSample:
    c1 = TransitionCounts.from_path([0, 1, 2])
    c2 = TransitionCounts.from_path([0, 1, 0, 1, 2])
    return ISSample(
        n_total=10, step_records=trace_counts([c1, c2]), trace_ids=np.arange(2),
        log_proposal=[-1.0, -2.0],
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


def oracle_tables(sample: ISSample) -> "tuple[tuple, sparse.csr_matrix]":
    """Transitions and count matrix built by sorting and run-length
    encoding the successful traces' records first, then numbering columns
    by first occurrence over the sorted ``(trace, key)`` entries."""
    counts = aggregate_records(sample.step_records, sample.trace_ids)
    keys = counts.sources * counts.n_states + counts.targets
    uniq, first = np.unique(keys, return_index=True)
    order = np.argsort(first, kind="stable")
    col_of = np.empty(uniq.size, dtype=np.int64)
    col_of[order] = np.arange(uniq.size)
    matrix = sparse.csr_matrix(
        (counts.counts.astype(float), (counts.trace_ids, col_of[np.searchsorted(uniq, keys)])),
        shape=(counts.n_traces, uniq.size),
        dtype=float,
    )
    sources, targets = np.divmod(uniq[order], counts.n_states)
    return tuple(zip(sources.tolist(), targets.tolist())), matrix


def assert_tables_match_oracle(sample: ISSample) -> ObservationTables:
    tables = ObservationTables.from_sample(sample)
    transitions, matrix = oracle_tables(sample)
    assert tables.transitions == transitions
    assert tables.counts.shape == matrix.shape
    for field in ("indptr", "indices", "data"):
        got, want = getattr(tables.counts, field), getattr(matrix, field)
        assert got.tobytes() == want.tobytes(), field
    return tables


class TestFromStepRecords:
    """``from_sample`` reads the step records straight into the tables the
    sort-then-number oracle builds, bitwise."""

    @pytest.mark.parametrize("name", REGISTRY.quick_studies())
    def test_quick_study_equals_oracle(self, name):
        study = REGISTRY.make_study(name, rng=2018, quick=True)
        sample = run_importance_sampling(study.proposal, study.formula, 500, rng=1)
        assert sample.n_satisfied > 0
        tables = assert_tables_match_oracle(sample)
        assert tables.n_successful == sample.n_satisfied

    def test_failed_traces_records_are_dropped(self):
        """The lockstep loop keeps some failed traces' records (it prunes
        them only in bulk); none reaches the tables."""
        study = REGISTRY.make_study("group-repair", rng=2018, quick=True)
        sample = run_importance_sampling(study.proposal, study.formula, 1000, rng=1)
        records = sample.step_records
        assert not np.isin(records.traces, sample.trace_ids).all()
        assert_tables_match_oracle(sample)

    def test_sequential_batch_equals_oracle(self):
        """A scalar-walk batch keys its records by its own distinct keys,
        not the kernel's CSR entry table."""
        study = REGISTRY.make_study("tandem-repair", rng=2018, quick=True)
        sample = oracle_sample(study.proposal, study.formula, 300, rng=2)
        assert sample.n_satisfied > 0
        assert_tables_match_oracle(sample)

    def test_projected_collisions_merge(self):
        """swat's unrolled records project ``t·n + s → s``: one trace takes
        the same original transition through several unrolled entries,
        and the tables count them in one column."""
        study = REGISTRY.make_study("swat", rng=2018, quick=True)
        sample = run_importance_sampling(study.proposal, study.formula, 500, rng=3)
        records = sample.step_records
        mine = np.isin(records.traces, sample.trace_ids)
        traces, positions = records.traces[mine], records.positions[mine]
        keys = records.entry_keys[positions]
        by_position = np.unique(np.stack([traces, positions]), axis=1).shape[1]
        by_key = np.unique(np.stack([traces, keys]), axis=1).shape[1]
        assert by_key < by_position
        assert_tables_match_oracle(sample)
