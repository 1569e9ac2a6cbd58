"""Behaviour checks of trace sampling through the one simulation contract,
``KernelBackend(make_plan(...)).run_ensemble(n, rng)``: count
modes, log-probabilities, caps and futility cuts."""

import numpy as np
import pytest

from repro.core import DTMC
from repro.errors import EstimationError
from repro.properties import parse_property
from repro.smc import KernelBackend, engine, make_plan

from tests.conftest import aggregate_records, random_dtmc

def _run(chain, prop, n_samples, rng, **plan_options):
    """Simulate *n_samples* traces of *prop* on *chain*."""
    simulator = KernelBackend(make_plan(chain, parse_property(prop), **plan_options))
    return simulator.run_ensemble(n_samples, rng)


class TestCompiledChain:
    def test_step_distribution(self, small_chain, rng):
        """The compiled chain steps from state 0 to state 1 with probability 0.3."""
        chain = DTMC(small_chain.dense(), 0, labels={"mid": [1]})
        batch = _run(chain, 'F<=1 "mid"', 4000, rng)
        assert batch.decided.all()
        assert batch.n_satisfied / 4000 == pytest.approx(0.3, abs=0.035)


class TestTraceSampler:
    """Count modes, log-probabilities, caps and cuts of ``run_ensemble``."""

    def test_satisfied_trace_has_counts(self, small_chain, rng):
        batch = _run(small_chain, 'F "goal"', 50, rng)
        assert batch.n_satisfied > 0
        tables = aggregate_records(batch.step_records).tables()
        for k in np.flatnonzero(batch.satisfied):
            assert tables[k].total == batch.lengths[k]

    def test_unsatisfied_counts_dropped_by_default(self, small_chain, monkeypatch):
        """Dropping failed traces' records at every step leaves each
        satisfied trace's records as an unpruned run keeps them; the
        kernel drops failed records only in bulk, and consumers select
        traces."""
        full = _run(small_chain, 'F "goal"', 50, np.random.default_rng(3))
        monkeypatch.setattr(engine, "COMPACT_INTERVAL", 1)
        batch = _run(small_chain, 'F "goal"', 50, np.random.default_rng(3))
        failed = np.flatnonzero(~batch.satisfied)
        assert failed.size
        kept = aggregate_records(batch.step_records, kept=batch.satisfied)
        expected = aggregate_records(full.step_records, kept=batch.satisfied)
        for field in ("trace_ids", "sources", "targets", "counts"):
            np.testing.assert_array_equal(getattr(kept, field), getattr(expected, field))
        pruned = np.isin(batch.step_records.traces, failed).sum()
        assert pruned < np.isin(full.step_records.traces, failed).sum()

    def test_count_mode_none(self, small_chain, rng):
        batch = _run(small_chain, 'F "goal"', 50, rng, count_mode="none")
        assert batch.step_records is None
        assert batch.log_proposals is None

    def test_invalid_count_mode(self, small_chain):
        with pytest.raises(EstimationError):
            make_plan(small_chain, parse_property('F "goal"'), count_mode="some")

    def test_log_prob_matches_counts(self, small_chain, rng):
        batch = _run(small_chain, 'F "goal"', 50, rng, record_log_prob=True)
        tables = aggregate_records(batch.step_records, kept=batch.satisfied).tables()
        expected = [
            small_chain.counts_log_probability(table) for table in tables if table is not None
        ]
        np.testing.assert_allclose(
            batch.log_proposals[batch.satisfied], expected, rtol=0, atol=1e-12
        )

    def test_bounded_horizon_respected(self, small_chain, rng):
        batch = _run(small_chain, 'F<=5 "goal"', 300, rng)
        assert batch.lengths.max() <= 5
        assert batch.decided.all()

    def test_futility_cuts_absorbing_failures(self, small_chain, rng):
        """Traces absorbed at s3 are cut immediately instead of running to
        the step cap — the fix that makes unbounded F properties usable."""
        batch = _run(small_chain, 'F "goal"', 100, rng)
        assert batch.lengths.max() < 1000
        assert batch.decided.all()

    def test_futility_disabled_hits_cap(self, small_chain, rng):
        batch = _run(small_chain, 'F "goal"', 50, rng, futility=None, max_steps=50)
        undecided = ~batch.decided
        assert undecided.any(), "some trace should hit the cap with futility off"
        assert not batch.satisfied[undecided].any()
        np.testing.assert_array_equal(batch.lengths[undecided], 50)

    def test_batch_summary(self, small_chain, rng):
        batch = _run(small_chain, 'F "goal"', 200, rng)
        assert batch.n_samples == 200
        assert 0 < batch.n_satisfied < 200
        assert batch.mean_length > 0
        assert batch.total_length == int(batch.lengths.sum())
        assert batch.lengths.shape == batch.satisfied.shape == (200,)

    def test_initial_state_override(self, small_chain, rng):
        batch = _run(small_chain, 'F<=0 "goal"', 20, rng, initial_state=2)
        assert batch.satisfied.all()
        np.testing.assert_array_equal(batch.lengths, 0)

    def test_sparse_chain_sampling(self, small_chain):
        from scipy import sparse

        from repro.core import DTMC

        chain = DTMC(sparse.csr_matrix(small_chain.dense()), 0, small_chain.labels)
        batch = _run(chain, 'F "goal"', 100, np.random.default_rng(4))
        assert batch.n_satisfied > 0
        # Sparse and dense storage compile to the same rows, hence the
        # same traces on the same stream.
        dense = _run(small_chain, 'F "goal"', 100, np.random.default_rng(4))
        np.testing.assert_array_equal(batch.satisfied, dense.satisfied)
        np.testing.assert_array_equal(batch.lengths, dense.lengths)

    def test_satisfaction_rate_matches_exact(self, rng):
        from repro.analysis import probability

        chain = random_dtmc(rng, 5, sparsity=0.8).with_labels({"goal": [3]})
        exact = probability(chain, parse_property('F<=4 "goal"'))
        batch = _run(chain, 'F<=4 "goal"', 3000, rng, count_mode="none")
        assert batch.n_satisfied / 3000 == pytest.approx(exact, abs=0.04)
