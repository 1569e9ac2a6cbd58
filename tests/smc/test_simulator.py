"""Unit tests for the trace sampling engine."""

import pytest

from repro.errors import EstimationError
from repro.properties import parse_property
from repro.smc import CompiledChain, TraceSampler

from tests.conftest import random_dtmc


class TestCompiledChain:
    def test_step_distribution(self, small_chain, rng):
        compiled = CompiledChain(small_chain)
        hits = sum(compiled.step(0, rng)[0] == 1 for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.3, abs=0.035)

    def test_log_prob_reported(self, small_chain, rng):
        compiled = CompiledChain(small_chain)
        state, log_p = compiled.step(2, rng)
        assert state == 2
        assert log_p == pytest.approx(0.0)

    def test_rows_cached(self, small_chain):
        compiled = CompiledChain(small_chain)
        assert compiled.row(1) is compiled.row(1)


class TestTraceSampler:
    def test_satisfied_trace_has_counts(self, small_chain, rng):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'))
        for _ in range(50):
            record = sampler.sample(rng)
            if record.satisfied:
                assert record.counts is not None
                assert record.counts.total == record.length
                return
        pytest.fail("no satisfied trace in 50 samples")

    def test_unsatisfied_counts_dropped_by_default(self, small_chain, rng):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'))
        for _ in range(50):
            record = sampler.sample(rng)
            if not record.satisfied:
                assert record.counts is None
                return
        pytest.fail("no failing trace in 50 samples")

    def test_count_mode_all(self, small_chain, rng):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'), count_mode="all")
        record = sampler.sample(rng)
        assert record.counts is not None

    def test_count_mode_none(self, small_chain, rng):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'), count_mode="none")
        record = sampler.sample(rng)
        assert record.counts is None

    def test_invalid_count_mode(self, small_chain):
        with pytest.raises(EstimationError):
            TraceSampler(small_chain, parse_property('F "goal"'), count_mode="some")

    def test_log_prob_matches_counts(self, small_chain, rng):
        sampler = TraceSampler(
            small_chain,
            parse_property('F "goal"'),
            count_mode="all",
            record_log_prob=True,
        )
        record = sampler.sample(rng)
        assert record.log_proposal == pytest.approx(
            small_chain.counts_log_probability(record.counts)
        )

    def test_bounded_horizon_respected(self, small_chain, rng):
        sampler = TraceSampler(small_chain, parse_property('F<=5 "goal"'))
        for _ in range(30):
            record = sampler.sample(rng)
            assert record.length <= 5
            assert record.decided

    def test_futility_cuts_absorbing_failures(self, small_chain, rng):
        """Traces absorbed at s3 are cut immediately instead of running to
        the step cap — the fix that makes unbounded F properties usable."""
        sampler = TraceSampler(small_chain, parse_property('F "goal"'))
        lengths = [sampler.sample(rng).length for _ in range(100)]
        assert max(lengths) < 1000

    def test_futility_disabled_hits_cap(self, small_chain, rng):
        sampler = TraceSampler(
            small_chain, parse_property('F "goal"'), futility=None, max_steps=50
        )
        records = [sampler.sample(rng) for _ in range(50)]
        undecided = [r for r in records if not r.decided]
        assert undecided, "some trace should hit the cap with futility off"
        assert all(not r.satisfied for r in undecided)

    def test_batch_summary(self, small_chain, rng):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'))
        summary = sampler.sample_batch(200, rng)
        assert summary.n_samples == 200
        assert 0 < summary.n_satisfied < 200
        assert summary.mean_length > 0
        assert len(summary.records) == 200

    def test_initial_state_override(self, small_chain, rng):
        sampler = TraceSampler(
            small_chain, parse_property('F<=0 "goal"'), initial_state=2
        )
        assert sampler.sample(rng).satisfied

    def test_sparse_chain_sampling(self, small_chain, rng):
        from scipy import sparse

        from repro.core import DTMC

        chain = DTMC(sparse.csr_matrix(small_chain.dense()), 0, small_chain.labels)
        sampler = TraceSampler(chain, parse_property('F "goal"'))
        summary = sampler.sample_batch(100, rng)
        assert summary.n_satisfied > 0

    def test_satisfaction_rate_matches_exact(self, rng):
        from repro.analysis import probability

        chain = random_dtmc(rng, 5, sparsity=0.8).with_labels({"goal": [3]})
        formula = parse_property('F<=4 "goal"')
        exact = probability(chain, formula)
        summary = TraceSampler(chain, formula, count_mode="none").sample_batch(3000, rng)
        assert summary.n_satisfied / 3000 == pytest.approx(exact, abs=0.04)
