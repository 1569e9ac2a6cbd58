"""Behaviour checks of trace sampling, on every simulation backend.

Each check runs the one simulation contract,
``resolve_backend(backend, make_plan(...)).run_ensemble(n, rng)``, once per
backend in :data:`BACKENDS`, so the lockstep kernel and the sequential
reference are held to the same observable behaviour.
"""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.properties import parse_property
from repro.smc import CompiledChain, make_plan, resolve_backend

from tests.conftest import aggregate_records, random_dtmc

BACKENDS = ("sequential", "kernel")


def _run(chain, prop, n_samples, rng, backend, **plan_options):
    """Simulate *n_samples* traces of *prop* on *chain* with *backend*."""
    simulator = resolve_backend(backend, make_plan(chain, parse_property(prop), **plan_options))
    assert simulator.name == backend
    return simulator.run_ensemble(n_samples, rng)


class TestCompiledChain:
    def test_step_distribution(self, small_chain, rng):
        compiled = CompiledChain(small_chain)
        hits = 0
        for _ in range(4000):
            row, pos = compiled.draw(0, rng)
            hits += int(row.indices[pos]) == 1
        assert hits / 4000 == pytest.approx(0.3, abs=0.035)

    def test_log_prob_reported(self, small_chain, rng):
        compiled = CompiledChain(small_chain)
        row, pos = compiled.draw(2, rng)
        assert int(row.indices[pos]) == 2
        assert float(row.log_probs[pos]) == pytest.approx(0.0)

    def test_rows_cached(self, small_chain):
        compiled = CompiledChain(small_chain)
        assert compiled.row(1) is compiled.row(1)


class TestTraceSampler:
    """Count modes, log-probabilities, caps and cuts of ``run_ensemble``."""

    def test_satisfied_trace_has_counts(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(small_chain, 'F "goal"', 50, rng, backend)
            assert batch.n_satisfied > 0, backend
            tables = aggregate_records(batch.step_records).tables()
            for k in np.flatnonzero(batch.satisfied):
                assert tables[k].total == batch.lengths[k], backend

    def test_unsatisfied_counts_dropped_by_default(self, small_chain):
        """The default mode records each satisfied trace as ``"all"``
        does; the sequential backend keeps no failed trace's records (the
        kernel drops them only in bulk, and consumers select traces)."""
        for backend in BACKENDS:
            batch = _run(small_chain, 'F "goal"', 50, np.random.default_rng(3), backend)
            full = _run(
                small_chain, 'F "goal"', 50, np.random.default_rng(3), backend,
                count_mode="all",
            )
            failed = np.flatnonzero(~batch.satisfied)
            assert failed.size, backend
            kept = aggregate_records(batch.step_records, kept=batch.satisfied)
            expected = aggregate_records(full.step_records, kept=batch.satisfied)
            for field in ("trace_ids", "sources", "targets", "counts"):
                np.testing.assert_array_equal(
                    getattr(kept, field), getattr(expected, field), err_msg=backend
                )
            if backend == "sequential":
                assert not np.isin(batch.step_records.traces, failed).any()

    def test_count_mode_all(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(small_chain, 'F "goal"', 50, rng, backend, count_mode="all")
            totals = [table.total for table in aggregate_records(batch.step_records).tables()]
            np.testing.assert_array_equal(totals, batch.lengths)

    def test_count_mode_none(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(small_chain, 'F "goal"', 50, rng, backend, count_mode="none")
            assert batch.step_records is None, backend
            assert batch.log_proposals is None, backend

    def test_invalid_count_mode(self, small_chain):
        with pytest.raises(EstimationError):
            make_plan(small_chain, parse_property('F "goal"'), count_mode="some")

    def test_log_prob_matches_counts(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(
                small_chain, 'F "goal"', 50, rng, backend,
                count_mode="all", record_log_prob=True,
            )
            expected = [
                small_chain.counts_log_probability(table)
                for table in aggregate_records(batch.step_records).tables()
            ]
            np.testing.assert_allclose(batch.log_proposals, expected, rtol=0, atol=1e-12)

    def test_bounded_horizon_respected(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(small_chain, 'F<=5 "goal"', 300, rng, backend)
            assert batch.lengths.max() <= 5, backend
            assert batch.decided.all(), backend

    def test_futility_cuts_absorbing_failures(self, small_chain, rng):
        """Traces absorbed at s3 are cut immediately instead of running to
        the step cap — the fix that makes unbounded F properties usable."""
        for backend in BACKENDS:
            batch = _run(small_chain, 'F "goal"', 100, rng, backend)
            assert batch.lengths.max() < 1000, backend
            assert batch.decided.all(), backend

    def test_futility_disabled_hits_cap(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(
                small_chain, 'F "goal"', 50, rng, backend, futility=None, max_steps=50
            )
            undecided = ~batch.decided
            assert undecided.any(), "some trace should hit the cap with futility off"
            assert not batch.satisfied[undecided].any(), backend
            np.testing.assert_array_equal(batch.lengths[undecided], 50)

    def test_batch_summary(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(small_chain, 'F "goal"', 200, rng, backend)
            assert batch.n_samples == 200
            assert 0 < batch.n_satisfied < 200, backend
            assert batch.mean_length > 0
            assert batch.total_length == int(batch.lengths.sum())
            assert batch.lengths.shape == batch.satisfied.shape == (200,)

    def test_initial_state_override(self, small_chain, rng):
        for backend in BACKENDS:
            batch = _run(small_chain, 'F<=0 "goal"', 20, rng, backend, initial_state=2)
            assert batch.satisfied.all(), backend
            np.testing.assert_array_equal(batch.lengths, 0)

    def test_sparse_chain_sampling(self, small_chain):
        from scipy import sparse

        from repro.core import DTMC

        chain = DTMC(sparse.csr_matrix(small_chain.dense()), 0, small_chain.labels)
        for backend in BACKENDS:
            batch = _run(chain, 'F "goal"', 100, np.random.default_rng(4), backend)
            assert batch.n_satisfied > 0, backend
            # Sparse and dense storage compile to the same rows, hence the
            # same traces on the same stream.
            dense = _run(small_chain, 'F "goal"', 100, np.random.default_rng(4), backend)
            np.testing.assert_array_equal(batch.satisfied, dense.satisfied)
            np.testing.assert_array_equal(batch.lengths, dense.lengths)

    def test_satisfaction_rate_matches_exact(self, rng):
        from repro.analysis import probability

        chain = random_dtmc(rng, 5, sparsity=0.8).with_labels({"goal": [3]})
        exact = probability(chain, parse_property('F<=4 "goal"'))
        for backend in BACKENDS:
            batch = _run(chain, 'F<=4 "goal"', 3000, rng, backend, count_mode="none")
            assert batch.n_satisfied / 3000 == pytest.approx(exact, abs=0.04), backend
