"""Determinism and parity tests for the process-pool sharded backend.

The contract under test: ``ParallelBackend`` results are invariant to the
worker count (same seed ⇒ identical arrays and count tables for
``workers=1`` and ``workers=4``), and batches of at most one shard are
bitwise-identical to the inner backend driven by the caller's generator —
including the one-trace-batch exact-equality suite the kernel engine is
held to.
"""

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.properties import parse_property
from repro.smc import (
    KernelBackend,
    ParallelBackend,
    TraceSampler,
    bayes_factor_test,
    make_plan,
    resolve_backend,
    resolve_workers,
    sprt,
)
from repro.smc.engine import iter_verdicts
from repro.smc.parallel import shard_sizes

from tests.smc.test_engine import VECTOR_FORMULAS, _labelled_chain


def _tables(result):
    if result.count_arrays is None:
        return None
    return [None if t is None else dict(t.counts) for t in result.count_arrays.to_tables()]


def _assert_identical(a, b):
    np.testing.assert_array_equal(a.satisfied, b.satisfied)
    np.testing.assert_array_equal(a.decided, b.decided)
    np.testing.assert_array_equal(a.lengths, b.lengths)
    if a.log_proposals is None:
        assert b.log_proposals is None
    else:
        np.testing.assert_array_equal(a.log_proposals, b.log_proposals)
    assert _tables(a) == _tables(b)


class TestShardSizes:
    def test_exact_split(self):
        assert shard_sizes(8, 4) == [4, 4]

    def test_remainder_shard(self):
        assert shard_sizes(10, 4) == [4, 4, 2]

    def test_single_shard(self):
        assert shard_sizes(3, 4) == [3]

    def test_independent_of_workers(self):
        # The schedule is a function of (n, shard_size) only — there is no
        # workers argument to depend on.
        assert shard_sizes(100, 8) == shard_sizes(100, 8)

    def test_invalid(self):
        with pytest.raises(EstimationError):
            shard_sizes(0, 4)
        with pytest.raises(EstimationError):
            shard_sizes(10, 0)


class TestResolveWorkers:
    def test_auto_and_none(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(None) == resolve_workers("auto")

    def test_integers_and_strings(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4

    def test_rejects_invalid(self):
        with pytest.raises(EstimationError):
            resolve_workers(0)
        with pytest.raises(EstimationError):
            resolve_workers("many")


class TestConstruction:
    def test_resolve_backend_parallel(self, small_chain):
        plan = make_plan(small_chain, parse_property('F "goal"'))
        backend = resolve_backend("parallel", plan)
        assert isinstance(backend, ParallelBackend)
        assert backend.name == "parallel"
        backend.close()

    def test_sampler_backend_parallel(self, small_chain):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'), backend="parallel")
        assert sampler.backend_name == "parallel"

    def test_sampler_workers_wraps_parallel(self, small_chain):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'), workers=2)
        assert sampler.backend_name == "parallel"

    def test_inner_resolves_kernel(self, small_chain):
        plan = make_plan(small_chain, parse_property('F "goal"'))
        with ParallelBackend(plan, workers=1) as backend:
            assert backend.inner.name == "kernel"

    def test_inner_vectorized_forced(self, small_chain):
        # The removed selector still resolves: to the kernel, with a warning.
        plan = make_plan(small_chain, parse_property('F "goal"'))
        with pytest.warns(DeprecationWarning, match="vectorized"):
            backend = ParallelBackend(plan, workers=1, inner="vectorized")
        with backend:
            assert backend.inner.name == "kernel"

    def test_inner_falls_back_sequential(self, small_chain):
        formula = parse_property('(F<=3 "goal") | (F<=5 "fail")')
        plan = make_plan(small_chain, formula)
        with ParallelBackend(plan, workers=1) as backend:
            assert backend.inner.name == "sequential"

    def test_invalid_arguments(self, small_chain):
        plan = make_plan(small_chain, parse_property('F "goal"'))
        with pytest.raises(EstimationError):
            ParallelBackend(plan, shard_size=0)
        with pytest.raises(EstimationError):
            ParallelBackend(plan, workers=0)
        with pytest.raises(EstimationError):
            ParallelBackend(plan, inner="parallel")


class TestInProcessFallback:
    """Single-shard batches never touch the pool and match the inner
    backend bitwise with the caller's generator."""

    def test_bitwise_parity_below_threshold(self, small_chain):
        plan = make_plan(
            small_chain,
            parse_property('F "goal"'),
            count_mode="all",
            record_log_prob=True,
        )
        ker = KernelBackend(plan)
        with ParallelBackend(plan, workers=4, shard_size=128) as par:
            a = ker.run_ensemble(128, np.random.default_rng(17))
            b = par.run_ensemble(128, np.random.default_rng(17))
            _assert_identical(a, b)
            assert par._pool is None  # the pool was never spawned

    @pytest.mark.parametrize("prop", VECTOR_FORMULAS)
    def test_one_trace_batches_exact(self, prop, rng):
        chain = _labelled_chain(rng)
        formula = parse_property(prop)
        plan = make_plan(chain, formula, count_mode="all", record_log_prob=True, max_steps=50)
        inner = resolve_backend("auto", plan)
        with ParallelBackend(plan, workers=2) as par:
            rng_a = np.random.default_rng(99)
            rng_b = np.random.default_rng(99)
            for _ in range(60):
                a = inner.run_ensemble(1, rng_a)
                b = par.run_ensemble(1, rng_b)
                _assert_identical(a, b)


class TestDeterminism:
    """Sharded results are invariant to worker count and reproducible."""

    @pytest.fixture(scope="class")
    def plan(self):
        from tests.conftest import illustrative_matrix
        from repro.core import DTMC

        chain = DTMC(
            illustrative_matrix(0.3, 0.4),
            0,
            labels={"init": [0], "goal": [2], "fail": [3]},
        )
        return make_plan(
            chain,
            parse_property('F "goal"'),
            count_mode="satisfied",
            record_log_prob=True,
        )

    def _run(self, plan, workers, n=300, seed=9):
        with ParallelBackend(plan, workers=workers, shard_size=64) as backend:
            return backend.run_ensemble(n, np.random.default_rng(seed))

    def test_workers_1_vs_4_identical(self, plan):
        _assert_identical(self._run(plan, 1), self._run(plan, 4))

    def test_workers_2_vs_4_identical(self, plan):
        _assert_identical(self._run(plan, 2), self._run(plan, 4))

    def test_same_seed_reproducible(self, plan):
        _assert_identical(self._run(plan, 2), self._run(plan, 2))

    def test_shard_count_and_merge(self, plan):
        result = self._run(plan, 2, n=300)
        assert result.n_samples == 300
        assert result.lengths.shape == (300,)
        assert result.count_arrays is not None
        tables = result.count_arrays.to_tables()
        assert len(tables) == 300
        # satisfied traces carry tables, failed ones do not
        for k in range(300):
            assert (tables[k] is not None) == bool(result.satisfied[k])

    def test_sequential_calls_draw_fresh_seeds(self, plan):
        with ParallelBackend(plan, workers=2, shard_size=64) as backend:
            rng = np.random.default_rng(5)
            first = backend.run_ensemble(200, rng)
            second = backend.run_ensemble(200, rng)
            assert not (
                np.array_equal(first.satisfied, second.satisfied)
                and np.array_equal(first.lengths, second.lengths)
            )

    def test_statistics_agree_with_vectorized(self, plan):
        # Against the unsharded lockstep engine (the kernel backend, which
        # realises what the removed vectorized backend did).
        reference = KernelBackend(plan).run_ensemble(4000, np.random.default_rng(1))
        sharded = self._run(plan, 2, n=4000, seed=1)
        # Different stream layout, same distribution.
        p_ref = reference.n_satisfied / reference.n_samples
        p_par = sharded.n_satisfied / sharded.n_samples
        assert p_par == pytest.approx(p_ref, abs=0.05)


class TestSequentialTestBatching:
    """SPRT and the Bayes-factor test draw full chunks under ``parallel``.

    Only a bare sequential backend collapses the chunk size to one trace
    per ensemble; a parallel backend batches like its in-process engine.
    """

    @pytest.fixture
    def ensembles(self, monkeypatch):
        calls = []
        run = ParallelBackend.run_ensemble

        def counting(backend, n_samples, rng):
            calls.append(n_samples)
            return run(backend, n_samples, rng)

        monkeypatch.setattr(ParallelBackend, "run_ensemble", counting)
        return calls

    def test_sprt_batches_under_parallel(self, small_chain, ensembles):
        result = sprt(
            small_chain,
            parse_property('F "goal"'),
            threshold=0.5,
            indifference=0.05,
            rng=3,
            backend="parallel",
            chunk_size=8,
        )
        assert result.n_samples > 8
        assert len(ensembles) == math.ceil(result.n_samples / 8)
        assert all(n == 8 for n in ensembles)

    def test_bayes_factor_batches_under_parallel(self, small_chain, ensembles):
        _decision, used = bayes_factor_test(
            small_chain,
            parse_property('F "goal"'),
            threshold=0.5,
            rng=3,
            backend="parallel",
            chunk_size=8,
        )
        assert used > 8
        assert len(ensembles) == math.ceil(used / 8)

    def test_sequential_backend_still_draws_one_trace(self, small_chain):
        sampler = TraceSampler(small_chain, parse_property('F "goal"'), backend="sequential")
        calls = []
        run = sampler.sample_ensemble
        sampler.sample_ensemble = lambda n, rng: calls.append(n) or run(n, rng)
        verdicts = iter_verdicts(sampler, 10, np.random.default_rng(0), chunk_size=64)
        assert len(list(verdicts)) == 10
        assert calls == [1] * 10


class TestLifecycle:
    def test_close_idempotent(self, small_chain):
        plan = make_plan(small_chain, parse_property('F "goal"'))
        backend = ParallelBackend(plan, workers=2, shard_size=16)
        backend.run_ensemble(64, np.random.default_rng(0))  # spawns the pool
        assert backend._pool is not None
        backend.close()
        assert backend._pool is None
        backend.close()

    def test_close_cancels_pending_shards(self, small_chain):
        # The graceful-interrupt path: cancel_futures drops queued shards
        # and the pool shuts down cleanly; a later batch respawns it and
        # produces the same results as an undisturbed backend.
        plan = make_plan(small_chain, parse_property('F "goal"'))
        backend = ParallelBackend(plan, workers=2, shard_size=16)
        backend.run_ensemble(64, np.random.default_rng(0))
        backend.close(cancel_futures=True)
        assert backend._pool is None
        resumed = backend.run_ensemble(64, np.random.default_rng(0))
        fresh = ParallelBackend(plan, workers=2, shard_size=16)
        _assert_identical(resumed, fresh.run_ensemble(64, np.random.default_rng(0)))
        backend.close()
        fresh.close()

    def test_pool_reused_across_batches(self, small_chain):
        plan = make_plan(small_chain, parse_property('F "goal"'))
        with ParallelBackend(plan, workers=2, shard_size=16) as backend:
            backend.run_ensemble(64, np.random.default_rng(0))
            pool = backend._pool
            backend.run_ensemble(64, np.random.default_rng(1))
            assert backend._pool is pool
