"""Tests of the parallel experiment runner and its determinism contract.

The acceptance bar: ``run_coverage_experiment(..., workers=4)`` produces
bitwise-identical coverage numbers to ``workers=1`` under the same seed,
and ``run_table1`` statistics are likewise invariant to the worker count —
plus the interruption contract: an aborted fan-out cancels the queued
backlog and leaves no orphaned workers.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.experiments import run_coverage_experiment, run_table1, run_table2
from repro.experiments.runner import map_repetitions, resolve_workers
from repro.imcis import IMCISConfig, RandomSearchConfig, imcis_from_sample
from repro.importance import estimate_from_sample, run_importance_sampling
from repro.models import illustrative
from repro.util.rng import spawn_seeds


def _entropy_of(context, seed):
    """Module-level repetition function (workers import it by reference)."""
    return (context, int(np.random.default_rng(seed).integers(1 << 30)))


def _auto_workers_inside(context, seed):
    """Resolve 'auto' from inside a pool worker (anti-nesting clamp)."""
    return resolve_workers("auto")


class TestMapRepetitions:
    def test_inline_matches_pool(self):
        seeds = spawn_seeds(7, 6)
        inline = map_repetitions(_entropy_of, "ctx", seeds, workers=1)
        pooled = map_repetitions(_entropy_of, "ctx", seeds, workers=3, min_parallel=1)
        assert inline == pooled

    def test_results_in_seed_order(self):
        seeds = spawn_seeds(7, 5)
        results = map_repetitions(_entropy_of, "ctx", seeds, workers=2, min_parallel=1)
        expected = [_entropy_of("ctx", seed) for seed in seeds]
        assert results == expected

    def test_context_reaches_workers(self):
        seeds = spawn_seeds(0, 4)
        results = map_repetitions(_entropy_of, {"k": 1}, seeds, workers=2, min_parallel=1)
        assert all(ctx == {"k": 1} for ctx, _ in results)

    def test_small_jobs_run_inline(self):
        # Below min_parallel the pool must be skipped entirely; the seed
        # math is identical either way, so only behaviourally observable
        # via not paying pool latency — assert the results still match.
        seeds = spawn_seeds(3, 2)
        assert map_repetitions(_entropy_of, None, seeds, workers=8) == [
            _entropy_of(None, seed) for seed in seeds
        ]

    def test_empty_seed_list(self):
        assert map_repetitions(_entropy_of, None, [], workers=4) == []

    def test_auto_resolves_to_one_inside_workers(self):
        # Nested 'auto' must not oversubscribe: inside a pool worker it
        # resolves to a single process.
        seeds = spawn_seeds(0, 2)
        resolved = map_repetitions(_auto_workers_inside, None, seeds, workers=2, min_parallel=1)
        assert resolved == [1, 1]


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


def _fail_first_or_mark(context, seed):
    """Repetition 0 fails immediately; the others sleep, then leave a marker."""
    index = seed.spawn_key[-1]
    if index == 0:
        raise RuntimeError("repetition zero exploded")
    time.sleep(1.0)
    Path(context, f"done-{index}").touch()
    return index


class TestProgressCallback:
    def test_inline_progress_in_seed_order(self):
        seeds = spawn_seeds(7, 5)
        calls = []
        map_repetitions(_entropy_of, "ctx", seeds, progress=lambda d, t: calls.append((d, t)))
        assert calls == [(i, 5) for i in range(1, 6)]

    def test_pooled_progress_reaches_total(self):
        seeds = spawn_seeds(7, 4)
        calls = []
        map_repetitions(
            _entropy_of,
            "ctx",
            seeds,
            workers=2,
            min_parallel=1,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert calls == [(i, 4) for i in range(1, 5)]


class TestInterruption:
    def test_failure_cancels_queued_repetitions(self, tmp_path):
        # 8 repetitions on 2 workers: repetition 0 raises immediately, so
        # by the time its failure surfaces at most the in-flight sleepers
        # finish — the queued backlog must be cancelled, not drained.
        seeds = spawn_seeds(11, 8)
        with pytest.raises(RuntimeError, match="repetition zero"):
            map_repetitions(_fail_first_or_mark, str(tmp_path), seeds, workers=2, min_parallel=1)
        markers = list(tmp_path.glob("done-*"))
        assert len(markers) < 7, "queued repetitions ran to completion despite the failure"

    def test_sigint_drains_pool_promptly(self, tmp_path):
        # A SIGINT mid-fan-out must cancel the queued backlog and only
        # wait for in-flight repetitions: 8 x 2.5s sleeps on 2 workers
        # would otherwise drain for ~10s after the interrupt.
        script = """
import sys, time
from pathlib import Path
from repro.experiments.runner import map_repetitions
from repro.util.rng import spawn_seeds

def _sleeper(context, seed):
    Path(context, f"started-{seed.spawn_key[-1]}").touch()
    time.sleep(2.5)
    return 0

if __name__ == "__main__":
    try:
        map_repetitions(_sleeper, sys.argv[1], spawn_seeds(0, 8), workers=2, min_parallel=1)
    except KeyboardInterrupt:
        print("INTERRUPTED-CLEAN", flush=True)
        sys.exit(3)
"""
        script_path = tmp_path / "interruptee.py"
        script_path.write_text(script)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
        process = subprocess.Popen(
            [sys.executable, str(script_path), str(tmp_path)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not list(tmp_path.glob("started-*")):
                assert time.monotonic() < deadline, "pool never started"
                time.sleep(0.05)
            interrupted_at = time.monotonic()
            process.send_signal(signal.SIGINT)
            stdout, _ = process.communicate(timeout=15)
            drained_in = time.monotonic() - interrupted_at
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 3
        assert "INTERRUPTED-CLEAN" in stdout
        # In-flight sleepers (<= 2.5s) may finish; the ~10s backlog must not.
        assert drained_in < 8, f"drain took {drained_in:.1f}s — backlog was not cancelled"


@pytest.fixture(scope="module")
def study():
    return illustrative.make_study(n_samples=400)


@pytest.fixture(scope="module")
def search():
    return RandomSearchConfig(r_undefeated=40, record_history=False)


class TestCoverageParallelism:
    @staticmethod
    def _run(study, search, workers):
        return run_coverage_experiment(
            study, 4, rng=31, search=search, n_samples=400, workers=workers
        )

    def test_workers_1_vs_4_bitwise_identical(self, study, search):
        serial = self._run(study, search, 1)
        parallel = self._run(study, search, 4)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.is_result.estimate == b.is_result.estimate
            assert a.is_interval.low == b.is_interval.low
            assert a.is_interval.high == b.is_interval.high
            assert a.imcis_interval.low == b.imcis_interval.low
            assert a.imcis_interval.high == b.imcis_interval.high
        assert serial.is_coverage_of_center() == parallel.is_coverage_of_center()
        assert serial.is_coverage_of_true() == parallel.is_coverage_of_true()
        assert serial.imcis_coverage_of_center() == parallel.imcis_coverage_of_center()
        assert serial.imcis_coverage_of_true() == parallel.imcis_coverage_of_true()
        assert serial.mean_is_interval() == parallel.mean_is_interval()
        assert serial.mean_imcis_interval() == parallel.mean_imcis_interval()

    def test_matches_pre_parallel_serial_protocol(self, study, search):
        # The serial path must reproduce the original loop exactly: one
        # child generator per repetition, consumed by sampling then the
        # random search. Guard the seed plumbing against regressions.
        report = self._run(study, search, None)
        for seed, outcome in zip(spawn_seeds(31, 4), report.outcomes):
            child = np.random.default_rng(seed)
            sample = run_importance_sampling(
                study.proposal, study.formula, 400, child, original=study.center
            )
            is_result = estimate_from_sample(study.center, sample, study.confidence)
            imcis = imcis_from_sample(
                study.imc, sample, child, IMCISConfig(study.confidence, search)
            )
            assert outcome.is_result == is_result
            assert outcome.imcis_interval == imcis.interval


class TestTable1Parallelism:
    def test_workers_1_vs_4_identical(self):
        kwargs = dict(repetitions=4, n_samples=400, r_undefeated=40, rng=5)
        serial = run_table1(workers=1, **kwargs)
        parallel = run_table1(workers=4, **kwargs)
        assert serial.n_rounds == parallel.n_rounds
        assert serial.a_min == parallel.a_min
        assert serial.c_min == parallel.c_min
        assert serial.a_max == parallel.a_max
        assert serial.c_max == parallel.c_max
        assert serial.records == parallel.records

    def test_rows_align_sparse_records(self):
        from repro.experiments.table1 import Table1Result

        result = Table1Result()
        result.records = [
            {"n_rounds": 10.0, "a_min": 1.0, "c_min": 2.0, "a_max": 3.0, "c_max": 4.0},
            {"n_rounds": 20.0, "c_min": 5.0},  # a_min/a_max/c_max missing
        ]
        assert result.rows() == [[10, 1.0, 2.0, 3.0, 4.0], [20, "", 5.0, "", ""]]


class TestRunTable2:
    def test_matches_direct_coverage_run(self, study, search):
        reports = run_table2([study], 4, rng=31, search=search, n_samples=400)
        direct = run_coverage_experiment(study, 4, rng=31, search=search, n_samples=400)
        assert len(reports) == 1
        assert reports[0].mean_is_interval() == direct.mean_is_interval()
        assert reports[0].mean_imcis_interval() == direct.mean_imcis_interval()

    def test_search_param_keeps_study_confidence(self, study):
        report = run_table2(
            [study],
            4,
            rng=31,
            search=RandomSearchConfig(r_undefeated=40, record_history=False),
            n_samples=400,
        )[0]
        assert report.is_intervals[0].confidence == study.confidence
        assert report.imcis_intervals[0].confidence == study.confidence


class TestParallelBackendNeverNests:
    def test_parallel_backend_downgraded_per_repetition(self, study, search):
        # "parallel" is a removed selector: every repetition samples
        # in-process, resolving it like "auto" with a warning.
        auto = run_coverage_experiment(
            study, 4, rng=31, search=search, n_samples=400, backend="auto"
        )
        with pytest.warns(DeprecationWarning, match="parallel"):
            downgraded = run_coverage_experiment(
                study, 4, rng=31, search=search, n_samples=400, backend="parallel"
            )
        assert downgraded.mean_is_interval() == auto.mean_is_interval()
        assert downgraded.mean_imcis_interval() == auto.mean_imcis_interval()
