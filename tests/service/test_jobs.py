"""Unit tests of the job model and the bounded, deduplicating queue."""

import threading
import time

import pytest

import repro.service.jobs as jobs_module
from repro.errors import QueueFullError, ServiceError
from repro.service.jobs import Job, JobQueue, JobRequest, JobState, execute_job


def request(**overrides) -> JobRequest:
    payload = {
        "study": "illustrative",
        "estimator": "is",
        "repetitions": 2,
        "n_samples": 400,
        "seed": 9,
    }
    payload.update(overrides)
    return JobRequest.from_payload(payload)


class TestJobRequest:
    def test_round_trips_through_payload(self):
        original = request(search_rounds=50)
        assert JobRequest.from_payload(original.to_payload()) == original

    def test_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown request field"):
            JobRequest.from_payload({"study": "illustrative", "estimator": "is", "nope": 1})

    def test_rejects_missing_required_fields(self):
        with pytest.raises(ServiceError, match="misses required"):
            JobRequest.from_payload({"study": "illustrative"})

    def test_rejects_unknown_study(self):
        with pytest.raises(ServiceError, match="unknown study"):
            JobRequest.from_payload({"study": "no-such-study", "estimator": "is"})

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ServiceError, match="unknown estimator"):
            JobRequest.from_payload({"study": "illustrative", "estimator": "vibes"})

    def test_rejects_non_positive_repetitions(self):
        with pytest.raises(ServiceError, match="repetitions"):
            request(repetitions=0)

    def test_rejects_bad_n_samples(self):
        with pytest.raises(ServiceError, match="n_samples"):
            request(n_samples=-5)

    def test_rejects_boolean_n_samples(self):
        # bool is an int subclass: True must not pass as one trace.
        for bad in (True, False):
            with pytest.raises(ServiceError, match="n_samples"):
                request(n_samples=bad)

    def test_rejects_out_of_range_imcis_search_rounds(self):
        # Rejected at submission, not as an OptimizationError inside the job.
        for bad in (0, -3, 100_001):
            with pytest.raises(ServiceError, match="search_rounds"):
                request(estimator="imcis", search_rounds=bad)
        assert request(estimator="imcis", search_rounds=100_000).search_rounds == 100_000

    def test_non_imcis_requests_ignore_search_rounds(self):
        for estimator in ("is", "ce", "mc"):
            assert request(estimator=estimator, search_rounds=0).search_rounds == 0

    def test_rejects_out_of_range_confidence(self):
        for bad in (2.0, 0.0, 1.0, "high", True):
            with pytest.raises(ServiceError, match="confidence"):
                request(confidence=bad)

    def test_rejects_non_boolean_quick(self):
        with pytest.raises(ServiceError, match="quick"):
            request(quick="yes")

    def test_rejects_bad_workers(self):
        for bad in (0, -2, "many", True):
            with pytest.raises(ServiceError, match="workers"):
                request(workers=bad)
        assert request(workers="auto").workers == "auto"
        assert request(workers=4).workers == 4

    def test_fingerprint_ignores_workers(self):
        assert request(workers=None).fingerprint() == request(workers=4).fingerprint()

    def test_fingerprint_distinguishes_seeds(self):
        assert request(seed=1).fingerprint() != request(seed=2).fingerprint()

    def test_matrix_config_is_single_cell(self):
        config = request().to_matrix_config()
        assert config.studies == ("illustrative",)
        assert config.estimators == ("is",)
        assert config.repetitions == 2


class TestJobLifecycle:
    def test_snapshot_of_fresh_job(self):
        job = Job("job-1", request())
        snapshot = job.snapshot()
        assert snapshot["state"] == JobState.QUEUED
        assert snapshot["request"]["study"] == "illustrative"
        assert "result" not in snapshot

    def test_events_since_returns_history_of_terminal_job(self):
        job = Job("job-1", request())
        job.mark_running()
        job.record_progress({"event": "repetition", "done": 1, "total": 2})
        job.fail("boom")
        events = job.events_since(0, timeout=0.1)
        assert [e.event for e in events] == ["queued", "running", "progress", "failed"]
        # Fully consumed terminal log: no blocking, empty tail.
        assert job.events_since(len(events), timeout=10.0) == []

    def test_wait_times_out_on_queued_job(self):
        assert Job("job-1", request()).wait(timeout=0.05) is False


class TestExecuteJob:
    def test_complete_job_carries_records_and_csv(self, tmp_path):
        job = Job("job-1", request())
        execute_job(job, store_root=tmp_path / "store")
        assert job.state == JobState.COMPLETE
        result = job.result
        assert result is not None
        assert len(result["records"]) == 1
        assert result["records"][0]["study"] == "illustrative"
        assert result["csv"].startswith("study,estimator")
        assert result["summary"]["store"] == {"hits": 0, "misses": 2}

    def test_rerun_is_served_warm_and_identical(self, tmp_path):
        cold, warm = Job("job-1", request()), Job("job-2", request())
        execute_job(cold, store_root=tmp_path / "store")
        execute_job(warm, store_root=tmp_path / "store")
        assert warm.result["summary"]["store"] == {"hits": 2, "misses": 0}
        assert warm.result["csv"] == cold.result["csv"]
        assert warm.result["records"] == cold.result["records"]

    def test_progress_events_recorded(self):
        job = Job("job-1", request())
        execute_job(job)
        kinds = [e.data.get("event") for e in job.events_since(0) if e.event == "progress"]
        assert kinds[0] == "cell-start"
        assert kinds[-1] == "cell-done"
        assert kinds.count("repetition") == 2


class TestJobQueue:
    def test_submission_beyond_capacity_raises(self):
        queue = JobQueue(capacity=2, autostart=False)
        queue.submit(request(seed=1))
        queue.submit(request(seed=2))
        with pytest.raises(QueueFullError, match="full"):
            queue.submit(request(seed=3))

    def test_identical_submissions_coalesce_onto_one_job(self):
        queue = JobQueue(capacity=4, autostart=False)
        first, deduplicated_first = queue.submit(request())
        second, deduplicated_second = queue.submit(request())
        assert deduplicated_first is False
        assert deduplicated_second is True
        assert first is second
        assert len(queue.jobs()) == 1

    def test_concurrent_identical_submissions_share_one_store_key(self, tmp_path):
        store_root = tmp_path / "store"
        queue = JobQueue(capacity=8, store_root=store_root, autostart=False)
        jobs, errors = [], []

        def submit():
            try:
                jobs.append(queue.submit(request())[0])
            except ServiceError as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len({job.id for job in jobs}) == 1
        queue.start()
        assert jobs[0].wait(timeout=60)
        assert jobs[0].state == JobState.COMPLETE
        from repro.store import ArtifactStore

        keys = list(ArtifactStore.open(store_root).iter_keys())
        assert len(keys) == 1, "identical submissions must share one store key"
        queue.stop(timeout=10)

    def test_get_unknown_job_is_404(self):
        queue = JobQueue(autostart=False)
        with pytest.raises(ServiceError) as excinfo:
            queue.get("job-nope")
        assert excinfo.value.status == 404

    def test_stop_cancels_queued_jobs_and_rejects_new_ones(self):
        queue = JobQueue(capacity=4, autostart=False)
        job, _ = queue.submit(request())
        queue.stop(timeout=1)
        assert job.state == JobState.CANCELLED
        with pytest.raises(ServiceError) as excinfo:
            queue.submit(request(seed=99))
        assert excinfo.value.status == 503

    def test_counts_by_state(self):
        queue = JobQueue(capacity=4, autostart=False)
        queue.submit(request(seed=1))
        queue.submit(request(seed=2))
        assert queue.counts() == {JobState.QUEUED: 2}

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ServiceError):
            JobQueue(capacity=0)
        with pytest.raises(ServiceError):
            JobQueue(job_workers=0)
        with pytest.raises(ServiceError):
            JobQueue(history=0)

    def test_history_evicts_oldest_terminal_jobs(self):
        queue = JobQueue(capacity=8, history=2)
        jobs = [queue.submit(request(seed=seed))[0] for seed in (1, 2, 3)]
        for job in jobs:
            assert job.wait(timeout=60)
        deadline = time.monotonic() + 10
        while len(queue.jobs()) > 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = {job.id for job in queue.jobs()}
        assert len(survivors) == 2
        assert jobs[0].id not in survivors, "the oldest terminal job must be evicted"
        with pytest.raises(ServiceError) as excinfo:
            queue.get(jobs[0].id)
        assert excinfo.value.status == 404
        queue.stop(timeout=10)

    def test_results_stay_retrievable_after_1000_later_jobs(self, monkeypatch):
        def _instant_execute(job, registry=None, store_root=None):
            job.mark_running()
            job.complete({"records": [], "csv": f"seed {job.request.seed}", "summary": {}})

        monkeypatch.setattr(jobs_module, "execute_job", _instant_execute)
        queue = JobQueue()
        first, _ = queue.submit(request(seed=0))
        assert first.wait(timeout=60)
        for seed in range(1, 1001):
            job, _ = queue.submit(request(seed=seed))
            assert job.wait(timeout=60)
        assert queue.get(first.id).result["csv"] == "seed 0"
        assert len(queue.jobs()) == 1001
        queue.stop(timeout=10)

    def test_stop_timeout_bounds_drain_with_stuck_worker(self, monkeypatch):
        release = threading.Event()
        started = threading.Event()

        def _stuck_execute(job, registry=None, store_root=None):
            job.mark_running()
            started.set()
            release.wait(timeout=60)
            job.complete({"records": [], "csv": "", "summary": {}})

        monkeypatch.setattr(jobs_module, "execute_job", _stuck_execute)
        queue = JobQueue(capacity=1, job_workers=2)
        job, _ = queue.submit(request())
        assert started.wait(timeout=10)
        begun = time.monotonic()
        queue.stop(timeout=0.5)
        assert time.monotonic() - begun < 5, "stop() must respect its timeout"
        release.set()
        assert job.wait(timeout=30)
