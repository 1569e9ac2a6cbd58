"""HTTP-level tests of the estimation service: routes, error paths, SSE.

A real :class:`ThreadingHTTPServer` on an ephemeral localhost port backs
every test — the error paths under test (malformed bodies, 404s, 429
backpressure, SSE framing) live in the HTTP layer, so exercising the
handlers directly would prove nothing. Where ordering matters (queue-full,
in-flight dedup, drain) the executor is monkeypatched to block on an
event, making the scheduling deterministic.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.service.jobs as jobs_module
from repro.errors import EstimationError, QueueFullError, ServiceError
from repro.service import ServiceClient, ServiceConfig, create_server


@pytest.fixture()
def live_service(tmp_path):
    """A served EstimationService on an ephemeral port, drained afterwards."""
    server = create_server(
        ServiceConfig(port=0, store_root=tmp_path / "store", capacity=4, job_workers=1)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
    yield server, client
    server.service.stop(timeout=10)
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def blocked_executor(monkeypatch):
    """Make jobs block until released; returns the release event."""
    release = threading.Event()
    started = threading.Event()

    def _blocking_execute(job, registry=None, store_root=None):
        job.mark_running()
        started.set()
        release.wait(timeout=60)
        job.complete({"records": [], "csv": "", "summary": {}})

    monkeypatch.setattr(jobs_module, "execute_job", _blocking_execute)
    yield started, release
    release.set()


PAYLOAD = {"study": "illustrative", "estimator": "is", "repetitions": 2, "n_samples": 400}


def post_raw(client: ServiceClient, body: bytes) -> "tuple[int, dict]":
    request = urllib.request.Request(
        f"{client.base_url}/v1/jobs",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestBasicRoutes:
    def test_healthz(self, live_service):
        _, client = live_service
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue"]["capacity"] == 4
        assert "version" in health

    def test_studies_lists_registry(self, live_service):
        _, client = live_service
        names = [study["name"] for study in client.studies()["studies"]]
        assert "illustrative" in names
        assert "group-repair" in names

    def test_unknown_route_is_404(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("/v1/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_is_404(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-does-not-exist")
        assert excinfo.value.status == 404


class TestSubmissionErrorPaths:
    def test_malformed_json_body_is_400(self, live_service):
        _, client = live_service
        status, document = post_raw(client, b"{not json at all")
        assert status == 400
        assert "malformed JSON" in document["error"]

    def test_non_object_body_is_400(self, live_service):
        _, client = live_service
        status, document = post_raw(client, b"[1, 2, 3]")
        assert status == 400
        assert "JSON object" in document["error"]

    def test_unknown_study_is_400(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**PAYLOAD, "study": "no-such-study"})
        assert excinfo.value.status == 400
        assert "unknown study" in str(excinfo.value)

    def test_unknown_estimator_is_400(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**PAYLOAD, "estimator": "vibes"})
        assert excinfo.value.status == 400
        assert "unknown estimator" in str(excinfo.value)

    @pytest.mark.parametrize(
        "overrides",
        [{"estimator": "imcis", "search_rounds": 0}, {"n_samples": True}],
        ids=["imcis-search-rounds-0", "n-samples-true"],
    )
    def test_invalid_parameters_are_400(self, live_service, overrides):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**PAYLOAD, **overrides})
        assert excinfo.value.status == 400

    def test_queue_full_is_429(self, live_service, blocked_executor):
        _, client = live_service
        started, release = blocked_executor
        client.submit({**PAYLOAD, "seed": 1})
        assert started.wait(timeout=10), "first job never started"
        # Worker busy: fill the 4 queue slots, then overflow.
        for seed in range(2, 6):
            client.submit({**PAYLOAD, "seed": seed})
        with pytest.raises(QueueFullError) as excinfo:
            client.submit({**PAYLOAD, "seed": 99})
        assert excinfo.value.status == 429
        release.set()

    def test_identical_inflight_submissions_deduplicate(self, live_service, blocked_executor):
        _, client = live_service
        started, release = blocked_executor
        first = client.submit(PAYLOAD)
        assert started.wait(timeout=10)
        second = client.submit(PAYLOAD)
        assert second["id"] == first["id"]
        assert second["deduplicated"] is True
        assert first["deduplicated"] is False
        release.set()
        assert client.wait(first["id"], timeout=30)["state"] == "complete"
        assert len(client.jobs()) == 1


class TestStoreEndpoint:
    def test_store_document_matches_cli_ls_contract(self, live_service):
        """`GET /v1/store` serves the same describe() document (same field
        names) as `repro store ls --format json`."""
        _, client = live_service
        client.wait(client.submit(PAYLOAD)["id"], timeout=120)
        document = client._request("/v1/store")
        assert set(document) == {"root", "format", "runs", "records", "totals"}
        assert document["format"] == 2
        assert set(document["totals"]) == {"runs", "keys", "records", "bytes"}
        assert document["totals"]["records"] == 2
        record = document["records"][0]
        assert set(record) == {"key", "records", "bytes"}

    def test_storeless_service_is_404(self, tmp_path):
        server = create_server(ServiceConfig(port=0))
        try:
            with pytest.raises(ServiceError) as excinfo:
                server.service.store_summary()
            assert excinfo.value.status == 404
        finally:
            server.service.stop(timeout=10)
            server.server_close()


class TestJobExecution:
    def test_submit_wait_result(self, live_service):
        _, client = live_service
        submitted = client.submit(PAYLOAD)
        snapshot = client.wait(submitted["id"], timeout=120)
        assert snapshot["state"] == "complete"
        record = snapshot["result"]["records"][0]
        assert record["study"] == "illustrative"
        assert record["estimator"] == "is"
        assert record["repetitions"] == 2

    def test_failed_job_reports_error(self, live_service, monkeypatch):
        # A request that passes validation but raises at execution time:
        # the job must flip to failed with the reason, not kill the worker.
        def _failing_run_matrix(*args, **kwargs):
            raise EstimationError("simulated estimator failure")

        monkeypatch.setattr(jobs_module, "run_matrix", _failing_run_matrix)
        _, client = live_service
        submitted = client.submit(PAYLOAD)
        snapshot = client.wait(submitted["id"], timeout=120)
        assert snapshot["state"] == "failed"
        assert "simulated estimator failure" in snapshot["error"]
        monkeypatch.undo()
        retried = client.wait(client.submit({**PAYLOAD, "seed": 7})["id"], timeout=120)
        assert retried["state"] == "complete"

    def test_warm_resubmission_serves_from_store(self, live_service):
        _, client = live_service
        cold = client.wait(client.submit(PAYLOAD)["id"], timeout=120)
        warm = client.wait(client.submit(PAYLOAD)["id"], timeout=120)
        assert warm["result"]["summary"]["store"]["hits"] == 2
        assert warm["result"]["summary"]["store"]["misses"] == 0
        assert warm["result"]["csv"] == cold["result"]["csv"]
        assert warm["result"]["records"] == cold["result"]["records"]


class TestEventStream:
    def test_sse_replays_already_completed_job(self, live_service):
        _, client = live_service
        submitted = client.submit(PAYLOAD)
        client.wait(submitted["id"], timeout=120)
        events = list(client.events(submitted["id"], timeout=30))
        names = [event["event"] for event in events]
        assert names[0] == "queued"
        assert "running" in names
        assert names[-1] == "complete"
        progress = [e["data"]["event"] for e in events if e["event"] == "progress"]
        assert progress[0] == "cell-start"
        assert "repetition" in progress
        assert progress[-1] == "cell-done"

    def test_sse_follows_live_job(self, live_service, blocked_executor):
        _, client = live_service
        started, release = blocked_executor
        submitted = client.submit(PAYLOAD)
        assert started.wait(timeout=10)
        collected = []

        def consume():
            collected.extend(client.events(submitted["id"], timeout=30))

        consumer = threading.Thread(target=consume)
        consumer.start()
        release.set()
        consumer.join(timeout=30)
        assert not consumer.is_alive(), "SSE stream did not close on terminal job"
        assert [event["event"] for event in collected][-1] == "complete"

    def test_sse_for_unknown_job_is_404(self, live_service):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            list(client.events("job-unknown", timeout=10))
        assert excinfo.value.status == 404


class TestDrain:
    def test_stop_cancels_queued_jobs(self, live_service, blocked_executor):
        server, client = live_service
        started, release = blocked_executor
        running = client.submit({**PAYLOAD, "seed": 1})
        assert started.wait(timeout=10)
        queued = client.submit({**PAYLOAD, "seed": 2})
        stopper = threading.Thread(target=lambda: server.service.stop(timeout=1))
        stopper.start()
        stopper.join(timeout=10)
        assert client.job(queued["id"])["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**PAYLOAD, "seed": 3})
        assert excinfo.value.status == 503
        release.set()
        assert client.wait(running["id"], timeout=30)["state"] == "complete"
