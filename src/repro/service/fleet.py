"""The fleet layer: durable jobs, leased pull workers, stateless fronts.

The single-process service (:mod:`repro.service.jobs`) keeps its queue in
memory — fine for one box, useless for a fleet. This module moves the
whole job lifecycle into the artifact store so any number of processes
can cooperate through the filesystem alone:

* **durable job documents** — one checksummed JSON document per job
  under ``<store>/fleet/jobs/``, plus an append-only event log the SSE
  endpoint replays and follows; submitting is writing a document,
  reading status is reading one, so front-end replicas hold no state;
* **a durable queue** — one marker file per pending job under
  ``<store>/fleet/queue/``; workers discover work by listing it;
* **leases** (:mod:`repro.store.leases`) — a worker claims a job's lease
  before executing, heartbeats it while running, and commits the result
  under a fencing check. A SIGKILLed worker simply stops heartbeating:
  its lease expires, another worker re-claims the job (fencing token
  bumped), and the stale attempt — should its process somehow return —
  is rejected at commit time.

Job ids are content addresses (``job-<request fingerprint>``), so
identical submissions — concurrent or days apart, through any replica —
coalesce onto one document, and a resubmission of a completed request is
served warm straight from its document: the fleet's dedup and warm-query
behaviour fall out of the addressing scheme instead of shared memory.

Execution rides :func:`repro.service.jobs.execute_request` — the same
single-cell matrix path as the CLI and the in-memory queue — against the
shared store, so fleet results are bitwise identical to a single-process
``repro matrix`` run regardless of which worker (or how many, after how
many crashes) computed them.

Topology: N stateless ``repro serve --fleet STORE`` replicas (any of
them can serve any job id) and M ``repro worker --store STORE``
pull-loops, all sharing one store directory. See ``docs/guides/fleet.md``
for the full walkthrough.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.errors import (
    EstimationError,
    ModelError,
    QueueFullError,
    ServiceError,
    StaleLeaseError,
    StoreError,
)
from repro.models.registry import REGISTRY, StudyRegistry
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.service.jobs import JobEvent, JobRequest, JobState, execute_request
from repro.store.keys import payload_checksum
from repro.store.leases import Lease, LeaseManager, default_owner_id
from repro.store.store import ArtifactStore

__all__ = [
    "FleetJob",
    "FleetQueue",
    "FleetWorker",
]

#: Registry counters mirroring :attr:`FleetWorker.stats`, keyed by the
#: same counter names; ``stale`` covers fencing-rejected (stale) commits.
_WORKER_STAT_METRICS = {
    "claimed": _obs_metrics.registry().counter(
        "repro_fleet_claims_total",
        "Queued jobs claimed by fleet workers in this process.",
    ),
    "completed": _obs_metrics.registry().counter(
        "repro_fleet_completed_total",
        "Jobs committed complete by fleet workers in this process.",
    ),
    "failed": _obs_metrics.registry().counter(
        "repro_fleet_failed_total",
        "Jobs committed failed by fleet workers in this process.",
    ),
    "stale": _obs_metrics.registry().counter(
        "repro_fleet_stale_commits_total",
        "Worker attempts rejected by lease fencing (stale commits).",
    ),
}

#: Job-document format version.
DOCUMENT_VERSION = 1
#: Seconds between event-log polls while a reader waits for news.
EVENT_POLL_SECONDS = 0.05
#: ``Retry-After`` hint (seconds) sent with queue-full rejections.
RETRY_AFTER_SECONDS = 1.0


def _job_id_for(request: JobRequest) -> str:
    """The content-addressed job id of *request* (workers-oblivious)."""
    return f"job-{request.fingerprint()[:16]}"


def _write_document(path: Path, payload: "dict[str, object]") -> None:
    """Atomically write one checksummed JSON document (tmp + replace)."""
    document = {"v": DOCUMENT_VERSION, "check": payload_checksum(payload), "payload": payload}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp-{os.getpid()}-{os.urandom(2).hex()}")
    tmp.write_text(json.dumps(document, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _read_document(path: Path) -> "dict[str, object] | None":
    """Read a checksummed document; ``None`` when absent or torn."""
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, OSError):
        return None
    if not isinstance(document, dict) or "payload" not in document:
        return None
    payload = document["payload"]
    if document.get("check") != payload_checksum(payload):
        return None
    return payload if isinstance(payload, dict) else None


class FleetJob:
    """A read-side view of one durable job document.

    Duck-types the surface of :class:`repro.service.jobs.Job` that the
    HTTP layer consumes (``snapshot``, ``state``, ``events_since``,
    ``wait``), but holds no state beyond its id: every read goes to the
    store, so any front-end replica — or a fresh process — serves the
    same answers for the same job id.
    """

    def __init__(self, queue: "FleetQueue", job_id: str):
        self.id = job_id
        self._queue = queue

    # -- document reads ---------------------------------------------------

    def document(self) -> "dict[str, object]":
        """The job's current durable document.

        Raises
        ------
        ServiceError
            With status 404 when no document exists under this id.
        """
        payload = _read_document(self._queue.document_path(self.id))
        if payload is None:
            raise ServiceError(f"unknown job {self.id!r}", status=404)
        return payload

    @property
    def state(self) -> str:
        """Current :class:`~repro.service.jobs.JobState` value."""
        return str(self.document()["state"])

    @property
    def request(self) -> JobRequest:
        """The validated request the job was submitted with."""
        return JobRequest.from_payload(
            dict(self.document()["request"]), registry=self._queue.registry
        )

    @property
    def created(self) -> float:
        """Submission time (unix seconds) from the durable document."""
        return float(self.document()["created"])

    @property
    def result(self) -> "dict[str, object] | None":
        """The result document, once complete."""
        return self.document().get("result")

    @property
    def error(self) -> "str | None":
        """The failure reason, once failed."""
        error = self.document().get("error")
        return None if error is None else str(error)

    def snapshot(self) -> "dict[str, object]":
        """The job as one JSON document (the ``GET /v1/jobs/{id}`` body)."""
        payload = self.document()
        document: "dict[str, object]" = {
            "id": self.id,
            "state": payload["state"],
            "request": payload["request"],
            "created": payload["created"],
            "events": len(self._read_events()),
            "attempts": payload.get("attempts", 1),
            "token": payload.get("token", 0),
        }
        if payload.get("result") is not None:
            document["result"] = payload["result"]
        if payload.get("error") is not None:
            document["error"] = payload["error"]
        return document

    # -- event log --------------------------------------------------------

    def _read_events(self) -> "list[JobEvent]":
        """All valid events, seq = stable line index (torn lines skipped)."""
        path = self._queue.events_path(self.id)
        try:
            lines = path.read_text().splitlines()
        except FileNotFoundError:
            return []
        events: "list[JobEvent]" = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn append from a killed writer; index stays stable
            if not isinstance(record, dict) or "event" not in record:
                continue
            if record.get("check") != payload_checksum(record.get("data", {})):
                continue
            events.append(JobEvent(seq=index, event=str(record["event"]), data=record["data"]))
        return events

    def events_since(self, seq: int, timeout: float | None = None) -> "list[JobEvent]":
        """Events with ``seq >= seq``, polling up to *timeout* for news.

        Mirrors :meth:`repro.service.jobs.Job.events_since`: an empty
        list means timeout, or a terminal job whose log has been fully
        consumed — the SSE handler's stop condition.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            fresh = [event for event in self._read_events() if event.seq >= seq]
            if fresh:
                return fresh
            if self.state in JobState.TERMINAL:
                return []
            if deadline is not None and time.monotonic() >= deadline:
                return []
            time.sleep(EVENT_POLL_SECONDS)

    def wait(self, timeout: float | None = None) -> bool:
        """Poll until the job reaches a terminal state.

        Returns ``True`` when terminal, ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.state in JobState.TERMINAL:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(EVENT_POLL_SECONDS)


class FleetQueue:
    """The durable, store-backed job queue front-end replicas share.

    Duck-types the :class:`repro.service.jobs.JobQueue` surface the
    :class:`~repro.service.server.EstimationService` drives (``submit``,
    ``get``, ``jobs``, ``counts``, ``queued``, ``stop``), but persists
    everything under ``<store>/fleet/``: replicas hold no job state, and
    execution belongs to the pull workers (:class:`FleetWorker`), never
    to the process that accepted the submission.

    Parameters
    ----------
    store_root : path-like
        The shared artifact-store directory (jobs live under its
        ``fleet/`` subdirectory; repetition records in indexed binary
        segments under ``segments/``).
    registry : StudyRegistry, optional
        The catalogue study names resolve through.
    capacity : int, optional
        Bound on *pending* (queued) jobs across the whole fleet; beyond
        it submissions raise :class:`~repro.errors.QueueFullError`
        carrying a ``Retry-After`` hint.
    lease_ttl : float, optional
        Lease TTL handed to this queue's :class:`LeaseManager` (workers
        configure their own; only re-queue inspection uses this one).
    """

    def __init__(
        self,
        store_root: "os.PathLike | str",
        registry: StudyRegistry = REGISTRY,
        capacity: int = 256,
        lease_ttl: float = 15.0,
    ):
        if capacity < 1:
            raise ServiceError("queue capacity must be positive")
        self.store_root = Path(store_root)
        self.fleet_dir = self.store_root / "fleet"
        self.registry = registry
        self.capacity = capacity
        self.leases = LeaseManager(self.fleet_dir, ttl=lease_ttl)

    # -- paths ------------------------------------------------------------

    def document_path(self, job_id: str) -> Path:
        """The durable document of *job_id*."""
        return self.fleet_dir / "jobs" / f"{job_id}.json"

    def events_path(self, job_id: str) -> Path:
        """The append-only event log of *job_id*."""
        return self.fleet_dir / "jobs" / f"{job_id}.events.jsonl"

    def marker_path(self, job_id: str) -> Path:
        """The pending-queue marker of *job_id*."""
        return self.fleet_dir / "queue" / job_id

    # -- event log (append side) ------------------------------------------

    def append_event(self, job_id: str, event: str, data: "dict[str, object]") -> None:
        """Append one checksummed event line under the job's lock."""
        record = {"event": event, "data": data, "check": payload_checksum(data)}
        path = self.events_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self.leases.locked(job_id):
            with path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    # -- submission -------------------------------------------------------

    def submit(self, request: JobRequest) -> "tuple[FleetJob, bool]":
        """Submit *request* durably, coalescing onto its content address.

        Returns
        -------
        tuple
            ``(job, deduplicated)``. *deduplicated* is True when a
            document for this request already existed and was queued,
            running or complete — a complete one is the warm-query path:
            the result is served straight from the store. A failed or
            cancelled document is re-queued as a fresh attempt.

        Raises
        ------
        QueueFullError
            When the fleet already has ``capacity`` pending jobs (the
            HTTP layer maps it to 429 with ``Retry-After``).
        """
        job_id = _job_id_for(request)
        with self.leases.locked(job_id):
            payload = _read_document(self.document_path(job_id))
            if payload is not None:
                state = str(payload["state"])
                if state in (JobState.QUEUED, JobState.RUNNING, JobState.COMPLETE):
                    return FleetJob(self, job_id), True
                # failed / cancelled: re-queue as a fresh attempt.
                self._check_capacity()
                requeued = dict(payload)
                requeued["state"] = JobState.QUEUED
                requeued["attempts"] = int(payload.get("attempts", 1)) + 1
                requeued["error"] = None
                _write_document(self.document_path(job_id), requeued)
                self._append_event_locked(
                    job_id, JobState.QUEUED, {"attempt": requeued["attempts"]}
                )
                self.marker_path(job_id).parent.mkdir(parents=True, exist_ok=True)
                self.marker_path(job_id).touch()
                return FleetJob(self, job_id), False
            self._check_capacity()
            document = {
                "id": job_id,
                "request": request.to_payload(),
                "state": JobState.QUEUED,
                "created": time.time(),
                "attempts": 1,
                "token": 0,
                "owner": None,
                "result": None,
                "error": None,
            }
            _write_document(self.document_path(job_id), document)
            self._append_event_locked(job_id, JobState.QUEUED, {"attempt": 1})
            self.marker_path(job_id).parent.mkdir(parents=True, exist_ok=True)
            self.marker_path(job_id).touch()
            return FleetJob(self, job_id), False

    def _append_event_locked(self, job_id: str, event: str, data: "dict[str, object]") -> None:
        """Append one event line; the caller already holds the job lock."""
        record = {"event": event, "data": data, "check": payload_checksum(data)}
        path = self.events_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _check_capacity(self) -> None:
        if self.queued >= self.capacity:
            raise QueueFullError(
                f"fleet queue is full ({self.capacity} pending); retry later",
                retry_after=RETRY_AFTER_SECONDS,
            )

    # -- read side --------------------------------------------------------

    def get(self, job_id: str) -> FleetJob:
        """The job stored under *job_id* (404 via ServiceError when unknown)."""
        if _read_document(self.document_path(job_id)) is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return FleetJob(self, job_id)

    def jobs(self) -> "list[FleetJob]":
        """Every known job, oldest first."""
        jobs_dir = self.fleet_dir / "jobs"
        if not jobs_dir.is_dir():
            return []
        views = [
            FleetJob(self, path.stem)
            for path in jobs_dir.glob("job-*.json")
            if _read_document(path) is not None
        ]
        return sorted(views, key=lambda job: job.created)

    def counts(self) -> "dict[str, int]":
        """Job counts by state (the health document's ``jobs`` section)."""
        counts: "dict[str, int]" = {}
        for job in self.jobs():
            state = job.state
            counts[state] = counts.get(state, 0) + 1
        return counts

    @property
    def queued(self) -> int:
        """Pending jobs across the fleet (the queue-marker count)."""
        queue_dir = self.fleet_dir / "queue"
        if not queue_dir.is_dir():
            return 0
        return sum(1 for path in queue_dir.iterdir() if path.is_file())

    def pending_job_ids(self) -> "list[str]":
        """Pending job ids, oldest marker first (the worker's work list)."""
        queue_dir = self.fleet_dir / "queue"
        if not queue_dir.is_dir():
            return []
        markers = [path for path in queue_dir.iterdir() if path.is_file()]

        def _order(path: Path) -> "tuple[float, str]":
            try:
                return (path.stat().st_mtime, path.name)
            except OSError:  # claimed and finished under us
                return (float("inf"), path.name)

        return [path.name for path in sorted(markers, key=_order)]

    def stop(self, timeout: float | None = None) -> None:
        """Front-end drain: a no-op, by design.

        The queue is durable and execution belongs to the workers — a
        replica going away must not cancel anything. Pending jobs stay
        queued in the store and the remaining replicas/workers carry on.
        """

    # -- worker-side transitions (fencing enforced) -----------------------

    def mark_running(self, job_id: str, lease: Lease) -> None:
        """Flip a claimed job to ``running`` under *lease*'s token."""
        with self.leases.locked(job_id):
            payload = _read_document(self.document_path(job_id))
            if payload is None:
                raise ServiceError(f"unknown job {job_id!r}", status=404)
            if int(payload.get("token", 0)) > lease.token:
                raise StaleLeaseError(
                    f"job {job_id} already transitioned under token "
                    f"{payload.get('token')} > {lease.token}"
                )
            updated = dict(payload)
            updated["state"] = JobState.RUNNING
            updated["token"] = lease.token
            updated["owner"] = lease.owner
            _write_document(self.document_path(job_id), updated)
            self._append_event_locked(
                job_id,
                JobState.RUNNING,
                {"owner": lease.owner, "token": lease.token},
            )

    def commit(
        self,
        job_id: str,
        lease: Lease,
        result: "dict[str, object] | None",
        error: "str | None" = None,
    ) -> None:
        """Commit a terminal state for *job_id*, fenced by *lease*.

        The lease is validated inside the job's critical section: a
        worker that lost its lease (expired, re-claimed) gets
        :class:`~repro.errors.StaleLeaseError` and must discard its
        work — the re-claiming owner's commit is the one that counts.
        On success the pending marker is removed and the lease released.
        """
        with self.leases.locked(job_id):
            self.leases.validate(lease)  # raises StaleLeaseError when lost
            payload = _read_document(self.document_path(job_id))
            if payload is None:
                raise ServiceError(f"unknown job {job_id!r}", status=404)
            updated = dict(payload)
            updated["token"] = lease.token
            updated["owner"] = lease.owner
            if error is None:
                updated["state"] = JobState.COMPLETE
                updated["result"] = result
                updated["error"] = None
                event_data: "dict[str, object]" = {
                    "owner": lease.owner,
                    "token": lease.token,
                    "summary": (result or {}).get("summary", {}),
                }
                event = JobState.COMPLETE
            else:
                updated["state"] = JobState.FAILED
                updated["error"] = error
                event_data = {"owner": lease.owner, "token": lease.token, "error": error}
                event = JobState.FAILED
            _write_document(self.document_path(job_id), updated)
            self._append_event_locked(job_id, event, event_data)
            self.marker_path(job_id).unlink(missing_ok=True)
        self.leases.release(lease)


class FleetWorker:
    """A pull-loop worker: claim, heartbeat, execute, commit, repeat.

    Parameters
    ----------
    store_root : path-like
        The shared store directory (same one the front ends serve from).
    owner : str, optional
        Owner identity for leases; defaults to
        :func:`~repro.store.leases.default_owner_id`.
    lease_ttl : float, optional
        Seconds a claimed lease survives without a heartbeat. The worker
        renews every ``lease_ttl / 3``; a SIGKILL therefore strands a
        job for at most ``lease_ttl`` before the fleet re-queues it.
    poll : float, optional
        Idle sleep between queue scans.
    workers : int or str, optional
        Default per-job repetition fan-out, applied when the request
        itself did not pin one (never affects results).
    registry : StudyRegistry, optional
        The study catalogue requests resolve through.

    Notes
    -----
    One worker executes one job at a time — fleet concurrency comes from
    running more worker processes, which is exactly what
    ``repro worker --store DIR`` (times M) does.
    """

    def __init__(
        self,
        store_root: "os.PathLike | str",
        owner: str | None = None,
        lease_ttl: float = 15.0,
        poll: float = 0.5,
        workers: "int | str | None" = None,
        registry: StudyRegistry = REGISTRY,
    ):
        self.queue = FleetQueue(store_root, registry=registry, lease_ttl=lease_ttl)
        self.owner = owner or default_owner_id()
        self.lease_ttl = float(lease_ttl)
        self.poll = float(poll)
        self.workers = workers
        self.registry = registry
        self.stop_event = threading.Event()
        self.stats = {"claimed": 0, "completed": 0, "failed": 0, "stale": 0}

    def stop(self) -> None:
        """Ask the loop to exit after the job in flight (signal-safe)."""
        self.stop_event.set()

    def _count(self, key: str) -> None:
        """Bump one worker counter and its registry mirror together."""
        self.stats[key] += 1
        _WORKER_STAT_METRICS[key].inc()

    # -- execution --------------------------------------------------------

    def _effective_request(self, request: JobRequest) -> JobRequest:
        if request.workers is None and self.workers is not None:
            return replace(request, workers=self.workers)
        return request

    def _execute_claimed(self, job_id: str, lease: Lease) -> None:
        """Run one claimed job under a heartbeat, then commit fenced."""
        queue = self.queue
        lease_box = {"lease": lease, "lost": False}
        heartbeat_stop = threading.Event()

        def _heartbeat() -> None:
            while not heartbeat_stop.wait(self.lease_ttl / 3.0):
                try:
                    lease_box["lease"] = queue.leases.renew(lease_box["lease"])
                except StaleLeaseError:
                    lease_box["lost"] = True
                    return

        def _progress(data: "dict[str, object]") -> None:
            if not lease_box["lost"]:
                queue.append_event(
                    job_id, "progress", {**data, "owner": self.owner, "token": lease.token}
                )

        try:
            queue.mark_running(job_id, lease)
        except StaleLeaseError:
            self._count("stale")
            return
        beat = threading.Thread(target=_heartbeat, name=f"heartbeat-{job_id}", daemon=True)
        beat.start()
        result: "dict[str, object] | None" = None
        error: "str | None" = None
        try:
            request = self._effective_request(FleetJob(queue, job_id).request)
            with _obs_trace.span("fleet-job", job=job_id, owner=self.owner) as sp:
                result = execute_request(
                    request,
                    registry=self.registry,
                    store=ArtifactStore.open(queue.store_root),
                    progress=_progress,
                )
                sp.annotate(cells=len(result.get("records", ())))
        except (ModelError, EstimationError, ServiceError, StoreError) as exc:
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 — a fleet worker must never die silently
            error = f"{type(exc).__name__}: {exc}"
        finally:
            heartbeat_stop.set()
            beat.join(timeout=5)
        try:
            queue.commit(job_id, lease_box["lease"], result, error=error)
        except StaleLeaseError:
            self._count("stale")
            return
        self._count("completed" if error is None else "failed")

    def run_once(self) -> int:
        """One queue scan: claim and execute what this worker can.

        Returns the number of jobs executed (0 when the scan found
        nothing claimable).
        """
        executed = 0
        for job_id in self.queue.pending_job_ids():
            if self.stop_event.is_set():
                break
            lease = self.queue.leases.claim(job_id, self.owner)
            if lease is None:
                continue  # live lease elsewhere
            payload = _read_document(self.queue.document_path(job_id))
            if payload is None or str(payload["state"]) in JobState.TERMINAL:
                # Stale marker (e.g. a crash between commit and cleanup).
                self.queue.marker_path(job_id).unlink(missing_ok=True)
                self.queue.leases.release(lease)
                continue
            self._count("claimed")
            self._execute_claimed(job_id, lease)
            executed += 1
        return executed

    def run(
        self, max_jobs: int | None = None, idle_exit: float | None = None
    ) -> "dict[str, int]":
        """The pull loop: scan, claim, execute until told to stop.

        Parameters
        ----------
        max_jobs : int, optional
            Exit after executing this many jobs (tests, drain scripts).
        idle_exit : float, optional
            Exit after this many consecutive idle seconds (CI harnesses;
            ``None`` = run until :meth:`stop`).

        Returns
        -------
        dict
            The worker's counters: ``claimed``, ``completed``,
            ``failed``, ``stale``.
        """
        executed = 0
        idle_since = time.monotonic()
        while not self.stop_event.is_set():
            did = self.run_once()
            executed += did
            if max_jobs is not None and executed >= max_jobs:
                break
            now = time.monotonic()
            if did:
                idle_since = now
                continue
            if idle_exit is not None and now - idle_since >= idle_exit:
                break
            self.stop_event.wait(self.poll)
        return dict(self.stats)
