"""The estimation service's job model and bounded in-process queue.

A *job* is one estimation request — ``(study, estimator, repetitions,
n_samples, seed, …)`` — the exact shape of one cross-study matrix cell.
Executing a job therefore *is* a single-cell
:func:`~repro.experiments.matrix.run_matrix` call: the service rides the
same code path as ``repro matrix``, inherits the artifact-store cache
(repeat queries are served warm from disk) and the determinism contract
(a job's deterministic result is bitwise identical to the equivalent CLI
invocation at any worker count).

The queue is deliberately simple and well-behaved under load:

* **bounded** — at most ``capacity`` jobs wait; a submission beyond that
  raises :class:`~repro.errors.QueueFullError`, which the HTTP layer maps
  to 429 so clients back off instead of piling work up;
* **deduplicating** — a submission whose request fingerprint matches a
  job already queued or running returns that job instead of enqueueing a
  duplicate, so concurrent identical queries coalesce onto one execution
  (and one store key);
* **draining** — :meth:`JobQueue.stop` stops accepting work, cancels
  everything still queued and waits for in-flight jobs, reusing the
  cancellation path of :func:`~repro.experiments.runner.map_repetitions`.

Every state transition and repetition completion is recorded as a
:class:`JobEvent`; the SSE endpoint replays and follows this list.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import queue
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import (
    EstimationError,
    ModelError,
    OptimizationError,
    QueueFullError,
    ServiceError,
    StoreError,
)
# The matrix module's estimator table is the single source of truth for
# estimator names; validation reads matrix.ESTIMATORS at request time (not
# import time) so registering a new estimator updates the 400 responses too.
from repro.experiments import matrix as matrix_experiments
from repro.experiments.matrix import MatrixConfig, run_matrix
from repro.models.registry import REGISTRY, StudyRegistry
from repro.store.keys import code_versions, config_key
from repro.store.store import ArtifactStore

__all__ = [
    "Job",
    "JobEvent",
    "JobQueue",
    "JobRequest",
    "JobState",
]


class JobState:
    """The lifecycle states of a job.

    ``QUEUED -> RUNNING -> COMPLETE | FAILED``, or ``QUEUED -> CANCELLED``
    when the queue drains before the job starts. ``TERMINAL`` collects the
    three end states.
    """

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETE = "complete"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TERMINAL = frozenset({COMPLETE, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobRequest:
    """One validated estimation request.

    Mirrors one cell of :class:`~repro.experiments.matrix.MatrixConfig`:
    the service's deterministic result for a request is bitwise the
    corresponding cell of ``repro matrix --studies STUDY --estimators
    ESTIMATOR …``.

    Attributes
    ----------
    study:
        Registry name of the case study.
    estimator:
        One of :data:`~repro.experiments.matrix.ESTIMATORS`.
    repetitions:
        Repetitions of the cell (each with its own spawned seed).
    n_samples:
        Traces per repetition; ``None`` defers to the study's own value.
    confidence:
        Interval confidence level; ``None`` defers to the study.
    search_rounds:
        IMCIS random-search stopping parameter ``R``; only ``imcis``
        requests read (and validate) it.
    quick:
        Apply the study's quick factory parameters.
    seed:
        Root RNG seed the repetition seeds spawn from.
    workers:
        Worker processes for the repetition fan-out (``None`` = inline).
        Never affects results — it is deliberately *excluded* from the
        request fingerprint.
    """

    study: str
    estimator: str
    repetitions: int = 4
    n_samples: int | None = None
    confidence: float | None = None
    search_rounds: int = 100
    quick: bool = False
    seed: int = 2018
    workers: "int | str | None" = None

    @staticmethod
    def from_payload(
        payload: "dict[str, object]", registry: StudyRegistry = REGISTRY
    ) -> "JobRequest":
        """Validate a JSON submission body into a request.

        Raises
        ------
        ServiceError
            On unknown fields, an unknown study or estimator, or
            out-of-range numeric parameters (mapped to HTTP 400).
        """
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        known = {f.name for f in dataclasses.fields(JobRequest)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(f"unknown request field(s) {unknown}; known: {sorted(known)}")
        missing = [name for name in ("study", "estimator") if name not in payload]
        if missing:
            raise ServiceError(f"request misses required field(s) {missing}")
        request = JobRequest(**payload)  # type: ignore[arg-type]
        if request.study not in registry:
            raise ServiceError(
                f"unknown study {request.study!r}; registered: {registry.list_studies()}"
            )
        if request.estimator not in matrix_experiments.ESTIMATORS:
            raise ServiceError(
                f"unknown estimator {request.estimator!r}; "
                f"known: {list(matrix_experiments.ESTIMATORS)}"
            )
        for name in ("repetitions", "search_rounds", "seed"):
            if not isinstance(getattr(request, name), int) or isinstance(
                getattr(request, name), bool
            ):
                raise ServiceError(f"{name} must be an integer")
        if request.repetitions < 1:
            raise ServiceError("repetitions must be positive")
        if request.n_samples is not None and (
            not isinstance(request.n_samples, int)
            or isinstance(request.n_samples, bool)
            or request.n_samples < 1
        ):
            raise ServiceError("n_samples must be a positive integer")
        if request.confidence is not None and (
            not isinstance(request.confidence, (int, float))
            or isinstance(request.confidence, bool)
            or not 0.0 < float(request.confidence) < 1.0
        ):
            raise ServiceError("confidence must be a number strictly between 0 and 1")
        if not isinstance(request.quick, bool):
            raise ServiceError("quick must be a boolean")
        try:
            request.to_matrix_config().search()
        except OptimizationError as exc:
            raise ServiceError(f"search_rounds: {exc}") from None
        workers = request.workers
        if workers is not None and workers != "auto":
            if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
                raise ServiceError("workers must be null, 'auto' or a positive integer")
        return request

    def to_payload(self) -> "dict[str, object]":
        """The request as a JSON-serialisable dict (inverts ``from_payload``)."""
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """Content address used to deduplicate concurrent submissions.

        Hashes everything that determines the deterministic result —
        request fields plus the code versions — but *not* ``workers``,
        which only affects wall-clock time. Identical in-flight requests
        therefore coalesce onto one job and one set of store keys.
        """
        payload = self.to_payload()
        payload.pop("workers")
        return config_key({"kind": "service-job", "request": payload, **code_versions()})

    def to_matrix_config(self) -> MatrixConfig:
        """The single-cell matrix configuration executing this request."""
        return MatrixConfig(
            studies=(self.study,),
            estimators=(self.estimator,),
            repetitions=self.repetitions,
            n_samples=self.n_samples,
            confidence=self.confidence,
            search_rounds=self.search_rounds,
            quick=self.quick,
            seed=self.seed,
            workers=self.workers,
        )


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's append-only event log.

    Attributes
    ----------
    seq:
        Position in the log (the SSE ``id:`` field).
    event:
        Event name: a :class:`JobState` value for transitions, or
        ``"progress"`` for repetition completions.
    data:
        JSON-serialisable payload.
    """

    seq: int
    event: str
    data: "dict[str, object]"


class Job:
    """One submitted estimation job: state, event log, result.

    Thread-safe: the queue worker appends events and flips states while
    any number of HTTP handler threads poll :meth:`snapshot`, follow
    :meth:`events_since` or block in :meth:`wait`.
    """

    def __init__(self, job_id: str, request: JobRequest):
        self.id = job_id
        self.request = request
        self.created = time.time()
        self._condition = threading.Condition()
        self._state = JobState.QUEUED
        self._events: "list[JobEvent]" = []
        self._result: "dict[str, object] | None" = None
        self._error: str | None = None
        self._record_event(JobState.QUEUED, {})

    # -- internals (caller holds no lock) ---------------------------------

    def _record_event(self, event: str, data: "dict[str, object]") -> None:
        with self._condition:
            self._events.append(JobEvent(seq=len(self._events), event=event, data=data))
            self._condition.notify_all()

    def _transition(self, state: str, data: "dict[str, object] | None" = None) -> None:
        with self._condition:
            self._state = state
            self._events.append(JobEvent(seq=len(self._events), event=state, data=dict(data or {})))
            self._condition.notify_all()

    def record_progress(self, data: "dict[str, object]") -> None:
        """Append one ``progress`` event (called by the executor)."""
        self._record_event("progress", data)

    def complete(self, result: "dict[str, object]") -> None:
        """Mark the job complete with its result document."""
        with self._condition:
            self._result = result
        self._transition(JobState.COMPLETE, {"summary": result.get("summary", {})})

    def fail(self, error: str) -> None:
        """Mark the job failed with a human-readable reason."""
        with self._condition:
            self._error = error
        self._transition(JobState.FAILED, {"error": error})

    def cancel(self) -> None:
        """Mark a still-queued job cancelled (queue drain)."""
        self._transition(JobState.CANCELLED, {})

    def mark_running(self) -> None:
        """Flip the job to ``running`` (called by the queue worker)."""
        self._transition(JobState.RUNNING, {})

    # -- read side --------------------------------------------------------

    @property
    def state(self) -> str:
        """Current :class:`JobState` value."""
        with self._condition:
            return self._state

    @property
    def result(self) -> "dict[str, object] | None":
        """The result document, once complete."""
        with self._condition:
            return self._result

    @property
    def error(self) -> str | None:
        """The failure reason, once failed."""
        with self._condition:
            return self._error

    def snapshot(self) -> "dict[str, object]":
        """The job as one JSON document (the ``GET /v1/jobs/{id}`` body)."""
        with self._condition:
            document: "dict[str, object]" = {
                "id": self.id,
                "state": self._state,
                "request": self.request.to_payload(),
                "created": self.created,
                "events": len(self._events),
            }
            if self._result is not None:
                document["result"] = self._result
            if self._error is not None:
                document["error"] = self._error
            return document

    def events_since(self, seq: int, timeout: float | None = None) -> "list[JobEvent]":
        """Events with ``seq >= seq``, blocking up to *timeout* for news.

        Returns an empty list only on timeout, or when the job is in a
        terminal state and the log has been fully consumed — the SSE
        handler's stop condition.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while len(self._events) <= seq and self._state not in JobState.TERMINAL:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._condition.wait(remaining)
            return self._events[seq:]

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state.

        Returns ``True`` when terminal, ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while self._state not in JobState.TERMINAL:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._condition.wait(remaining)
            return True


def execute_request(
    request: JobRequest,
    registry: StudyRegistry = REGISTRY,
    store: "ArtifactStore | os.PathLike | str | None" = None,
    progress: "Callable[[dict[str, object]], None] | None" = None,
) -> "dict[str, object]":
    """Run one request through the single-cell matrix path.

    The shared executor under both the in-memory :class:`JobQueue` and
    the fleet's pull workers: a single-cell
    :func:`~repro.experiments.matrix.run_matrix` call — the same code
    path as the CLI, so the deterministic result fields are bitwise
    identical to the equivalent ``repro matrix`` invocation, whichever
    process executes the job. With a store attached, repetitions already
    on disk are served warm.

    Returns the job result document (``records``, ``csv``, ``summary``);
    library errors propagate to the caller, which owns the job's failure
    bookkeeping.
    """
    handle = ArtifactStore.coerce(store)
    started = time.perf_counter()
    result = run_matrix(
        request.to_matrix_config(),
        registry=registry,
        store=handle,
        progress=progress,
    )
    elapsed = time.perf_counter() - started
    records = result.records()
    store_stats = None
    if handle is not None:
        store_stats = {"hits": handle.stats.hits, "misses": handle.stats.misses}
    return {
        "records": records,
        "csv": result.to_csv_text(),
        "summary": {
            "cells": len(records),
            "repetitions": request.repetitions,
            "store": store_stats,
            "elapsed": round(elapsed, 3),
        },
    }


def execute_job(
    job: Job,
    registry: StudyRegistry = REGISTRY,
    store_root: "os.PathLike | str | None" = None,
) -> None:
    """Run one job to completion, recording progress events.

    Thin state-machine wrapper around :func:`execute_request`: each job
    gets its own :class:`ArtifactStore` handle so hit/miss accounting is
    per-job, and any library error becomes the job's failure reason.
    """
    job.mark_running()
    store = ArtifactStore.open(store_root) if store_root is not None else None
    try:
        result = execute_request(
            job.request, registry=registry, store=store, progress=job.record_progress
        )
    except (ModelError, EstimationError, ServiceError, StoreError) as error:
        job.fail(str(error))
        return
    except Exception as error:  # noqa: BLE001 — a worker must never die silently
        job.fail(f"{type(error).__name__}: {error}")
        return
    job.complete(result)


class JobQueue:
    """Bounded, deduplicating job queue with daemon worker threads.

    Parameters
    ----------
    capacity : int
        Maximum number of *queued* (not yet running) jobs; a submission
        beyond that raises :class:`~repro.errors.QueueFullError`.
    job_workers : int
        Worker threads executing jobs (each job may additionally fan its
        repetitions out over processes via its ``workers`` field).
    registry : StudyRegistry, optional
        The catalogue study names resolve through.
    store_root : path-like, optional
        Artifact-store directory jobs consult and extend; ``None``
        disables caching.
    history : int, optional
        Terminal (complete/failed/cancelled) jobs retained for
        ``GET /v1/jobs/{id}``; beyond this the earliest finished are
        evicted, so a long-lived server's memory stays bounded (a
        finished quick ``is`` job holds ~6 KB, so the default 4096 is
        under 24 MB). Queued and running jobs are never evicted. The
        results themselves live on in the artifact store regardless.
    autostart : bool, optional
        Start the worker threads immediately (tests pass ``False`` to
        inspect queued states deterministically).
    """

    def __init__(
        self,
        capacity: int = 64,
        job_workers: int = 1,
        registry: StudyRegistry = REGISTRY,
        store_root: "os.PathLike | str | None" = None,
        history: int = 4096,
        autostart: bool = True,
    ):
        if capacity < 1:
            raise ServiceError("queue capacity must be positive")
        if job_workers < 1:
            raise ServiceError("job_workers must be positive")
        if history < 1:
            raise ServiceError("history must be positive")
        self.capacity = capacity
        self.history = history
        self.registry = registry
        self.store_root = store_root
        self._queue: "queue.Queue[Job]" = queue.Queue(maxsize=capacity)
        self._lock = threading.Lock()
        self._jobs: "dict[str, Job]" = {}
        self._finished: "collections.deque[str]" = collections.deque()  # completion order
        self._active: "dict[str, Job]" = {}  # fingerprint -> queued/running job
        self._closed = False
        self._threads = [
            threading.Thread(target=self._work, name=f"job-worker-{i}", daemon=True)
            for i in range(job_workers)
        ]
        if autostart:
            self.start()

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        for thread in self._threads:
            if not thread.is_alive() and not thread.ident:
                thread.start()

    # -- submission -------------------------------------------------------

    def submit(self, request: JobRequest) -> "tuple[Job, bool]":
        """Enqueue *request*, or coalesce onto an identical in-flight job.

        Returns
        -------
        tuple
            ``(job, deduplicated)`` — *deduplicated* is True when an
            identical request was already queued or running and no new
            job was created.

        Raises
        ------
        ServiceError
            With status 503 when the queue is draining.
        QueueFullError
            When the queue already holds ``capacity`` waiting jobs.
        """
        fingerprint = request.fingerprint()
        with self._lock:
            if self._closed:
                raise ServiceError("service is shutting down", status=503)
            active = self._active.get(fingerprint)
            if active is not None and active.state in (JobState.QUEUED, JobState.RUNNING):
                return active, True
            job = Job(f"job-{os.urandom(6).hex()}", request)
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                raise QueueFullError(
                    f"job queue is full ({self.capacity} waiting); retry later"
                ) from None
            self._jobs[job.id] = job
            self._active[fingerprint] = job
            return job, False

    def get(self, job_id: str) -> Job:
        """The job submitted under *job_id*.

        Raises
        ------
        ServiceError
            With status 404 when the id is unknown.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def jobs(self) -> "list[Job]":
        """Every known job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created)

    def counts(self) -> "dict[str, int]":
        """Job counts by state (the health document's ``jobs`` section)."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts: "dict[str, int]" = {}
        for job in jobs:
            state = job.state
            counts[state] = counts.get(state, 0) + 1
        return counts

    @property
    def queued(self) -> int:
        """Jobs currently waiting (approximate under concurrency)."""
        return self._queue.qsize()

    # -- execution --------------------------------------------------------

    def _work(self) -> None:
        while True:
            try:
                # A short timeout instead of a blocking get: workers
                # notice `stop()` within a beat of going idle, without
                # sentinel items that could jam a small queue.
                job = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._closed:
                    return
                continue
            try:
                if job.state == JobState.QUEUED:
                    execute_job(job, registry=self.registry, store_root=self.store_root)
            finally:
                with self._lock:
                    fingerprint = job.request.fingerprint()
                    if self._active.get(fingerprint) is job:
                        del self._active[fingerprint]
                    if job.state in JobState.TERMINAL:
                        self._finished.append(job.id)
                    self._evict_history()
                self._queue.task_done()

    def _evict_history(self) -> None:
        """Drop the earliest finished jobs beyond the history bound.

        Caller holds the lock. Queued/running jobs never count against
        (or fall to) the bound.
        """
        while len(self._finished) > self.history:
            del self._jobs[self._finished.popleft()]

    def stop(self, timeout: float | None = None) -> None:
        """Drain the queue: reject new work, cancel queued jobs, wait.

        Queued jobs are flipped to ``cancelled`` (their waiters wake up
        with a terminal event); jobs already running finish normally —
        the repetition fan-out underneath them owns interruption (see
        :func:`~repro.experiments.runner.map_repetitions`). Waits up to
        *timeout* seconds **in total** for the workers to exit; a worker
        still inside a long job past the deadline is left to finish on
        its daemon thread rather than blocking the caller.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            job.cancel()
            self._queue.task_done()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if thread.is_alive():
                thread.join(remaining)
