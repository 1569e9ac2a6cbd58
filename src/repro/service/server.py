"""The estimation service's HTTP layer: a stdlib JSON API over the queue.

Endpoints (all JSON unless noted)::

    GET  /healthz              liveness + queue/job accounting
    GET  /metrics              Prometheus text exposition (not JSON)
    GET  /v1/studies           the study registry, as the CLI sees it
    GET  /v1/store             the artifact store's O(index) summary
                               (same document as `repro store ls --format json`)
    POST /v1/jobs              submit a job (201; 409-free dedup; 429 full)
    GET  /v1/jobs              list all jobs (snapshots)
    GET  /v1/jobs/{id}         one job's snapshot (result once complete)
    GET  /v1/jobs/{id}/events  Server-Sent Events progress stream

Built on :class:`http.server.ThreadingHTTPServer` — one daemon thread per
connection, which is exactly what a long-lived SSE stream needs, and no
dependency beyond the standard library. The server never executes
estimation work on a handler thread: handlers only submit to and read
from the :class:`~repro.service.jobs.JobQueue`.

Errors are JSON documents ``{"error": ..., "status": ...}`` with the
matching HTTP status: 400 malformed body or unknown study/estimator, 404
unknown job or route, 429 queue full, 503 draining.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import time
from collections.abc import Callable
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro
from repro.errors import QueueFullError, ServiceError
from repro.models.registry import REGISTRY, StudyRegistry
from repro.obs import metrics as _obs_metrics
from repro.service.fleet import FleetQueue
from repro.service.jobs import Job, JobQueue, JobRequest, JobState
from repro.store.store import ArtifactStore

__all__ = [
    "EstimationService",
    "ServiceConfig",
    "create_server",
]

#: Seconds an SSE handler waits for news before emitting a keep-alive.
SSE_POLL_SECONDS = 5.0

#: The access log (and BaseHTTPRequestHandler notices, at debug level).
_LOGGER = logging.getLogger("repro.service")

_METRIC_REQUESTS = _obs_metrics.registry().counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, route template and status.",
    labelnames=("method", "route", "status"),
)
_METRIC_REQUEST_SECONDS = _obs_metrics.registry().histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency by route template.",
    labelnames=("route",),
)
_METRIC_QUEUE_DEPTH = _obs_metrics.registry().gauge(
    "repro_queue_depth",
    "Jobs currently waiting in the service queue (refreshed per scrape).",
)
_METRIC_JOBS = _obs_metrics.registry().gauge(
    "repro_jobs",
    "Known jobs by lifecycle state (refreshed per scrape).",
    labelnames=("state",),
)
_METRIC_HEARTBEAT_AGE = _obs_metrics.registry().gauge(
    "repro_fleet_worker_heartbeat_age_seconds",
    "Seconds since each live lease owner's last heartbeat (fleet mode).",
    labelnames=("owner",),
)

#: Every lifecycle state ``repro_jobs`` reports, so counts that drop to
#: zero overwrite their previous scrape instead of going stale.
_JOB_STATES = (
    JobState.QUEUED,
    JobState.RUNNING,
    JobState.COMPLETE,
    JobState.FAILED,
    JobState.CANCELLED,
)


def _route_template(path: str) -> str:
    """Collapse a request path onto its route template.

    Metric labels must stay low-cardinality: job ids (content addresses)
    would mint one series per job, so they collapse onto ``{id}``, and
    anything unrecognised — typos, scanners — onto ``other``.
    """
    if path in ("/", "/healthz", "/metrics", "/v1/studies", "/v1/store", "/v1/jobs"):
        return path
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}/events" if path.endswith("/events") else "/v1/jobs/{id}"
    return "other"


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one estimation-service instance.

    Attributes
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (tests).
    store_root:
        Artifact-store directory jobs consult and extend (``None``
        disables the warm-cache path).
    capacity:
        Bound on queued jobs — beyond it, submissions get 429.
    job_workers:
        Worker threads executing jobs.
    workers:
        Default per-job repetition fan-out (request field overrides).
    history:
        Terminal jobs retained in memory for status queries (earliest
        finished evicted beyond this bound; ~6 KB each for a quick
        ``is`` job).
    fleet_root:
        When set, the instance runs in **fleet mode**: it becomes a
        stateless front end over the durable store-backed queue at this
        directory (:class:`~repro.service.fleet.FleetQueue`). No jobs
        execute in-process — ``repro worker`` pull loops sharing the
        same store do the work — and any number of replicas over the
        same directory serve the same job ids interchangeably.
        ``store_root``, ``job_workers`` and ``history`` are ignored in
        this mode (the store *is* the state).
    reuse_port:
        Bind with ``SO_REUSEPORT`` so multiple fleet replicas can share
        one address and the kernel load-balances connections.
    access_log:
        Emit one structured access-log line per request (method, path,
        status, duration) through the ``repro.service`` logger. Off by
        default — the service is driven programmatically and from CI —
        and enabled by ``repro serve --access-log``.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    store_root: "os.PathLike | str | None" = None
    capacity: int = 64
    job_workers: int = 1
    workers: "int | str | None" = None
    history: int = 4096
    fleet_root: "os.PathLike | str | None" = None
    reuse_port: bool = False
    access_log: bool = False


class EstimationService:
    """The service facade the HTTP handler dispatches into.

    Owns the :class:`~repro.service.jobs.JobQueue` and the registry;
    every public method returns a JSON-serialisable document (or raises
    :class:`~repro.errors.ServiceError` carrying an HTTP status).
    """

    def __init__(self, config: ServiceConfig, registry: StudyRegistry = REGISTRY):
        self.config = config
        self.registry = registry
        self.queue: "JobQueue | FleetQueue"
        if config.fleet_root is not None:
            self.queue = FleetQueue(
                config.fleet_root,
                registry=registry,
                capacity=config.capacity,
            )
        else:
            self.queue = JobQueue(
                capacity=config.capacity,
                job_workers=config.job_workers,
                registry=registry,
                store_root=config.store_root,
                history=config.history,
            )

    # -- documents --------------------------------------------------------

    def health(self) -> "dict[str, object]":
        """The ``/healthz`` document."""
        fleet = self.config.fleet_root
        store = fleet if fleet is not None else self.config.store_root
        return {
            "status": "ok",
            "version": repro.__version__,
            "mode": "fleet" if fleet is not None else "local",
            "store": None if store is None else str(store),
            "queue": {"capacity": self.queue.capacity, "queued": self.queue.queued},
            "jobs": self.queue.counts(),
        }

    def studies(self) -> "dict[str, object]":
        """The ``/v1/studies`` document (the registry catalogue)."""
        return {
            "studies": [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "tags": sorted(spec.tags),
                    "seeded": spec.seeded,
                }
                for spec in self.registry
            ]
        }

    def store_summary(self) -> "dict[str, object]":
        """The ``/v1/store`` document.

        Exactly :meth:`~repro.store.store.ArtifactStore.describe` — the
        same field names ``repro store ls --format json`` prints, built
        from the index alone (no record segment is read). 404 when the
        instance runs storeless.
        """
        fleet = self.config.fleet_root
        root = fleet if fleet is not None else self.config.store_root
        if root is None:
            raise ServiceError("this service instance runs without an artifact store", status=404)
        return ArtifactStore.open(root).describe()

    def submit(self, payload: "dict[str, object]") -> "tuple[dict[str, object], int]":
        """Validate and enqueue a submission body.

        Returns the response document and its HTTP status: 201 for a new
        job, 200 for a submission coalesced onto an in-flight job.
        """
        body = dict(payload)
        body.setdefault("workers", self.config.workers)
        request = JobRequest.from_payload(body, registry=self.registry)
        job, deduplicated = self.queue.submit(request)
        document = {"id": job.id, "state": job.state, "deduplicated": deduplicated}
        return document, 200 if deduplicated else 201

    def job(self, job_id: str) -> "dict[str, object]":
        """One job's snapshot (404 via ServiceError when unknown)."""
        return self.queue.get(job_id).snapshot()

    def jobs(self) -> "dict[str, object]":
        """Snapshots of every job, oldest first."""
        return {"jobs": [job.snapshot() for job in self.queue.jobs()]}

    def get_job(self, job_id: str) -> Job:
        """The underlying job object (used by the SSE stream).

        In fleet mode this is a :class:`~repro.service.fleet.FleetJob`,
        which duck-types the :class:`Job` read surface the stream needs.
        """
        return self.queue.get(job_id)

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain the queue (see :meth:`JobQueue.stop`)."""
        self.queue.stop(timeout=timeout)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the :class:`EstimationService`."""

    #: Status of the response in flight (set by ``send_response``).
    _status: int = 0

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        # BaseHTTPRequestHandler's own notices (malformed request lines
        # and the like) go through the service logger at debug level;
        # the per-request access log is emitted by ``_dispatch`` with
        # timing attached. Nothing reaches stderr unless the operator
        # configures the ``repro.service`` logger.
        _LOGGER.debug("%s %s", self.address_string(), format % args)

    @property
    def service(self) -> EstimationService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ---------------------------------------------------------

    def send_response(self, code: int, message: str | None = None) -> None:
        self._status = code
        super().send_response(code, message)

    def _dispatch(self, handler: "Callable[[], None]") -> None:
        """Run one route handler under request accounting.

        Always records the ``repro_http_*`` metrics; additionally emits
        one access-log line when the instance was configured with
        ``access_log=True``. Accounting never touches the response.
        """
        self._status = 0
        started = time.perf_counter()
        try:
            handler()
        finally:
            duration = time.perf_counter() - started
            route = _route_template(self.path.split("?", 1)[0].rstrip("/") or "/")
            _METRIC_REQUESTS.labels(
                method=self.command, route=route, status=str(self._status or 0)
            ).inc()
            _METRIC_REQUEST_SECONDS.labels(route=route).observe(duration)
            if self.service.config.access_log:
                _LOGGER.info(
                    "%s %s %s %.1fms",
                    self.command,
                    self.path,
                    self._status or "-",
                    duration * 1000.0,
                )

    def _send_json(self, document: object, status: int = 200) -> None:
        body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, message: str, status: int, retry_after: float | None = None
    ) -> None:
        document = {"error": message, "status": status}
        if retry_after is not None:
            document["retry_after"] = retry_after
        body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> "dict[str, object]":
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            document = json.loads(raw.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ServiceError(f"malformed JSON body: {error}") from None
        if not isinstance(document, dict):
            raise ServiceError("request body must be a JSON object")
        return document

    def _send_metrics(self) -> None:
        """Serve the Prometheus exposition, refreshing scrape-time gauges.

        Counters and histograms accumulate as the process works; the
        queue/job/lease gauges are snapshots of shared state, so they are
        recomputed here — every scrape sees the live queue depth, the job
        census and (fleet mode) each live worker's heartbeat age.
        """
        service = self.service
        _METRIC_QUEUE_DEPTH.set(float(service.queue.queued))
        counts = service.queue.counts()
        for state in _JOB_STATES:
            _METRIC_JOBS.set(float(counts.get(state, 0)), state=state)
        if isinstance(service.queue, FleetQueue):
            now = time.time()
            for lease in service.queue.leases.live_leases():
                age = max(0.0, lease.ttl - (lease.deadline - now))
                _METRIC_HEARTBEAT_AGE.set(age, owner=lease.owner)
        body = _obs_metrics.registry().render().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self._handle_post)

    def _handle_get(self) -> None:
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                self._send_json(self.service.health())
            elif path == "/metrics":
                self._send_metrics()
            elif path == "/v1/studies":
                self._send_json(self.service.studies())
            elif path == "/v1/store":
                self._send_json(self.service.store_summary())
            elif path == "/v1/jobs":
                self._send_json(self.service.jobs())
            elif path.startswith("/v1/jobs/") and path.endswith("/events"):
                job_id = path[len("/v1/jobs/") : -len("/events")]
                self._stream_events(self.service.get_job(job_id))
            elif path.startswith("/v1/jobs/"):
                self._send_json(self.service.job(path[len("/v1/jobs/") :]))
            else:
                self._send_error_json(f"no route {path!r}", 404)
        except ServiceError as error:
            self._send_error_json(str(error), error.status)
        except BrokenPipeError:  # client went away mid-stream
            pass

    def _handle_post(self) -> None:
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path != "/v1/jobs":
                self._send_error_json(f"no route POST {path!r}", 404)
                return
            document, status = self.service.submit(self._read_json_body())
            self._send_json(document, status=status)
        except QueueFullError as error:
            self._send_error_json(str(error), error.status, retry_after=error.retry_after)
        except ServiceError as error:
            self._send_error_json(str(error), error.status)
        except BrokenPipeError:
            pass

    # -- SSE --------------------------------------------------------------

    def _stream_events(self, job: Job) -> None:
        """Stream a job's event log as Server-Sent Events.

        Replays everything recorded so far (so a stream opened on an
        already-completed job yields its full history), then follows the
        log live, and closes once the job is terminal and fully flushed.
        Keep-alive comments go out while nothing happens so proxies do
        not drop the connection.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        seq = 0
        while True:
            events = job.events_since(seq, timeout=SSE_POLL_SECONDS)
            for event in events:
                seq = event.seq + 1
                payload = json.dumps({"job": job.id, **event.data}, sort_keys=True)
                frame = f"id: {event.seq}\nevent: {event.event}\ndata: {payload}\n\n"
                self.wfile.write(frame.encode("utf-8"))
            self.wfile.flush()
            if not events:
                if job.state in JobState.TERMINAL:
                    return
                self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
            elif job.state in JobState.TERMINAL and events[-1].event in JobState.TERMINAL:
                return


def create_server(config: ServiceConfig, registry: StudyRegistry = REGISTRY) -> ThreadingHTTPServer:
    """Build a ready-to-serve HTTP server around an :class:`EstimationService`.

    Parameters
    ----------
    config : ServiceConfig
        Bind address, queue bounds and store location.
    registry : StudyRegistry, optional
        The study catalogue the service exposes.

    Returns
    -------
    ThreadingHTTPServer
        With ``.service`` set; call ``serve_forever()`` to run,
        ``shutdown()`` + ``service.stop()`` to drain. The caller owns the
        lifecycle (the CLI's ``repro serve`` installs SIGINT/SIGTERM
        handlers around exactly that pair).
    """
    server_class = _ReusePortHTTPServer if config.reuse_port else ThreadingHTTPServer
    server = server_class((config.host, config.port), _Handler)
    server.daemon_threads = True
    server.service = EstimationService(config, registry=registry)  # type: ignore[attr-defined]
    return server


class _ReusePortHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer binding with ``SO_REUSEPORT``.

    Lets N fleet replicas share one listen address, with the kernel
    spreading incoming connections across them — the zero-dependency
    stand-in for a load balancer in front of the fleet.
    """

    def server_bind(self) -> None:
        if hasattr(socket, "SO_REUSEPORT"):
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()
