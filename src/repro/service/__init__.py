"""Estimation service: an async job-queue API over the experiment stack.

The paper's Section VI workloads are pure functions of ``(study,
estimator configuration, seed)`` — exactly the shape of a request/response
service. This package serves them over HTTP:

* :mod:`repro.service.jobs` — the job model, a bounded deduplicating
  queue, and the executor that runs each job through the same
  :func:`~repro.experiments.matrix.run_matrix` path as the CLI;
* :mod:`repro.service.server` — the stdlib HTTP layer
  (:class:`ThreadingHTTPServer`): submit, status, registry listing,
  health, and a Server-Sent Events progress stream per job;
* :mod:`repro.service.client` — a stdlib :mod:`urllib` client used by
  ``repro submit`` / ``repro jobs`` and the service benchmark;
* :mod:`repro.service.fleet` — the multi-process fleet layer: a durable
  store-backed job queue, leased pull workers (``repro worker``), and
  the stateless front-end mode behind ``repro serve --fleet``.

Determinism invariants, inherited from the layers below:

* a job's deterministic result fields are **bitwise identical** to the
  equivalent ``repro matrix`` invocation, at any worker count;
* with an artifact store attached, repeat queries are served **warm**
  from disk — no resimulation — and still byte-for-byte identical;
* concurrent identical submissions **coalesce** onto one job and one
  store key;
* the queue is **bounded**: when full, submissions get HTTP 429, and
  only the most recent terminal jobs are retained in memory (the
  results themselves persist in the artifact store).

Start one with ``repro serve --store runs/store``, then::

    curl -X POST localhost:8000/v1/jobs \\
         -d '{"study": "illustrative", "estimator": "is"}'
"""

from repro.service.client import ServiceClient
from repro.service.fleet import FleetJob, FleetQueue, FleetWorker
from repro.service.jobs import Job, JobEvent, JobQueue, JobRequest, JobState
from repro.service.server import EstimationService, ServiceConfig, create_server

__all__ = [
    "EstimationService",
    "FleetJob",
    "FleetQueue",
    "FleetWorker",
    "Job",
    "JobEvent",
    "JobQueue",
    "JobRequest",
    "JobState",
    "ServiceClient",
    "ServiceConfig",
    "create_server",
]
