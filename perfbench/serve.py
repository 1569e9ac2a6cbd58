"""The ``serve`` workload: the estimation service under a closed loop.

Two client threads share one deterministic request sequence. Every fifth
request is *cold* (a fresh seed, so the job simulates and writes the
store); the other four are *warm* repeats of the primed requests, served
from the store. Every request is an ``is`` cell (quick, 4 repetitions ×
2 000 traces). A job is timed from just before its submission to the
arrival of its terminal event on the job's SSE stream.

The untraced run boots ``repro serve --store DIR`` as its own process and
talks to it only over HTTP. The traced run hosts the service in-process
via ``create_server`` so the layer tracer can time store, study and job
calls.
"""

from __future__ import annotations

import importlib
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from calibrate import PERIOD_S, REFERENCE_S, Calibration
from layers import LayerTracer, build_times, install_layers

STUDIES = ("illustrative", "knuth-yao", "tandem-repair", "group-repair", "swat")
REPETITIONS = 4
TRACES = 2000
COLD_EVERY = 5
CLIENTS = 2

#: Process counters scraped from ``/metrics`` around a load window.
SCRAPED = {
    "traces": "repro_traces_simulated_total",
    "steps": "repro_trace_steps_total",
    "hits": "repro_store_hits_total",
    "misses": "repro_store_misses_total",
}


def payload(study: str, seed: int) -> "dict[str, object]":
    return {
        "study": study,
        "estimator": "is",
        "repetitions": REPETITIONS,
        "n_samples": TRACES,
        "quick": True,
        "seed": seed,
    }


class Schedule:
    """The deterministic request sequence of one seed."""

    def __init__(self, seeds):
        self._seeds = seeds

    def warm_seed(self, study: str) -> int:
        return self._seeds(STUDIES.index(study), "warm")

    def request(self, index: int) -> "tuple[str, str, int]":
        """``(kind, study, seed)`` of request *index*."""
        cycle, slot = divmod(index, COLD_EVERY)
        if slot == COLD_EVERY - 1:
            return "cold", STUDIES[cycle % len(STUDIES)], self._seeds(index, "cold")
        study = STUDIES[(cycle * (COLD_EVERY - 1) + slot) % len(STUDIES)]
        return "warm", study, self.warm_seed(study)


@dataclass
class JobRun:
    index: int
    kind: str
    study: str
    job_id: str
    latency: float
    state: str
    summary: "dict[str, object]"
    refused: int
    #: ``perf_counter`` reading when the terminal event arrived.
    finished: float = 0.0


def _submit(client, body) -> "tuple[dict, int]":
    """Submit, retrying 429s; returns the response and the 429 count."""
    from repro.errors import QueueFullError

    refused = 0
    while True:
        try:
            return client.submit(body), refused
        except QueueFullError:
            refused += 1
            if refused > 50:
                raise
            time.sleep(0.02)


def run_job(client, index: int, kind: str, study: str, seed: int) -> JobRun:
    """Submit one request and follow its SSE stream to the terminal event."""
    started = time.perf_counter()
    response, refused = _submit(client, payload(study, seed))
    state, summary = "unknown", {}
    for event in client.events(response["id"]):
        if event["event"] in ("complete", "failed", "cancelled"):
            state = event["event"]
            summary = event.get("data", {}).get("summary", {}) or {}
            break
    finished = time.perf_counter()
    return JobRun(
        index, kind, study, response["id"], finished - started, state, summary, refused, finished
    )


def prime(client, schedule: Schedule) -> "list[JobRun]":
    """Run the warm set once (cold), so later repeats hit the store."""
    return [
        run_job(client, -1 - i, "prime", study, schedule.warm_seed(study))
        for i, study in enumerate(STUDIES)
    ]


def load(
    client,
    schedule: Schedule,
    seconds: "float | None",
    limit: "int | None" = None,
    calibration: "Calibration | None" = None,
):
    """Closed loop of :data:`CLIENTS` threads over the request sequence.

    Runs until *seconds* pass (requests in flight finish) or, when
    *limit* is given, until requests ``0 .. limit-1`` are done. With a
    *calibration*, the waiting main thread times the reference kernel
    every :data:`PERIOD_S` seconds meanwhile. Returns the jobs in request
    order and the ``perf_counter`` reading at the start.
    """
    lock = threading.Lock()
    state = {"next": 0}
    runs: "list[JobRun]" = []
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def client_loop() -> None:
        while True:
            with lock:
                index = state["next"]
                if (limit is not None and index >= limit) or (
                    deadline is not None and time.perf_counter() >= deadline
                ):
                    return
                state["next"] += 1
            try:
                run = run_job(client, index, *schedule.request(index))
            except Exception as error:  # noqa: BLE001 — reported as a failed job
                with lock:
                    runs.append(JobRun(index, "error", "", "", 0.0, repr(error), {}, 0))
                continue
            with lock:
                runs.append(run)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            if calibration is not None:
                calibration.sample()
            thread.join(PERIOD_S)
    return sorted(runs, key=lambda run: run.index), started


def scrape(url: str) -> "dict[str, float]":
    """Sum the :data:`SCRAPED` counters from the Prometheus exposition."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    totals = dict.fromkeys(SCRAPED, 0.0)
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        for key, metric in SCRAPED.items():
            if name == metric:
                totals[key] += float(line.rsplit(" ", 1)[1])
    return totals


# -- servers ---------------------------------------------------------------


class ProcessServer:
    """``repro serve --store DIR`` in a child process."""

    def __init__(self, root: Path, store: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(log, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store), "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        line = self.process.stdout.readline().strip()
        prefix = "estimation service on "
        if not line.startswith(prefix):
            self.stop()
            raise RuntimeError(f"server did not start (first line: {line!r}); see {log}")
        self.url = line[len(prefix) :]

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class InProcessServer:
    """The service hosted in this process via ``create_server``."""

    def __init__(self, store: Path):
        from repro.service import ServiceConfig, create_server

        self.server = create_server(ServiceConfig(host="127.0.0.1", port=0, store_root=store))
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self._thread.join()
        self.server.service.stop(timeout=60)
        self.server.server_close()


def wait_healthy(client, timeout: float = 120.0) -> None:
    """Poll ``/healthz`` every 5 ms until it answers."""
    from repro.errors import ServiceError

    deadline = time.perf_counter() + timeout
    while True:
        try:
            client.health()
            return
        except ServiceError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.005)


# -- checks ----------------------------------------------------------------


def check_jobs(runs: "list[JobRun]") -> "list[str]":
    """Every job completes, with the store traffic its kind implies."""
    problems = []
    for run in runs:
        if run.state != "complete":
            problems.append(f"request {run.index} ({run.kind} {run.study}): {run.state}")
            continue
        store = run.summary.get("store") or {}
        expected = {"hits": REPETITIONS, "misses": 0}
        if run.kind in ("cold", "prime"):
            expected = {"hits": 0, "misses": REPETITIONS}
        if {key: store.get(key) for key in expected} != expected:
            problems.append(f"request {run.index} ({run.kind} {run.study}): store {store}")
    return problems


def job_result(client, job_id: str) -> "dict[str, object]":
    return client.job(job_id).get("result") or {}


def check_outputs(client, primed: "list[JobRun]", runs: "list[JobRun]", schedule) -> "list[str]":
    """One cold CSV equals an in-process ``run_matrix``; warm repeats
    return the records of the job that primed them."""
    from repro.service.jobs import JobRequest

    matrix = importlib.import_module("repro.experiments.matrix")
    problems = []
    cold = next((run for run in runs if run.kind == "cold" and run.state == "complete"), None)
    if cold is not None:
        _, study, seed = schedule.request(cold.index)
        expected = matrix.run_matrix(JobRequest(**payload(study, seed)).to_matrix_config())
        if job_result(client, cold.job_id).get("csv") != expected.to_csv_text():
            problems.append(f"request {cold.index}: cold CSV differs from run_matrix")
    primed_records = {run.study: job_result(client, run.job_id).get("records") for run in primed}
    for study in STUDIES:
        warm = next((r for r in runs if r.kind == "warm" and r.study == study), None)
        if warm is not None and warm.state == "complete":
            if job_result(client, warm.job_id).get("records") != primed_records[study]:
                problems.append(f"request {warm.index}: warm records differ from the primed job")
    return problems


def job_counts(primed: "list[JobRun]", runs: "list[JobRun]") -> "dict[str, dict]":
    """Exact per-request work counts, for cross-run comparison."""
    return {
        f"request-{run.index}": {
            "kind": run.kind,
            "study": run.study,
            "store": run.summary.get("store"),
        }
        for run in primed + runs
    }


def percentile(values: "list[float]", q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_summary(runs: "list[JobRun]") -> "dict[str, float]":
    summary = {}
    for kind in ("warm", "cold"):
        values = [1000.0 * r.latency for r in runs if r.kind == kind and r.state == "complete"]
        summary[f"{kind}_ms_p50"] = percentile(values, 50)
        summary[f"{kind}_ms_p90"] = percentile(values, 90)
        summary[f"{kind}_jobs"] = len(values)
    return summary


# -- runs ------------------------------------------------------------------


def measure(root: Path, work: Path, seeds, seconds: float, setups_n: int) -> "dict[str, object]":
    """The untraced run: boot, prime, closed-loop load, checks.

    As in the batch workloads, set-up times and throughput are rated at
    the reference speed (:mod:`calibrate`). The server is another
    process, so the kernel cannot run inside the measured work: a burst
    of samples is timed before and after each boot, and single samples
    from the client's waiting main thread during the load window. Each
    span is rated by the median of its samples. Unrated, the throughput
    of ten seeds on a shared 2-core Xeon fell from 22 to 12 jobs/s as
    the machine slowed down. Timed inside the server process instead,
    the kernel contends with the job thread for the GIL; its samples
    there were three times as slow and twice as scattered.
    """
    from repro.service import ServiceClient

    schedule = Schedule(seeds)
    calibration = Calibration()
    setups: "list[float]" = []
    rated_setups: "list[float]" = []
    server = None
    try:
        for attempt in range(setups_n):
            if server is not None:
                server.stop()
                server = None
            first = len(calibration.samples)
            calibration.burst()
            started = time.perf_counter()
            server = ProcessServer(root, work / f"store-{attempt}", work / f"server-{attempt}.log")
            client = ServiceClient(server.url, timeout=120)
            wait_healthy(client)
            primed = prime(client, schedule)
            setups.append(time.perf_counter() - started)
            calibration.burst()
            reference = statistics.median(calibration.samples[first:])
            rated_setups.append(setups[-1] * REFERENCE_S / reference)
        before = scrape(server.url)
        first = len(calibration.samples)
        runs, started = load(client, schedule, seconds, calibration=calibration)
        calibration.sample()
        reference = statistics.median(calibration.samples[first:])
        after = scrape(server.url)
        rss = server.peak_rss_mb()
        problems = check_jobs(primed + runs)
        problems += check_outputs(client, primed, runs, schedule)
    finally:
        if server is not None:
            server.stop()
    # Jobs still in flight at the deadline finish and are checked, but
    # only completions inside the window count towards throughput.
    inside = [
        run.finished
        for run in runs
        if run.state == "complete" and run.finished <= started + seconds
    ]
    cold = sum(1 for run in runs if run.kind == "cold" and run.state == "complete")
    traces = after["traces"] - before["traces"]
    if traces != cold * REPETITIONS * TRACES:
        problems.append(f"{traces:.0f} traces simulated for {cold} cold jobs")
    ops = len(inside) / (max(inside) - started) if inside else 0.0
    return {
        "setup_s": statistics.median(rated_setups),
        "setups": setups,
        "ops_per_s": ops * reference / REFERENCE_S,
        "unscaled_ops_per_s": ops,
        "reference_s": reference,
        "peak_rss_mb": rss,
        "latency": latency_summary(runs),
        "attempted": len(primed) + len(runs),
        "failed": len(problems),
        "problems": problems,
        "counts": job_counts(primed, runs),
    }


def _window(client, schedule, seconds, limit):
    """Prime, then load; return everything a comparison needs."""
    before = scrape(client.base_url)
    primed = prime(client, schedule)
    runs, started = load(client, schedule, seconds, limit)
    wall = max(run.finished for run in runs) - started
    after = scrape(client.base_url)
    results = {
        run.index: job_result(client, run.job_id).get("csv")
        for run in primed + runs
        if run.kind in ("prime", "cold") and run.state == "complete"
    }
    return primed, runs, wall, {key: after[key] - before[key] for key in SCRAPED}, results


def measure_traced(work: Path, seeds, seconds: float) -> "dict[str, object]":
    """The traced run: an untraced in-process window, then the same
    requests against a fresh store under the layer tracer."""
    from repro.service import ServiceClient

    schedule = Schedule(seeds)
    plain = InProcessServer(work / "store-untraced")
    try:
        client = ServiceClient(plain.url, timeout=120)
        primed, runs, wall, _, results = _window(client, schedule, seconds / 2.0, None)
    finally:
        plain.stop()
    tracer = LayerTracer()
    install_layers(tracer)
    with tracer:
        timed = InProcessServer(work / "store-traced")
        try:
            client = ServiceClient(timed.url, timeout=120)
            primed_t, runs_t, wall_t, scraped, results_t = _window(
                client, schedule, None, len(runs)
            )
        finally:
            timed.stop()
    problems = check_jobs(primed + runs) + check_jobs(primed_t + runs_t)
    for index, csv in results.items():
        if results_t.get(index) != csv:
            problems.append(f"request {index}: traced result differs from untraced result")
    if job_counts(primed, runs) != job_counts(primed_t, runs_t):
        problems.append("traced work counts differ from untraced work counts")
    return {
        "metrics": layer_metrics(tracer, runs, runs_t, wall, wall_t, scraped),
        "attempted": 2 * (len(primed) + len(runs)),
        "failed": len(problems),
        "problems": problems,
        "counts": job_counts(primed, runs),
    }


def layer_metrics(tracer: LayerTracer, runs, runs_t, wall, wall_t, scraped) -> "dict[str, float]":
    """Per-layer metrics of the traced window, per executed job."""
    executed = tracer.results["service.execute_job"]
    jobs = max(1, len(executed))
    submitted: "dict[str, float]" = {}
    for job_id, started in tracer.results["service.submit"]:
        submitted.setdefault(job_id, started)
    latency = {run.job_id: run.latency for run in runs_t if run.state == "complete"}
    queue_wait, execution, http = [], [], []
    for job_id, started, elapsed in executed:
        if job_id not in submitted or job_id not in latency:
            continue
        queue_wait.append(1000.0 * (started - submitted[job_id]))
        execution.append(1000.0 * elapsed)
        http.append(1000.0 * (latency[job_id] - (started + elapsed - submitted[job_id])))
    gets = tracer.results["store.get"]
    puts = tracer.results["store.put"]
    inclusive = tracer.inclusive
    latencies = latency_summary(runs)
    metrics = {
        "smc.busy_s": inclusive["smc.simulate"] / jobs,
        "smc.traces": scraped["traces"] / jobs,
        "smc.steps": scraped["steps"] / jobs,
        "smc.traces_per_s": (
            scraped["traces"] / inclusive["smc.simulate"] if inclusive["smc.simulate"] else 0.0
        ),
        "importance.estimate_busy_s": inclusive["importance.estimate"] / jobs,
        "experiments.self_s": tracer.layer_self["experiments"] / jobs,
        "store.gets": len(gets) / jobs,
        "store.puts": len(puts) / jobs,
        "store.hits": scraped["hits"] / jobs,
        "store.misses": scraped["misses"] / jobs,
        "store.get_ms_p50": 1000.0 * statistics.median(gets) if gets else 0.0,
        "store.put_ms_p50": 1000.0 * statistics.median(puts) if puts else 0.0,
        "service.queue_wait_ms_p50": statistics.median(queue_wait) if queue_wait else 0.0,
        "service.exec_ms_p50": statistics.median(execution) if execution else 0.0,
        "service.http_ms_p50": statistics.median(http) if http else 0.0,
        "service.refused": float(sum(run.refused for run in runs_t)),
        "service.jobs": float(len(runs_t)),
        "service.warm_ms_p50": latencies["warm_ms_p50"],
        "service.warm_ms_p90": latencies["warm_ms_p90"],
        "service.cold_ms_p50": latencies["cold_ms_p50"],
        "service.cold_ms_p90": latencies["cold_ms_p90"],
        "obs.trace_overhead_frac": wall_t / wall - 1.0,
    }
    for study, seconds in build_times(tracer).items():
        metrics[f"models.build_s.{study}"] = seconds
    return metrics
