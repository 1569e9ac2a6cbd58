"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
::

    repro info
    repro table1 --reps 10 --samples 2000
    repro table2 --study illustrative --reps 20
    repro fig3 --samples 5000 --out results/
    repro fig5 --points 21
    repro matrix --quick --workers 4 --out results/
    repro serve --store runs/store --port 8000
    repro submit --study illustrative --estimator is --wait
    repro jobs

Every command prints an ASCII rendering; ``--out DIR`` additionally writes
the underlying CSV series.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.errors import EstimationError, ModelError, ServiceError, StoreError
from repro.experiments.figures import (
    BoundEvolution,
    IntervalSeries,
    ProbabilityCurve,
    write_csv,
)
# The matrix module's estimator table is the single source of truth for
# estimator names: the parser reads matrix.ESTIMATORS at build time (not
# import time) so registering a new estimator updates the CLI surfaces too.
from repro.experiments import matrix as matrix_experiments
from repro.experiments.matrix import MatrixConfig, run_matrix
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import render_table2, run_table2
from repro.imcis.algorithm import IMCISConfig, imcis_estimate
from repro.imcis.random_search import RandomSearchConfig
from repro.models import illustrative, repair_group
from repro.models.registry import REGISTRY
from repro.obs import trace as obs_trace
from repro.obs.runprofile import RunProfile
from repro.service import ServiceClient, ServiceConfig, create_server
from repro.store import FORMAT_VERSION, ArtifactStore, RunManifest


def _obs_note() -> str:
    """Observability status note appended to ``--version`` output."""
    status = obs_trace.status()
    state = "on" if status["enabled"] else "off"
    sink = status["trace_file"] or "none"
    return f"(obs: tracing {state}, ring {status['ring_size']}, sink {sink})"


def _workers_arg(value: str) -> "int | str":
    """Parse ``--workers``: the literal ``auto`` or a positive integer."""
    if value == "auto":
        return value
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be positive, got {workers}")
    return workers


def _positive_int(value: str) -> int:
    """Parse a count that must be a positive integer (``--reps`` etc.)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2018, help="root RNG seed")
    parser.add_argument("--samples", type=_positive_int, help="traces per repetition")
    parser.add_argument("--reps", type=_positive_int, help="number of repetitions")
    parser.add_argument("--out", type=Path, default=None, help="directory for CSV output")
    parser.add_argument(
        "--r-undefeated", type=_positive_int, default=1000, help="random-search stopping R"
    )
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="worker processes for the repetition fan-out ('auto' = CPU "
        "count, 1 = run everything in-process); repetition results are "
        "bitwise identical for every value, on every machine",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="artifact store directory: per-repetition results are cached "
        "content-addressed by (study, estimator config, seed, versions), "
        "so reruns only simulate cache misses; cached and fresh results "
        "are bitwise identical",
    )


def _study_for(name: str, seed: int):
    """Resolve *name* through the registry (seeded factories get *seed*)."""
    try:
        return REGISTRY.make_study(name, rng=seed)
    except ModelError as error:
        raise SystemExit(str(error)) from None


def cmd_info(args: argparse.Namespace) -> int:
    """Print the model inventory and exact probabilities."""
    print("IMCIS reproduction — Jegourel, Wang, Sun, DSN 2018")
    print()
    print("illustrative:  4 states,  gamma =", illustrative.exact_probability())
    print(
        "               gamma(A_hat) =",
        illustrative.exact_probability(illustrative.A_HAT, illustrative.C_HAT),
    )
    chain = repair_group.embedded_chain()
    print(
        f"group repair:  {chain.n_states} states, gamma(alpha=0.1) =",
        repair_group.exact_probability(repair_group.ALPHA_TRUE),
    )
    print("swat truth:    70 states (synthetic surrogate; see docs/paper-map.md, §VI-D)")
    print("large repair:  40320 states (build with `repro table2 --study large-repair`)")
    print()
    print("registered studies (run the matrix over them with `repro matrix`):")
    for spec in REGISTRY:
        tags = f"  [{', '.join(sorted(spec.tags))}]" if spec.tags else ""
        print(f"  {spec.name:<14} {spec.description}{tags}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate Table I."""
    reps = args.reps or 100
    samples = args.samples or 10_000
    store = ArtifactStore(args.store) if args.store else None
    started = time.time()
    result = run_table1(
        reps,
        samples,
        args.r_undefeated,
        rng=args.seed,
        workers=args.workers,
        store=store,
    )
    if store is not None:
        print(f"store: {store.stats.summary()}")
    print(result.render())
    print(f"[{reps} repetitions x {samples} traces in {time.time() - started:.1f}s]")
    if args.out:
        path = write_csv(
            args.out / "table1.csv", ["nr", "amin", "cmin", "amax", "cmax"], result.rows()
        )
        print("wrote", path)
    return 0


def _search_config(args: argparse.Namespace) -> RandomSearchConfig:
    return RandomSearchConfig(r_undefeated=args.r_undefeated, record_history=False)


def _run_coverage(args: argparse.Namespace, studies: list) -> list:
    """Run Table II's protocol on *studies*; with ``--store``, print its summary."""
    store = ArtifactStore(args.store) if args.store else None
    reports = run_table2(
        studies,
        args.reps or 100,
        rng=args.seed,
        search=_search_config(args),
        n_samples=args.samples,
        workers=args.workers,
        store=store,
    )
    if store is not None:
        print(f"store: {store.stats.summary()}")
    return reports


def _run_study_coverage(args: argparse.Namespace, study_name: str):
    study = _study_for(study_name, args.seed)
    (report,) = _run_coverage(args, [study])
    return study, report


def cmd_table2(args: argparse.Namespace) -> int:
    """Regenerate Table II for one or all case studies."""
    names = [args.study] if args.study else ["illustrative", "group-repair", "swat"]
    started = time.time()
    reports = _run_coverage(args, [_study_for(name, args.seed) for name in names])
    print(render_table2(reports))
    print(f"[{time.time() - started:.1f}s]")
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    """Regenerate Figure 2 (interval superposition)."""
    study, report = _run_study_coverage(args, args.study or "group-repair")
    series = IntervalSeries.from_report(report, study.confidence)
    print(series.render())
    print(f"IS interval inside IMCIS interval in {series.containment_fraction():.0%} of runs")
    if args.out:
        path = write_csv(
            args.out / f"fig2_{series.study}.csv",
            ["rep", "is_low", "is_high", "imcis_low", "imcis_high"],
            series.rows(),
        )
        print("wrote", path)
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    """Regenerate Figure 3 (bound evolution)."""
    study = _study_for(args.study or "group-repair", args.seed)
    samples = args.samples or study.n_samples
    config = IMCISConfig(
        confidence=study.confidence,
        search=RandomSearchConfig(r_undefeated=args.r_undefeated, record_history=True),
    )
    if args.store:
        print("note: --store caches repetition experiments; fig3 is a single run and ignores it")
    # No workers= here: fig3 is a single run, and the repetition fan-out
    # has nothing to spread.
    result = imcis_estimate(
        study.imc,
        study.proposal,
        study.formula,
        samples,
        np.random.default_rng(args.seed),
        config,
    )
    evolution = BoundEvolution.from_result(result)
    print(evolution.render())
    if args.out:
        path = write_csv(args.out / "fig3.csv", ["round", "lower", "upper"], evolution.rows())
        print("wrote", path)
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    """Regenerate Figure 4 (SWaT intervals)."""
    args.study = "swat"
    study, report = _run_study_coverage(args, "swat")
    series = IntervalSeries.from_report(report, study.confidence)
    print(series.render())
    print("disjoint IS interval pairs:", series.is_pairwise_disjoint_count())
    if args.out:
        path = write_csv(
            args.out / "fig4.csv",
            ["rep", "is_low", "is_high", "imcis_low", "imcis_high"],
            series.rows(),
        )
        print("wrote", path)
    return 0


def _matrix_config(args: argparse.Namespace) -> MatrixConfig:
    """Build the matrix configuration from parsed CLI arguments."""
    studies = tuple(args.studies.split(",")) if args.studies else None
    estimators = tuple(args.estimators.split(","))
    repetitions = args.reps or (4 if args.quick else 20)
    n_samples = args.samples if args.samples is not None else (1000 if args.quick else None)
    # The matrix parser defaults --r-undefeated to None (not 1000) so an
    # explicit value always wins; unset, --quick scales the search down.
    if args.r_undefeated is not None:
        search_rounds = args.r_undefeated
    else:
        search_rounds = 100 if args.quick else 1000
    return MatrixConfig(
        studies=studies,
        estimators=estimators,
        repetitions=repetitions,
        n_samples=n_samples,
        search_rounds=search_rounds,
        quick=args.quick,
        seed=args.seed,
        workers=args.workers,
    )


def cmd_matrix(args: argparse.Namespace) -> int:
    """Run the cross-study experiment matrix over the registry."""
    if args.profile is not None:
        # The profile distills the span stream, so profiling turns
        # tracing on; stale buffered events are dropped so the profile
        # covers exactly this run. Results are unaffected (tracing
        # observes, never perturbs — see repro.obs).
        obs_trace.configure(enabled=True)
        obs_trace.reset()
    store = ArtifactStore(args.store) if args.store else None
    manifest: RunManifest | None = None
    if args.resume:
        if store is None:
            raise SystemExit("--resume needs --store DIR (the store holding the run)")
        try:
            manifest = store.load_manifest(args.resume)
            if manifest.command != "matrix":
                raise SystemExit(f"run {args.resume!r} is a {manifest.command!r} run, not a matrix")
            config = MatrixConfig.from_payload(manifest.config)
        except StoreError as error:
            raise SystemExit(str(error)) from None
        print(f"resuming run {manifest.run_id} ({manifest.status})")
    else:
        config = _matrix_config(args)
        if store is not None:
            manifest = RunManifest(
                run_id=store.new_run_id("matrix"),
                command="matrix",
                config=config.to_payload(),
                status="running",
                created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            )
            store.save_manifest(manifest)
            print(
                f"run {manifest.run_id} (resume with: repro matrix "
                f"--resume {manifest.run_id} --store {args.store})"
            )
    started = time.time()
    try:
        result = run_matrix(config, store=store)
    except (ModelError, EstimationError, StoreError) as error:
        raise SystemExit(str(error)) from None
    if store is not None and manifest is not None:
        store.save_manifest(
            RunManifest(
                run_id=manifest.run_id,
                command=manifest.command,
                config=manifest.config,
                status="complete",
                keys=tuple(sorted(store.touched_keys)),
                created=manifest.created,
            )
        )
        print(f"store: {store.stats.summary()}")
    print(result.render())
    elapsed = time.time() - started
    print(f"[{len(result.cells)} cells x {config.repetitions} repetitions in {elapsed:.1f}s]")
    if args.profile is not None:
        profile = RunProfile.from_events(obs_trace.events())
        args.profile.parent.mkdir(parents=True, exist_ok=True)
        args.profile.write_text(profile.to_json() + "\n")
        print(profile.render())
        print("wrote", args.profile)
    failing = result.failing_cells()
    for cell in failing:
        print(
            f"WARNING: {cell.study}/{cell.estimator} mean interval "
            f"[{cell.ci_low:.6g}, {cell.ci_high:.6g}] misses gamma_true {cell.gamma_true:.6g}"
        )
    if args.out:
        for path in result.write(args.out).values():
            print("wrote", path)
    if args.check and failing:
        # Name the offending cells on stderr so a failing --check run is
        # diagnosable from the error stream alone (CI logs, `2>errors`).
        names = ", ".join(f"({cell.study}, {cell.estimator})" for cell in failing)
        print(
            f"FAIL: {len(failing)} cell(s) miss gamma_true: {names}",
            file=sys.stderr,
        )
        return 1
    return 0


def _store_ls(store: ArtifactStore, fmt: str) -> int:
    """List the store's runs and records (O(index): no segment is read)."""
    document = store.describe()
    if fmt == "json":
        print(json.dumps(document, indent=2))
        return 0
    totals = document["totals"]
    print(f"artifact store at {document['root']} (format v{document['format']})")
    print(f"runs: {totals['runs']}")
    for run in document["runs"]:
        created = f"  {run['created']}" if run["created"] else ""
        print(
            f"  {run['run_id']:<18} {run['command']:<8} {run['status']:<9}"
            f" {run['keys']} key(s){created}"
        )
    print(f"records: {totals['keys']} key(s), {totals['records']} record(s), "
          f"{totals['bytes']:,} bytes")
    for entry in document["records"]:
        print(f"  {entry['key']}  {entry['records']} record(s)")
    return 0


def _store_inspect(store: ArtifactStore, run_id: str | None, key: str | None, fmt: str) -> int:
    """Validate stored records; show one run's manifest or one key's records."""
    manifest = None
    if run_id is not None:
        manifest = store.load_manifest(run_id)
        keys = list(manifest.keys)
    else:
        keys = [key] if key is not None else list(store.iter_keys())
    checked = []
    status = 0
    for k in keys:
        valid, problems = store.verify(k)
        if problems:
            status = 1
        checked.append({"key": k, "records": valid, "problems": problems})
    if fmt == "json":
        document = {
            "root": str(store.root),
            "format": FORMAT_VERSION,
            "run": None if manifest is None else json.loads(manifest.to_json()),
            "records": checked,
            "ok": status == 0,
        }
        print(json.dumps(document, indent=2))
        return status
    if manifest is not None:
        print(manifest.to_json())
        if not manifest.keys:
            print("(run lists no keys yet — it has not completed)")
    for entry in checked:
        line = f"{entry['key']}  {entry['records']} valid record(s)"
        if entry["problems"]:
            line += f", {len(entry['problems'])} problem(s)"
        print(line)
        for problem in entry["problems"]:
            print(f"    {problem}")
    return status


def _store_gc(
    store: ArtifactStore,
    drop_unreferenced: bool,
    dry_run: bool,
    older_than: float | None,
    fmt: str,
) -> int:
    """Compact segments, dropping corrupt frames, duplicates and orphans."""
    counters = store.gc(
        drop_unreferenced=drop_unreferenced, dry_run=dry_run, older_than=older_than
    )
    if fmt == "json":
        print(json.dumps({"root": str(store.root), "format": FORMAT_VERSION, **counters}, indent=2))
        return 0
    prefix = "would keep" if dry_run else "kept"
    print(
        f"{prefix} {counters['records_kept']} record(s), "
        f"dropped {counters['lines_dropped']} corrupt/duplicate record(s), "
        f"dropped {counters['keys_dropped']} orphaned key(s), "
        f"deleted {counters['files_deleted']} file(s) and "
        f"{counters['segments_removed']} segment(s)"
    )
    if drop_unreferenced and counters["in_flight_runs"]:
        print(
            f"note: {counters['in_flight_runs']} run(s) still 'running' — "
            "unreferenced records kept (an interrupted run records its keys "
            "only on completion, so its resumable records look like orphans)"
        )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Artifact-store maintenance: ls, inspect, gc."""
    store = ArtifactStore(args.store)
    fmt = args.format
    try:
        if args.store_command == "ls":
            return _store_ls(store, fmt)
        if args.store_command == "inspect":
            return _store_inspect(store, args.run, args.key, fmt)
        return _store_gc(store, args.drop_unreferenced, args.dry_run, args.older_than, fmt)
    except StoreError as error:
        raise SystemExit(str(error)) from None


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the estimation service until SIGINT/SIGTERM, then drain."""
    if args.access_log:
        logger = logging.getLogger("repro.service")
        if not logger.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(message)s"))
            logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store_root=args.store,
        capacity=args.queue_size,
        job_workers=args.job_workers,
        workers=None if args.workers == 1 else args.workers,
        fleet_root=args.fleet,
        reuse_port=args.reuse_port,
        access_log=args.access_log,
    )
    try:
        server = create_server(config)
    except OSError as error:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {error}") from None
    host, port = server.server_address[:2]
    print(f"estimation service on http://{host}:{port}")
    if args.fleet is not None:
        print(f"  fleet: stateless front end over {args.fleet}")
        print("         run 'repro worker --store' against the same directory")
        print(f"  queue: {args.queue_size} pending jobs max (durable, fleet-wide)")
    else:
        print(f"  store: {args.store or '(none — every job simulates)'}")
        print(f"  queue: {args.queue_size} waiting jobs max, {args.job_workers} job worker(s)")
    print("  stop:  SIGINT/SIGTERM drains the queue and exits")
    stop_requested = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop_requested.set()
        # shutdown() must not run on the signal handler's (main) thread
        # while serve_forever blocks it — hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {sig: signal.signal(sig, _request_stop) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if args.fleet is not None:
            print("stopping front end (durable queue and workers are unaffected)")
        else:
            print("draining: waiting for in-flight jobs, cancelling queued ones")
        server.service.stop()  # type: ignore[attr-defined]
        server.server_close()
        print("stopped")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one fleet pull worker until signalled (or drained/idle)."""
    from repro.service.fleet import FleetWorker

    worker = FleetWorker(
        args.store,
        owner=args.owner,
        lease_ttl=args.lease_ttl,
        poll=args.poll,
        workers=None if args.workers == 1 else args.workers,
    )
    print(f"fleet worker {worker.owner} on {args.store}")
    print(f"  lease ttl {args.lease_ttl:g}s (heartbeat every {args.lease_ttl / 3.0:g}s)")
    print("  stop: SIGINT/SIGTERM exits after the job in flight")

    def _request_stop(signum: int, frame: object) -> None:
        worker.stop()

    previous = {sig: signal.signal(sig, _request_stop) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        stats = worker.run(max_jobs=args.max_jobs, idle_exit=args.idle_exit)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(
        f"worker done: {stats['completed']} completed, {stats['failed']} failed, "
        f"{stats['stale']} stale (of {stats['claimed']} claimed)"
    )
    return 0


def _submit_payload(args: argparse.Namespace) -> "dict[str, object]":
    payload: "dict[str, object]" = {
        "study": args.study,
        "estimator": args.estimator,
        "repetitions": args.reps,
        "seed": args.seed,
        "search_rounds": args.r_undefeated,
        "quick": args.quick,
    }
    if args.samples is not None:
        payload["n_samples"] = args.samples
    return payload


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one estimation job to a running service."""
    client = ServiceClient(args.url)
    try:
        submitted = client.submit(_submit_payload(args), retries=args.retries)
        job_id = str(submitted["id"])
        note = " (deduplicated onto an in-flight job)" if submitted.get("deduplicated") else ""
        print(f"job {job_id}{note}")
        if not args.wait:
            print(f"poll with: repro jobs --url {args.url} --job {job_id}")
            return 0
        snapshot = client.wait(job_id, timeout=args.timeout)
        print(json.dumps(snapshot, indent=2))
        return 0 if snapshot["state"] == "complete" else 1
    except ServiceError as error:
        raise SystemExit(str(error)) from None


def cmd_jobs(args: argparse.Namespace) -> int:
    """List a running service's jobs, or show one job."""
    client = ServiceClient(args.url)
    try:
        if args.job:
            print(json.dumps(client.job(args.job), indent=2))
            return 0
        jobs = client.jobs()
        if args.json:
            print(json.dumps(jobs, indent=2))
            return 0
        print(f"{len(jobs)} job(s) at {args.url}")
        for job in jobs:
            request = job["request"]
            print(
                f"  {job['id']}  {job['state']:<9} {request['study']}/{request['estimator']}"
                f"  reps={request['repetitions']} seed={request['seed']}"
            )
        return 0
    except ServiceError as error:
        raise SystemExit(str(error)) from None


def _format_trace_record(record: "dict[str, object]") -> str:
    """One aligned human-readable line for a trace-file record."""
    kind = str(record.get("kind", "?"))
    name = str(record.get("name", "?"))
    depth = int(record.get("depth", 0) or 0)
    ts = float(record.get("ts", 0.0) or 0.0)
    clock = time.strftime("%H:%M:%S", time.localtime(ts)) if ts else "--:--:--"
    duration = record.get("dur_s")
    timing = f"{float(duration) * 1e3:9.2f}ms" if duration is not None else " " * 11
    fields = record.get("fields")
    suffix = ""
    if isinstance(fields, dict) and fields:
        pairs = " ".join(f"{key}={fields[key]}" for key in sorted(fields))
        suffix = f"  {pairs}"
    error = record.get("error")
    if error:
        suffix += f"  error={error}"
    indent = "  " * depth
    return f"{clock} {timing}  {indent}{kind:<5} {name}{suffix}"


def cmd_obs(args: argparse.Namespace) -> int:
    """Observability utilities (``repro obs tail``)."""
    path = args.file
    if path is None:
        configured = os.environ.get("REPRO_TRACE_FILE", "").strip()
        if not configured:
            raise SystemExit("no trace file: pass --file PATH or set REPRO_TRACE_FILE")
        path = Path(configured)
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise SystemExit(f"cannot read trace file {path}: {error}") from None
    records: "list[dict[str, object]]" = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail line from a live writer
        if isinstance(record, dict):
            records.append(record)
    tail = records[-args.lines :] if args.lines > 0 else records
    for record in tail:
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(_format_trace_record(record))
    print(f"[{len(tail)} of {len(records)} event(s) from {path}]", file=sys.stderr)
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    """Regenerate Figure 5 (probability curve)."""
    grid, values = repair_group.probability_curve(points=args.points)
    curve = ProbabilityCurve("alpha", grid, values)
    print(curve.render())
    if args.out:
        path = write_csv(args.out / "fig5.csv", ["alpha", "gamma"], curve.rows())
        print("wrote", path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Importance Sampling of Interval Markov Chains' (DSN 2018)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__} {_obs_note()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="model inventory and exact probabilities")

    p = sub.add_parser("table1", help="Table I random-search statistics")
    _add_common(p)

    study_names = REGISTRY.list_studies()

    p = sub.add_parser("table2", help="Table II IS vs IMCIS coverage")
    _add_common(p)
    p.add_argument("--study", choices=study_names)

    p = sub.add_parser("fig2", help="Figure 2 interval superposition")
    _add_common(p)
    p.add_argument("--study", choices=study_names)

    p = sub.add_parser("fig3", help="Figure 3 bound evolution")
    _add_common(p)
    p.add_argument("--study", choices=study_names)

    p = sub.add_parser("fig4", help="Figure 4 SWaT intervals")
    _add_common(p)

    p = sub.add_parser("matrix", help="cross-study experiment matrix over the registry")
    _add_common(p)
    p.add_argument(
        "--studies",
        default=None,
        help="comma-separated study names (default: every registered study; "
        "with --quick, every study not tagged slow)",
    )
    p.add_argument(
        "--estimators",
        default=",".join(matrix_experiments.DEFAULT_ESTIMATORS),
        help="comma-separated estimators out of "
        f"{', '.join(matrix_experiments.ESTIMATORS)} (default: %(default)s)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="smoke configuration: skip slow studies, apply quick study "
        "parameters, default to 4 repetitions x 1000 traces and R = 100",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any cell's mean interval misses gamma_true",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume an interrupted store-backed run: replay its recorded "
        "configuration, serving already-completed repetitions from the "
        "store (requires --store; run ids are printed at run start and "
        "by `repro store ls`)",
    )
    p.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="PATH",
        help="enable tracing for the run, write the per-phase timing "
        "profile (simulate / weight-accumulate / store-get / store-put / "
        "optimize) to PATH as JSON and print its table; never affects "
        "results",
    )
    # None (not 1000) so cmd_matrix can tell an explicit R from the default.
    p.set_defaults(r_undefeated=None)

    p = sub.add_parser("store", help="artifact-store maintenance")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    def _store_common(q: argparse.ArgumentParser) -> None:
        q.add_argument("--store", type=Path, required=True, help="store directory")
        q.add_argument(
            "--format",
            choices=("json", "table"),
            default="table",
            help="output contract: 'json' emits one machine-readable document "
            "with the same field names the HTTP service's store endpoint "
            "serves (default: %(default)s)",
        )

    q = store_sub.add_parser("ls", help="list runs and stored records (O(index))")
    _store_common(q)
    q = store_sub.add_parser("inspect", help="validate record integrity; show a run or a key")
    _store_common(q)
    q.add_argument("--run", default=None, metavar="RUN_ID", help="show one run's manifest")
    q.add_argument("--key", default=None, help="restrict to one config key")
    q = store_sub.add_parser(
        "gc", help="compact segments: drop corrupt records and duplicates"
    )
    _store_common(q)
    q.add_argument(
        "--drop-unreferenced",
        action="store_true",
        help="also delete records no run manifest references",
    )
    q.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would happen without touching the store (strictly read-only)",
    )
    q.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="SECONDS",
        help="spare segments and files modified within the last "
        "SECONDS (safe beside live writers)",
    )

    p = sub.add_parser("fig5", help="Figure 5 probability curve")
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("serve", help="run the HTTP estimation service")
    p.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    p.add_argument("--port", type=int, default=8000, help="port (0 = ephemeral)")
    p.add_argument(
        "--store",
        type=Path,
        default=None,
        help="artifact store jobs consult and extend: repeat queries are "
        "served warm from disk, bitwise identical to fresh runs",
    )
    p.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="bound on waiting jobs; beyond it submissions get HTTP 429 "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--job-workers",
        type=int,
        default=1,
        help="threads executing jobs concurrently (default: %(default)s)",
    )
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="default per-job repetition fan-out processes ('auto' = CPU "
        "count; default 1 — the job axis usually owns concurrency)",
    )
    p.add_argument(
        "--fleet",
        type=Path,
        default=None,
        metavar="STORE_DIR",
        help="fleet mode: serve as a stateless front end over the durable "
        "queue in this shared store directory (jobs execute in 'repro "
        "worker' processes, any replica serves any job id)",
    )
    p.add_argument(
        "--reuse-port",
        action="store_true",
        help="bind with SO_REUSEPORT so multiple replicas share one address",
    )
    p.add_argument(
        "--access-log",
        action="store_true",
        help="log one line per request (method, path, status, duration) "
        "through the 'repro.service' logger on stderr",
    )

    p = sub.add_parser("worker", help="run a fleet pull worker over a shared store")
    p.add_argument(
        "--store",
        type=Path,
        required=True,
        help="the shared store directory ('repro serve --fleet' front ends "
        "point at the same one)",
    )
    p.add_argument(
        "--owner",
        default=None,
        help="lease owner identity (default: host:pid:random)",
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        help="seconds a claimed job survives without a heartbeat before "
        "another worker may re-claim it (default: %(default)s)",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="idle seconds between queue scans (default: %(default)s)",
    )
    p.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after executing this many jobs (default: run until signalled)",
    )
    p.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="exit after this many consecutive idle seconds (CI harnesses)",
    )
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="per-job repetition fan-out when the request did not pin one "
        "('auto' = CPU count; default: %(default)s)",
    )

    p = sub.add_parser("submit", help="submit one estimation job to a running service")
    p.add_argument("--url", default="http://127.0.0.1:8000", help="service root URL")
    p.add_argument("--study", required=True, choices=study_names)
    p.add_argument(
        "--estimator",
        default="is",
        choices=list(matrix_experiments.ESTIMATORS),
        help="estimator to run",
    )
    p.add_argument("--reps", type=int, default=4, help="repetitions of the cell")
    p.add_argument("--samples", type=int, default=None, help="traces per repetition")
    p.add_argument("--seed", type=int, default=2018, help="root RNG seed")
    p.add_argument(
        "--r-undefeated", type=int, default=100, help="random-search stopping parameter R"
    )
    p.add_argument("--quick", action="store_true", help="apply the study's quick parameters")
    p.add_argument("--wait", action="store_true", help="block until the job finishes")
    p.add_argument("--timeout", type=float, default=600.0, help="--wait timeout in seconds")
    p.add_argument(
        "--retries", type=int, default=0, help="retries (with backoff) while the queue is full"
    )

    p = sub.add_parser("jobs", help="list a running service's jobs")
    p.add_argument("--url", default="http://127.0.0.1:8000", help="service root URL")
    p.add_argument("--job", default=None, metavar="JOB_ID", help="show one job in full")
    p.add_argument("--json", action="store_true", help="machine-readable job list")

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    q = obs_sub.add_parser("tail", help="show the tail of a JSON-lines trace file")
    q.add_argument(
        "--file",
        type=Path,
        default=None,
        help="trace file to read (default: $REPRO_TRACE_FILE)",
    )
    q.add_argument(
        "--lines",
        type=int,
        default=20,
        help="events to show, 0 = all (default: %(default)s)",
    )
    q.add_argument(
        "--json",
        action="store_true",
        help="print raw JSON lines instead of the aligned rendering",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "table1": cmd_table1,
        "table2": cmd_table2,
        "fig2": cmd_fig2,
        "fig3": cmd_fig3,
        "fig4": cmd_fig4,
        "fig5": cmd_fig5,
        "matrix": cmd_matrix,
        "store": cmd_store,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "obs": cmd_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
