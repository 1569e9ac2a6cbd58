"""Repository benchmark: IMCIS search, IS/CE estimation and the service.

Usage, from the repository root::

    python3 perfbench/run.py --workload imcis-wide --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics. The metric names, units and workload rationales are in
``BENCHMARK.json``; ``perfbench/README.md`` says what each one measures.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The benchmark imports the program from ``src/`` of the checkout it sits
in and exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space (stores, logs) and the per-seed work counts of earlier runs.
STATE = ROOT / ".perfbench"
WORKLOADS = ("imcis-wide", "imcis-narrow", "estimate", "serve")
#: Set-up samples per run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds between reference-kernel samples taken while a set-up runs.
PROBE_PERIOD_S = 0.1


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def seeder(seed: int):
    """Deterministic 31-bit sub-seeds of the run seed."""

    def derive(*keys: object) -> int:
        digest = hashlib.sha256(json.dumps([seed, *keys]).encode()).digest()
        return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF

    return derive


def source_digest() -> str:
    """SHA-256 over the program sources (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> "dict[str, object]":
    import numpy

    import repro
    from repro.smc.kernels import kernel_runtime_info

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        rev = done.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "git_rev": rev,
        "source_sha256": source_digest(),
        "kernel": kernel_runtime_info(),
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL"),
    }


def setup_once(workload: str, seed: int) -> float:
    """Import the program and build the workload's studies; seconds taken."""
    started = time.perf_counter()
    import repro.experiments.matrix  # noqa: F401 — the import is what is timed
    from repro.models.registry import REGISTRY

    from batch import WORKLOADS as BATCH

    for study in BATCH[workload].studies:
        REGISTRY.make_study(study, rng=seeder(seed)(0), quick=True)
    return time.perf_counter() - started


def batch_setup(workload: str, seed: int) -> "tuple[float, list[float]]":
    """Median of set-ups in fresh processes, each rated at the reference
    machine speed; also the raw samples.

    The machine's speed changes within a second, so each set-up is rated
    by the mean of the reference kernel timed in this process, on the
    other core, every :data:`PROBE_PERIOD_S` seconds while it runs.
    """
    from calibrate import REFERENCE_S, Calibration

    calibration = Calibration()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples: "list[float]" = []
    rated: "list[float]" = []
    for _ in range(SETUPS):
        first = len(calibration.samples)
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        deadline = time.perf_counter() + 120
        try:
            while True:
                calibration.sample()
                try:
                    out, err = child.communicate(timeout=PROBE_PERIOD_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() > deadline:
                        raise
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        samples.append(float(out.strip().splitlines()[-1]))
        reference = statistics.fmean(calibration.samples[first:])
        rated.append(samples[-1] * REFERENCE_S / reference)
    return statistics.median(rated), samples


def compare_counts(workload: str, seed: int, digest: str, counts: dict) -> "list[str]":
    """Fail on any work count that differs from an earlier run at this seed.

    Counts are kept per source digest, so a changed program starts afresh.
    """
    path = STATE / "counts" / f"{workload}-{seed}-{digest[:16]}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"work counts of {key} differ from an earlier run at seed {seed}"
        for key, value in counts.items()
        if key in known and known[key] != value
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**counts, **known}, indent=1, sort_keys=True))
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for name in ("REPRO_TRACE", "REPRO_TRACE_FILE"):
        if os.environ.get(name):
            return fail(f"{name} is set; unset it, tracing perturbs the measurement")
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no program sources at {SRC}; run from a repository checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json is missing")
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_probe:
        print(setup_once(args.workload, args.seed))
        return 0

    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in spec[section]}
    seeds = seeder(args.seed)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve":
            import serve

            if args.trace:
                outcome = serve.measure_traced(work, seeds, args.seconds)
            else:
                outcome = serve.measure(ROOT, work, seeds, args.seconds, SETUPS)
        else:
            # Set-up first. Untraced, it is timed in fresh processes; traced,
            # it only loads the program and the studies into this one.
            if args.trace:
                setup_once(args.workload, args.seed)
            else:
                setup, setups = batch_setup(args.workload, args.seed)
            import batch

            workload = batch.WORKLOADS[args.workload]
            if args.trace:
                outcome = batch.measure_traced(workload, seeds, args.seconds)
            else:
                outcome = batch.measure(workload, seeds, args.seconds)
                outcome.update(setup_s=setup, setups=setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = fingerprint()
    problems = list(outcome["problems"])
    mismatched = compare_counts(args.workload, args.seed, info["source_sha256"], outcome["counts"])
    problems += mismatched
    if args.trace:
        metrics = {name: 0.0 for name in declared}
        metrics.update({k: v for k, v in outcome["metrics"].items() if k in declared})
    else:
        metrics = {name: outcome[name] for name in declared}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("fingerprint " + json.dumps(info, sort_keys=True))
    if "latency" in outcome:
        print("latency " + json.dumps(outcome["latency"], sort_keys=True))
    if "setups" in outcome:
        print("setups_s " + json.dumps(outcome["setups"]))
    if "reference_s" in outcome:
        from calibrate import REFERENCE_S

        print(f"reference kernel {outcome['reference_s']:.6f} s (quiet machine: "
              f"{REFERENCE_S} s); unscaled ops_per_s {outcome['unscaled_ops_per_s']:.6g}")
    for one in outcome.get("passes", []):
        cells = ", ".join(
            f"{run.study} {run.wall:.3f}s {json.dumps(run.counts, sort_keys=True)}"
            for run in one.runs
        )
        print(f"pass {one.index} (matrix seed {one.seed}): {cells}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {declared[name]}")
    status = "ok" if not problems else f"{len(problems)} problem(s)"
    print(f"output check: {status}")
    for problem in problems:
        print(f"  FAIL {problem}")
    result = {
        "correct": not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]) + len(mismatched),
        "metrics": {
            name: {"value": float(value), "unit": declared[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
