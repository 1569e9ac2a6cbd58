"""Benchmark: multi-core scaling of the repetition fan-out.

Measures repetitions/sec of the Section VI coverage protocol fanned out
by :func:`~repro.experiments.runner.map_repetitions` (sampling plus the
IMCIS random search per repetition — the workload that dominates Table
I/II wall-clock), the one process pool of the stack.

It is measured at several worker counts with the same seed, which also
exercises the determinism contract: the merged results are identical for
every worker count, so only wall-clock may differ.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick    # CI gate

Results are printed and written to ``BENCH_parallel.json`` (override with
``--out``). In ``--quick`` mode the script exits non-zero when the runner
speedup at 4 workers falls below ``--min-speedup`` (default 1.5x) — the CI
scaling gate. On machines with fewer than 4 CPUs the gate is reported as
skipped: the scaling claim cannot be demonstrated without the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.experiments import run_coverage_experiment
from repro.imcis import RandomSearchConfig
from repro.models.registry import REGISTRY

#: Worker counts benchmarked, and the pair the CI gate compares.
WORKER_COUNTS = (1, 2, 4)
GATE_WORKERS = 4


def bench_runner(repetitions: int, n_samples: int, repeats: int, seed: int) -> dict:
    """Repetitions/sec of the coverage protocol per worker count."""
    study = REGISTRY.make_study("illustrative", n_samples=n_samples)
    search = RandomSearchConfig(r_undefeated=100, record_history=False)
    entry: dict = {
        "experiment": "coverage/illustrative",
        "repetitions": repetitions,
        "n_samples": n_samples,
        "workers": {},
    }
    reference = None
    for workers in WORKER_COUNTS:
        best = 0.0
        for _ in range(repeats):
            started = time.perf_counter()
            report = run_coverage_experiment(
                study,
                repetitions,
                rng=seed,
                search=search,
                n_samples=n_samples,
                workers=workers,
            )
            best = max(best, repetitions / (time.perf_counter() - started))
        entry["workers"][str(workers)] = round(best, 2)
        intervals = [(ci.low, ci.high) for ci in report.imcis_intervals]
        if reference is None:
            reference = intervals
        elif intervals != reference:
            raise AssertionError(
                f"results at workers={workers} differ from workers=1 — "
                "the determinism contract is broken"
            )
    base = entry["workers"]["1"]
    entry["speedup"] = {w: round(rate / base, 2) for w, rate in entry["workers"].items()}
    entry["scaling_efficiency"] = {
        w: round(entry["speedup"][w] / int(w), 2) for w in entry["speedup"]
    }
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI configuration: smaller workloads, enforce the scaling gate",
    )
    parser.add_argument("--repeats", type=int, default=2, help="timing repeats (best-of)")
    parser.add_argument("--seed", type=int, default=2018, help="root RNG seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help=f"required runner speedup at {GATE_WORKERS} workers (with --quick)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_parallel.json"),
        help="output JSON path (default: ./BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    repetitions = 24 if args.quick else 64
    n_samples = 4_000 if args.quick else 10_000

    results: dict = {
        "benchmark": "parallel",
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "quick": args.quick,
    }

    print(f"== parallel scaling benchmark ({cpu_count} CPUs, best of {args.repeats}) ==")
    runner = bench_runner(repetitions, n_samples, repeats=args.repeats, seed=args.seed)
    results["runner"] = runner
    for w in runner["workers"]:
        print(
            f"runner   workers={w}: {runner['workers'][w]:>12.2f} reps/s   "
            f"(speedup {runner['speedup'][w]:.2f}x, "
            f"efficiency {runner['scaling_efficiency'][w]:.0%})"
        )

    gate_speedup = runner["speedup"][str(GATE_WORKERS)]
    gate: dict = {
        "workers": GATE_WORKERS,
        "required": args.min_speedup,
        "observed": gate_speedup,
    }
    if not args.quick:
        gate["status"] = "not enforced (full run)"
    elif cpu_count < GATE_WORKERS:
        gate["status"] = f"skipped ({cpu_count} < {GATE_WORKERS} CPUs)"
        print(f"gate: skipped — only {cpu_count} CPU(s), cannot demonstrate scaling")
    elif gate_speedup >= args.min_speedup:
        gate["status"] = "passed"
        print(f"gate: passed — {gate_speedup:.2f}x >= {args.min_speedup:.2f}x")
    else:
        gate["status"] = "failed"
    results["gate"] = gate

    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    if gate["status"] == "failed":
        print(
            f"FAIL: runner speedup {gate_speedup:.2f}x at {GATE_WORKERS} workers "
            f"below the {args.min_speedup:.2f}x target"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
