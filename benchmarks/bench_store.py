"""Benchmark: warm-cache speedup, parity, and O(index) listings.

Two phases, each with its own gate and trajectory file:

**Warm-cache phase** (``BENCH_store.json``) runs the quick cross-study
matrix twice against a fresh artifact store — a cold run that simulates
every repetition and a warm run that serves all of them from disk — and
gates on two properties:

1. the warm run is at least ``--min-speedup`` times faster (default 5x:
   the store exists to make nightly reruns incremental, so a warm rerun
   must be dominated by study construction and IO, not simulation);
2. the cold, warm and store-less artifacts are bitwise identical, at
   ``workers=1`` and ``workers=4`` — caching can never change a byte of
   any deterministic artifact.

**Listing phase** (``BENCH_store_v2.json``) populates a store (segments
+ indexed catalog) with 50k+ records, then times a full ``describe()``
listing and records that time. The gate requires the listing to count
every record and to open no record segment at all
(``stats.segment_reads == 0``) — the O(index) property format v2 exists
for.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_store.py            # full
    PYTHONPATH=src python benchmarks/bench_store.py --quick    # CI gate

The JSON trajectories are written before exiting so CI can upload them
even (especially) on failure. Unlike the scaling gates, these gates have
no hardware prerequisites: both phases are pure IO on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.matrix import DEFAULT_ESTIMATORS, MatrixConfig, run_matrix
from repro.store import ArtifactStore


def _timed_matrix(config: MatrixConfig, store: "ArtifactStore | None"):
    started = time.perf_counter()
    result = run_matrix(config, store=store)
    return result, time.perf_counter() - started


def _payloads(count: int):
    return {i: {"estimate": float(i) * 1e-5, "n": i} for i in range(count)}


def bench_v2_listing(args) -> "tuple[dict, bool]":
    """Populate a store with 50k+ records and time one full listing."""
    n_keys, per_key = args.ls_keys, args.ls_records_per_key
    print(f"\n== listing benchmark ({n_keys} keys x {per_key} records) ==")

    with tempfile.TemporaryDirectory(prefix="bench-store-v2-") as tmp:
        writer = ArtifactStore(tmp)
        for i in range(n_keys):
            writer.put(f"{i:032x}", _payloads(per_key))
        writer.close()
        writer.compact_index()

        reader = ArtifactStore.open(tmp)
        started = time.perf_counter()
        document = reader.describe()
        ls_time = time.perf_counter() - started
        segment_reads = reader.stats.segment_reads
        records = document["totals"]["records"]
        print(f"describe(): {ls_time:.3f}s ({records} records, {segment_reads} segment reads)")

    gate_ok = segment_reads == 0 and records == n_keys * per_key
    results = {
        "benchmark": "store-v2-listing",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "keys": n_keys,
        "records_per_key": per_key,
        "records": n_keys * per_key,
        "v2_ls_seconds": round(ls_time, 4),
        "v2_segment_reads": segment_reads,
        "gate": {
            "criterion": "listing counts every record with zero record-segment reads",
            "status": "passed" if gate_ok else "failed",
        },
    }
    return results, gate_ok


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI configuration: fewer repetitions and traces per cell",
    )
    parser.add_argument("--seed", type=int, default=2018, help="root RNG seed")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required cold/warm wall-time ratio (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_store.json"),
        help="output JSON path (default: ./BENCH_store.json)",
    )
    parser.add_argument(
        "--ls-keys",
        type=int,
        default=500,
        help="keys in the listing benchmark stores (default: %(default)s)",
    )
    parser.add_argument(
        "--ls-records-per-key",
        type=int,
        default=100,
        help="records per key in the listing benchmark (default: %(default)s)",
    )
    parser.add_argument(
        "--v2-out",
        type=Path,
        default=Path("BENCH_store_v2.json"),
        help="listing-phase JSON path (default: ./BENCH_store_v2.json)",
    )
    args = parser.parse_args(argv)

    # Mirrors the matrix benchmark's workloads so the two trajectories
    # are comparable cell for cell.
    config = MatrixConfig(
        estimators=DEFAULT_ESTIMATORS,
        repetitions=4 if args.quick else 10,
        n_samples=1_000 if args.quick else 4_000,
        search_rounds=100 if args.quick else 1000,
        quick=args.quick,
        seed=args.seed,
        workers=None,
    )
    print(f"== store benchmark (quick={args.quick}, {os.cpu_count()} CPUs) ==")

    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        cold_store = ArtifactStore(root)
        cold, cold_time = _timed_matrix(config, cold_store)
        print(f"cold run: {cold_time:.2f}s ({cold_store.stats.misses} repetitions simulated)")
        warm_store = ArtifactStore(root)
        warm, warm_time = _timed_matrix(config, warm_store)
        print(f"warm run: {warm_time:.2f}s ({warm_store.stats.hits} served from store)")
        plain, _ = _timed_matrix(config, None)
        warm4, _ = _timed_matrix(replace(config, workers=4), ArtifactStore(root))

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    parity = {
        "warm_vs_cold": (
            warm.to_csv_text() == cold.to_csv_text()
            and warm.to_json_text() == cold.to_json_text()
        ),
        "warm_vs_plain": warm.to_csv_text() == plain.to_csv_text(),
        "warm_workers4_vs_plain": (
            warm4.to_csv_text() == plain.to_csv_text()
            and warm4.to_json_text() == plain.to_json_text()
        ),
    }
    parity_ok = all(parity.values())
    speedup_ok = speedup >= args.min_speedup

    results = {
        "benchmark": "store",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "quick": args.quick,
        "cells": len(cold.cells),
        "repetitions_per_cell": config.repetitions,
        "cold_seconds": round(cold_time, 3),
        "warm_seconds": round(warm_time, 3),
        "speedup": round(speedup, 1),
        "parity": parity,
        "gate": {
            "criterion": (
                f"warm-cache speedup >= {args.min_speedup}x and bitwise parity "
                "of cold/warm/plain artifacts at workers 1 and 4"
            ),
            "min_speedup": args.min_speedup,
            "status": "passed" if (parity_ok and speedup_ok) else "failed",
        },
    }
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    v2_results, v2_ok = bench_v2_listing(args)
    args.v2_out.write_text(json.dumps(v2_results, indent=2) + "\n")
    print(f"wrote {args.v2_out}")

    if not parity_ok:
        broken = [name for name, ok in parity.items() if not ok]
        print(f"FAIL: cached artifacts are not bitwise identical: {', '.join(broken)}")
        return 1
    if not speedup_ok:
        print(f"FAIL: warm-cache speedup {speedup:.1f}x < required {args.min_speedup}x")
        return 1
    if not v2_ok:
        print(
            f"FAIL: listing gate — {v2_results['v2_segment_reads']} segment reads "
            "(need 0) or a miscounted record total"
        )
        return 1
    print(f"gate: passed — {speedup:.1f}x warm-cache speedup, bitwise parity")
    print(f"gate: passed — O(index) listing in {v2_results['v2_ls_seconds']}s, 0 segment reads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
