"""Benchmark: warm-cache speedup, parity, read cost and O(index) listings.

Three phases, each with its own gate:

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

**Read phase** (``BENCH_store.json``) grows a store the way the service
does — every ``put`` through a fresh handle — and after each put does
one ``get`` on a long-lived handle. It records the ``get`` p50 over the
last 10 gets before 10, 100 and 1000 puts. The gate counts work, not
time: no ``get`` may parse more than one index line
(``stats.index_lines``), the one line the put before it appended — a
read costs what was appended since the last one, not the index size.

**Listing phase** (``BENCH_store_v2.json``) populates a store (segments
+ indexed catalog) with 50k+ records, then times a full ``describe()``
listing and records that time. The gate requires the listing to count
every record and to open no record segment at all
(``stats.segment_reads == 0``) — the O(index) property format v2 exists
for.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_store.py            # full
    PYTHONPATH=src python benchmarks/bench_store.py --quick    # CI gate

``BENCH_store.json`` is a list of records ``{layer, metric, value,
unit, git_rev, machine}`` (the schema of ``BENCH_engine.json``);
``--append`` keeps the file's records of other revisions, so one file
holds a before/after. The JSON trajectories are written before exiting
so CI can upload them even (especially) on failure. Unlike the scaling
gates, these gates have no hardware prerequisites: every phase is pure
IO on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from bench_imcis import write_records
from repro.experiments.matrix import DEFAULT_ESTIMATORS, MatrixConfig, run_matrix
from repro.store import ArtifactStore


def _timed_matrix(config: MatrixConfig, store: "ArtifactStore | None"):
    started = time.perf_counter()
    result = run_matrix(config, store=store)
    return result, time.perf_counter() - started


def _payloads(count: int):
    return {i: {"estimate": float(i) * 1e-5, "n": i} for i in range(count)}


#: Store sizes (puts) at which the read phase reports the get p50.
READ_CHECKPOINTS = (10, 100, 1000)
#: Gets per checkpoint the p50 is taken over (the last ones before it).
READ_WINDOW = 10


def bench_reads() -> "tuple[list[dict], bool]":
    """Time ``get`` as the store grows, one fresh handle per ``put``."""
    print(f"\n== read benchmark (get after each put, up to {READ_CHECKPOINTS[-1]} puts) ==")
    records: "list[dict]" = []
    most_lines = 0
    with tempfile.TemporaryDirectory(prefix="bench-store-reads-") as tmp:
        reader = ArtifactStore.open(tmp)
        puts = 0
        for checkpoint in READ_CHECKPOINTS:
            timings = []
            while puts < checkpoint:
                key = f"{puts:032x}"
                ArtifactStore.open(tmp).put(key, _payloads(4))
                puts += 1
                lines = reader.stats.index_lines
                started = time.perf_counter()
                reader.get(key)
                timings.append(time.perf_counter() - started)
                most_lines = max(most_lines, reader.stats.index_lines - lines)
            p50 = 1000.0 * statistics.median(timings[-READ_WINDOW:])
            print(f"get p50 after {checkpoint} puts: {p50:.3f} ms")
            records.append(
                {
                    "metric": f"get_ms_p50.after_{checkpoint}_puts",
                    "value": round(p50, 4),
                    "unit": "ms",
                }
            )
    gate_ok = most_lines <= 1
    print(f"most index lines parsed by one get: {most_lines}")
    records.append({"metric": "index_lines_per_get.max", "value": most_lines, "unit": "count"})
    records.append({"metric": "gate.reads_passed", "value": int(gate_ok), "unit": "bool"})
    return [{"layer": "store", **record} for record in records], gate_ok


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
        "--append",
        action="store_true",
        help="keep the output file's records of other revisions",
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

    records = [
        {"layer": "store", "metric": metric, "value": value, "unit": unit}
        for metric, value, unit in (
            ("warm_cache.cold_s", round(cold_time, 3), "s"),
            ("warm_cache.warm_s", round(warm_time, 3), "s"),
            ("warm_cache.speedup", round(speedup, 1), "ratio"),
            ("warm_cache.parity", int(parity_ok), "bool"),
            ("gate.warm_cache_passed", int(parity_ok and speedup_ok), "bool"),
        )
    ]
    read_records, reads_ok = bench_reads()
    write_records(args, records + read_records)

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
    if not reads_ok:
        print("FAIL: read gate — a get parsed more than the one index line appended before it")
        return 1
    if not v2_ok:
        print(
            f"FAIL: listing gate — {v2_results['v2_segment_reads']} segment reads "
            "(need 0) or a miscounted record total"
        )
        return 1
    print(f"gate: passed — {speedup:.1f}x warm-cache speedup, bitwise parity")
    print("gate: passed — every get parsed at most the one index line appended before it")
    print(f"gate: passed — O(index) listing in {v2_results['v2_ls_seconds']}s, 0 segment reads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
