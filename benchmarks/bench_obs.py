"""Benchmark gate: observability must be near-free and never perturb.

The obs layer (`repro.obs`) threads spans and metric counters through
the hot paths. This benchmark proves, on the kernel-tier importance
sampling pipeline, that the instrumentation honours its contract:

1. **disabled overhead** — with tracing off (the default), the total
   cost of every obs operation the pipeline executes is under
   ``--max-disabled-overhead`` (default 2%) of the pipeline's wall
   time. Because a sub-2% wall-clock difference drowns in scheduler
   noise, the gate is computed analytically: micro-benchmark the
   per-operation cost of a disabled ``span()`` and of a counter
   increment, count the operations one pipeline run actually performs,
   and bound the product against the measured wall time.
2. **enabled overhead** — with tracing fully on (ring + live span
   records), the end-to-end pipeline is at most
   ``--max-enabled-overhead`` (default 10%) slower than with tracing
   off, measured best-of-``--repeats`` both ways.
3. **parity** — the estimate, interval, ESS and satisfaction count are
   bitwise identical with tracing off and on: observing the run never
   changes it.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_obs.py            # full
    PYTHONPATH=src python benchmarks/bench_obs.py --quick    # CI smoke

Results are printed and written to ``BENCH_obs.json`` (override with
``--out``) before any non-zero exit, so CI always uploads the evidence.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.importance.estimator import estimate_from_sample, run_importance_sampling
from repro.models import illustrative
from repro.obs import metrics, trace
from repro.smc.kernels import kernel_runtime_info

#: Micro-benchmark loop count for the per-operation cost estimates.
MICRO_OPS = 200_000


def _run_pipeline(n: int, seed: int):
    """One end-to-end fused kernel IS estimation (the headline path)."""
    target = illustrative.illustrative_chain()
    proposal = illustrative.perfect_proposal()
    formula = illustrative.reach_goal_formula()
    sample = run_importance_sampling(
        proposal,
        formula,
        n,
        np.random.default_rng(seed),
        original=target,
        keep_counts=False,
    )
    return estimate_from_sample(target, sample)


def _summarize(result) -> dict:
    return {
        "estimate": result.estimate,
        "ci_low": result.interval.low,
        "ci_high": result.interval.high,
        "ess": result.ess,
        "n_satisfied": result.n_satisfied,
    }


def _time_pipeline(n: int, seed: int, repeats: int) -> float:
    """Best-of-*repeats* wall time of the pipeline in the current mode."""
    _run_pipeline(min(n, 500), seed)  # warm caches and kernel dispatch
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _run_pipeline(n, seed)
        best = min(best, time.perf_counter() - started)
    return best


def _micro_disabled_span_seconds() -> float:
    """Per-call cost of a ``span()`` while tracing is disabled."""
    assert not trace.enabled()
    started = time.perf_counter()
    for _ in range(MICRO_OPS):
        with trace.span("simulate", backend="kernel", traces=1):
            pass
    return (time.perf_counter() - started) / MICRO_OPS


def _micro_counter_inc_seconds() -> float:
    """Per-call cost of a counter increment (metrics are always on)."""
    reg = metrics.MetricsRegistry()
    counter = reg.counter("bench_obs_micro_total", "micro-benchmark scratch")
    started = time.perf_counter()
    for _ in range(MICRO_OPS):
        counter.inc()
    return (time.perf_counter() - started) / MICRO_OPS


def _count_obs_ops(n: int, seed: int) -> "tuple[int, int]":
    """(trace ops, metric ops) one pipeline run performs.

    Trace ops are counted by enabling the ring and draining it; metric
    ops by temporarily wrapping every mutating method of the metric
    classes with a counting shim.
    """
    counted = {"metric_ops": 0}
    patched = [
        (cls, name, getattr(cls, name))
        for cls, name in (
            (metrics.Counter, "inc"),
            (metrics._BoundCounter, "inc"),
            (metrics.Gauge, "set"),
            (metrics.Gauge, "inc"),
            (metrics.Histogram, "observe"),
            (metrics._BoundHistogram, "observe"),
        )
    ]

    def _wrap(original):
        def shim(self, *args, **kwargs):
            counted["metric_ops"] += 1
            return original(self, *args, **kwargs)

        return shim

    trace.reset()
    trace.configure(enabled=True, ring_size=65_536)
    for cls, name, original in patched:
        setattr(cls, name, _wrap(original))
    try:
        _run_pipeline(n, seed)
        trace_ops = len(trace.events(clear=True))
    finally:
        for cls, name, original in patched:
            setattr(cls, name, original)
        trace.configure(enabled=False)
        trace.reset()
    return trace_ops, counted["metric_ops"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke configuration: fewer traces"
    )
    parser.add_argument("--samples", type=int, default=None, help="traces per measurement")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument(
        "--max-disabled-overhead", type=float, default=0.02,
        help="gate: obs cost budget with tracing off, as a fraction of wall time",
    )
    parser.add_argument(
        "--max-enabled-overhead", type=float, default=0.10,
        help="gate: allowed slowdown with tracing fully on",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_obs.json"),
        help="output JSON path (default: ./BENCH_obs.json)",
    )
    args = parser.parse_args(argv)
    n_traces = args.samples or (8_000 if args.quick else 20_000)
    seed = 2018

    trace.configure(enabled=False, trace_file="")
    trace.reset()

    tier = kernel_runtime_info()["tier"]
    print(f"== obs overhead benchmark (N = {n_traces}, tier = {tier}) ==")

    # Parity: the whole point of the layer. Bitwise, no tolerance.
    baseline = _run_pipeline(n_traces, seed)
    trace.reset()
    trace.configure(enabled=True)
    traced = _run_pipeline(n_traces, seed)
    trace_records = len(trace.events(clear=True))
    trace.configure(enabled=False)
    parity_ok = _summarize(baseline) == _summarize(traced) and trace_records > 0

    # Enabled overhead: direct A/B wall-time comparison.
    disabled_seconds = _time_pipeline(n_traces, seed, args.repeats)
    trace.reset()
    trace.configure(enabled=True, ring_size=65_536)
    enabled_seconds = _time_pipeline(n_traces, seed, args.repeats)
    trace.configure(enabled=False)
    trace.reset()
    enabled_overhead = max(0.0, enabled_seconds / disabled_seconds - 1.0)

    # Disabled overhead: per-op cost x op count, bounded against wall.
    span_cost = _micro_disabled_span_seconds()
    inc_cost = _micro_counter_inc_seconds()
    trace_ops, metric_ops = _count_obs_ops(n_traces, seed)
    disabled_cost = trace_ops * span_cost + metric_ops * inc_cost
    disabled_overhead = disabled_cost / disabled_seconds

    gates = {
        "parity_ok": parity_ok,
        "disabled_overhead_ok": disabled_overhead < args.max_disabled_overhead,
        "enabled_overhead_ok": enabled_overhead < args.max_enabled_overhead,
    }
    results = {
        "benchmark": "obs",
        "python": platform.python_version(),
        "quick": args.quick,
        "kernel": kernel_runtime_info(),
        "n_traces": n_traces,
        "pipeline_seconds_disabled": round(disabled_seconds, 6),
        "pipeline_seconds_enabled": round(enabled_seconds, 6),
        "enabled_overhead": round(enabled_overhead, 4),
        "disabled_span_ns": round(span_cost * 1e9, 1),
        "counter_inc_ns": round(inc_cost * 1e9, 1),
        "trace_ops_per_run": trace_ops,
        "metric_ops_per_run": metric_ops,
        "disabled_obs_seconds": round(disabled_cost, 9),
        "disabled_overhead": round(disabled_overhead, 6),
        "max_disabled_overhead": args.max_disabled_overhead,
        "max_enabled_overhead": args.max_enabled_overhead,
        "baseline": _summarize(baseline),
        "traced": _summarize(traced),
        "trace_records": trace_records,
        "gates": gates,
    }
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(
        f"disabled: {disabled_seconds:.3f}s wall, obs cost "
        f"{disabled_cost * 1e6:.1f}us over {trace_ops} spans + {metric_ops} metric ops "
        f"({disabled_overhead:.4%} of wall)"
    )
    print(
        f"enabled:  {enabled_seconds:.3f}s wall "
        f"({enabled_overhead:+.2%} vs disabled, {trace_records} records)"
    )
    print(f"wrote {args.out}")

    if not gates["parity_ok"]:
        print("FAIL: tracing changed the estimate (or captured nothing)")
        return 1
    if not gates["disabled_overhead_ok"]:
        print(
            f"FAIL: disabled obs overhead {disabled_overhead:.4%} exceeds "
            f"{args.max_disabled_overhead:.0%}"
        )
        return 1
    if not gates["enabled_overhead_ok"]:
        print(
            f"FAIL: enabled tracing overhead {enabled_overhead:.2%} exceeds "
            f"{args.max_enabled_overhead:.0%}"
        )
        return 1
    print(
        f"PASS: obs disabled {disabled_overhead:.4%}, "
        f"enabled {enabled_overhead:.2%}, parity held bitwise"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
