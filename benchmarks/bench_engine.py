"""Benchmark: traces/sec of the simulation backends.

Measures the throughput of :class:`~repro.smc.engine.SequentialBackend`
and :class:`~repro.smc.engine.KernelBackend` on the paper's models — the
4-state illustrative example and the 40 320-state large repair chain —
in the two workloads that matter:

* ``simulate``: crude-Monte-Carlo style (no bookkeeping) — pure engine
  throughput;
* ``is``: importance-sampling style (transition counts and log-proposal
  probabilities kept per successful trace).

Each entry also records the ``is_overhead`` ratio per backend — how much
the IS bookkeeping costs relative to plain simulation. Both backends
record one flat key per step and aggregate them into ``TraceCounts``
arrays once per batch.

It also cross-checks that both backends produce statistically consistent
``γ̂`` estimates on the same workload.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke

Results are printed and written to ``BENCH_engine.json`` (override with
``--out``) so the performance trajectory is recorded across commits.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.models import illustrative
from repro.smc import TraceSampler, monte_carlo_estimate

#: Sequential traces are capped at this count and extrapolated: the scalar
#: loop on the large model would otherwise dominate the benchmark runtime.
SEQ_CAP = 2_000


def _throughput(sampler: TraceSampler, n_traces: int, seed: int, repeats: int) -> float:
    """Best-of-*repeats* traces/sec of ``sample_ensemble``."""
    rng = np.random.default_rng(seed)
    sampler.sample_ensemble(min(200, n_traces), rng)  # warm caches / compile rows
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        sampler.sample_ensemble(n_traces, rng)
        elapsed = time.perf_counter() - started
        best = max(best, n_traces / elapsed)
    return best


BACKENDS = ("sequential", "kernel")


def bench_model(
    name: str,
    chain,
    formula,
    proposal,
    n_traces: int,
    repeats: int,
    seed: int = 2018,
) -> dict:
    """Benchmark every backend on *chain* in both workloads."""
    entry: dict = {"model": name, "n_states": chain.n_states, "n_traces": n_traces}
    all_rates: dict = {}
    for workload, (target, mode, logp) in {
        "simulate": (chain, "none", False),
        "is": (proposal, "satisfied", True),
    }.items():
        if target is None:
            continue
        rates = {}
        for backend in BACKENDS:
            sampler = TraceSampler(
                target, formula, count_mode=mode, record_log_prob=logp, backend=backend
            )
            n = min(n_traces, SEQ_CAP) if backend == "sequential" else n_traces
            rates[backend] = _throughput(sampler, n, seed, repeats)
        all_rates[workload] = rates
        entry[workload] = {
            f"{backend}_traces_per_sec": round(rates[backend], 1)
            for backend in BACKENDS
        }
        entry[workload]["speedup"] = round(rates["kernel"] / rates["sequential"], 2)
    if len(all_rates) == 2:
        # How much slower each backend runs when keeping IS bookkeeping;
        # >1 means the "is" workload pays for its counts/log-probs.
        entry["is_overhead"] = {
            backend: round(all_rates["simulate"][backend] / all_rates["is"][backend], 2)
            for backend in BACKENDS
        }
    return entry


def parity_check(n_traces: int, seed: int = 2018) -> dict:
    """γ̂ consistency of both backends on the illustrative model.

    Uses the non-rare parameters so the estimate is resolvable at modest
    trace counts; asserts both estimates agree with the closed form and
    with each other within a 5-sigma band.
    """
    chain = illustrative.illustrative_chain(0.3, 0.4)
    formula = illustrative.reach_goal_formula()
    exact = illustrative.exact_probability(0.3, 0.4)
    estimates = {}
    for backend in BACKENDS:
        result = monte_carlo_estimate(chain, formula, n_traces, rng=seed, backend=backend)
        estimates[backend] = result.estimate
    sigma = (exact * (1 - exact) / n_traces) ** 0.5
    consistent = all(abs(g - exact) < 5 * sigma for g in estimates.values())
    return {
        "exact": exact,
        **{f"{backend}_estimate": estimates[backend] for backend in BACKENDS},
        "n_traces": n_traces,
        "consistent": consistent,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: fewer traces, skip the 40 320-state model",
    )
    parser.add_argument("--samples", type=int, default=None, help="traces per measurement")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_engine.json"),
        help="output JSON path (default: ./BENCH_engine.json)",
    )
    args = parser.parse_args(argv)
    n_traces = args.samples or (2_000 if args.quick else 10_000)

    results: dict = {
        "benchmark": "engine",
        "python": platform.python_version(),
        "quick": args.quick,
        "models": [],
    }

    print(f"== engine benchmark (N = {n_traces} traces, best of {args.repeats}) ==")
    entry = bench_model(
        "illustrative",
        illustrative.illustrative_chain(),
        illustrative.reach_goal_formula(),
        illustrative.perfect_proposal(),
        n_traces,
        args.repeats,
    )
    results["models"].append(entry)
    _print_entry(entry)

    if not args.quick:
        from repro.models import repair_large

        chain = repair_large.embedded_chain()
        entry = bench_model(
            "large-repair",
            chain,
            repair_large.failure_formula(),
            repair_large.is_proposal(),
            n_traces,
            args.repeats,
        )
        results["models"].append(entry)
        _print_entry(entry)

    results["parity"] = parity_check(max(n_traces, 4_000))
    print(
        f"parity: exact={results['parity']['exact']:.4f} "
        f"seq={results['parity']['sequential_estimate']:.4f} "
        f"ker={results['parity']['kernel_estimate']:.4f} "
        f"consistent={results['parity']['consistent']}"
    )

    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not results["parity"]["consistent"]:
        print("FAIL: backends are statistically inconsistent")
        return 1
    headline = results["models"][0]["simulate"]["speedup"]
    if headline < 10.0:
        print(f"FAIL: kernel speedup {headline}x over sequential below the 10x target")
        return 1
    return 0


def _print_entry(entry: dict) -> None:
    for workload in ("simulate", "is"):
        if workload not in entry:
            continue
        w = entry[workload]
        print(
            f"{entry['model']:>14} [{workload:8}] "
            f"seq {w['sequential_traces_per_sec']:>12,.0f}/s   "
            f"ker {w['kernel_traces_per_sec']:>12,.0f}/s   "
            f"speedup {w['speedup']:.1f}x"
        )
    if "is_overhead" in entry:
        ratios = "   ".join(
            f"{backend} {ratio:.2f}x" for backend, ratio in entry["is_overhead"].items()
        )
        print(f"{'':>14} [overhead] IS bookkeeping cost: {ratios}")


if __name__ == "__main__":
    raise SystemExit(main())
