"""Benchmark: traces/sec of the simulation backends.

Measures the throughput of :class:`~repro.smc.engine.SequentialBackend`
and :class:`~repro.smc.engine.KernelBackend` in two workloads:

* ``simulate``: crude-Monte-Carlo style (no bookkeeping) — pure engine
  throughput;
* ``is``: importance-sampling style (transition counts kept per
  successful trace, log-proposal probabilities and the IS numerator
  fused against the original chain).

Models: the 4-state illustrative example, whose traces are a few steps
long, and quick group-repair in IS mode, whose traces run ~130 steps
with a live set that thins out over ~1000 lockstep iterations — so the
per-iteration cost of the lockstep loop, not its per-trace cost, sets
its throughput. Without ``--quick`` the 40 320-state large repair chain
is added.

Record-only ``ce`` layer rows time the cross-entropy refinement rounds
on quick group-repair at the matrix's ``CE_*`` constants and 2 000
traces: rounds per second of the ``ce-refine`` span, so the final IS run
is left out, as the median and quartiles of at least
:data:`CE_MIN_REPEATS` repeats (a best-of cannot tell a 20% change from
machine drift). No gate reads them.

Each model also records the ``is_overhead`` ratio per backend — how much
the IS bookkeeping costs relative to plain simulation — when it runs
both workloads. It also cross-checks that both backends produce
statistically consistent ``γ̂`` estimates on the same workload.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke

Results are written to ``BENCH_engine.json`` (override with ``--out``) as
a list of records ``{layer, metric, value, unit, git_rev, machine}``, the
schema of ``BENCH_imcis.json``. ``--append`` keeps the file's records of
other revisions, so one file can hold a before/after.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from bench_imcis import write_records
from repro.experiments.matrix import (
    CE_REFINE_FRACTION,
    CE_ROUNDS,
    CE_SMOOTHING,
    CE_SUPPORT_FLOOR,
)
from repro.importance import cross_entropy_estimate
from repro.models import illustrative
from repro.models.registry import REGISTRY
from repro.obs import trace
from repro.smc import SimulationBackend, make_plan, monte_carlo_estimate, resolve_backend

#: Sequential traces are capped at this count and extrapolated: the scalar
#: loop on the large model would otherwise dominate the benchmark runtime.
SEQ_CAP = 2_000

BACKENDS = ("sequential", "kernel")

#: Fewest timed CE runs behind the median and quartiles of the ``ce`` rows.
CE_MIN_REPEATS = 7


def _throughput(
    simulator: SimulationBackend, n_traces: int, seed: int, repeats: int
) -> float:
    """Best-of-*repeats* traces/sec of ``run_ensemble``. An ``is`` batch
    returns its step records raw; every consumer reads them as they are,
    so no aggregation step belongs in the timed region."""
    rng = np.random.default_rng(seed)
    simulator.run_ensemble(min(200, n_traces), rng)  # warm caches / compile rows
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        simulator.run_ensemble(n_traces, rng)
        elapsed = time.perf_counter() - started
        best = max(best, n_traces / elapsed)
    return best


def bench_model(
    name: str,
    formula,
    workloads: dict,
    n_traces: int,
    repeats: int,
    seq_cap: int = SEQ_CAP,
    seed: int = 2018,
) -> dict:
    """Benchmark every backend on each of *workloads*.

    *workloads* maps a workload name to the :func:`~repro.smc.make_plan`
    keyword arguments (the chain and its bookkeeping) it runs with.
    """
    entry: dict = {"model": name}
    for workload, options in workloads.items():
        rates = {}
        for backend in BACKENDS:
            simulator = resolve_backend(backend, make_plan(formula=formula, **options))
            n = min(n_traces, seq_cap) if backend == "sequential" else n_traces
            rates[backend] = _throughput(simulator, n, seed, repeats)
        entry[workload] = {
            f"{backend}_traces_per_sec": round(rates[backend], 1)
            for backend in BACKENDS
        }
        entry[workload]["speedup"] = round(rates["kernel"] / rates["sequential"], 2)
    if "simulate" in entry and "is" in entry:
        # How much slower each backend runs when keeping IS bookkeeping;
        # >1 means the "is" workload pays for its counts/log-probs.
        entry["is_overhead"] = {
            backend: round(
                entry["simulate"][f"{backend}_traces_per_sec"]
                / entry["is"][f"{backend}_traces_per_sec"],
                2,
            )
            for backend in BACKENDS
        }
    return entry


def simulate_workload(chain) -> dict:
    """Plain simulation: verdicts only, no per-trace bookkeeping."""
    return {"chain": chain, "count_mode": "none"}


def is_workload(proposal, original) -> dict:
    """IS bookkeeping: counts of satisfied traces, log-proposals and the
    numerator under *original* fused into the simulation loop."""
    return {
        "chain": proposal,
        "count_mode": "satisfied",
        "record_log_prob": True,
        "weight_chain": original,
    }


def bench_ce(n_traces: int, repeats: int, seed: int = 2018) -> "tuple[float, float, float]":
    """CE refinement rounds/s on quick group-repair: the first quartile,
    median and third quartile of ``max(repeats, CE_MIN_REPEATS)`` runs.

    Each repeat runs :func:`~repro.importance.cross_entropy_estimate` as a
    matrix ``ce`` cell does (target chain, study proposal as the seed,
    ``CE_*`` constants) and reads the duration of its ``ce-refine`` span.
    """
    study = REGISTRY.get("group-repair").build(quick=True)
    target = study.true_chain if study.true_chain is not None else study.center
    prior = trace.enabled()
    trace.configure(enabled=True)
    rates = []
    try:
        for _ in range(max(repeats, CE_MIN_REPEATS) + 1):
            trace.events(clear=True)
            cross_entropy_estimate(
                target,
                study.formula,
                n_traces,
                np.random.default_rng(seed),
                rounds=CE_ROUNDS,
                refine_fraction=CE_REFINE_FRACTION,
                smoothing=CE_SMOOTHING,
                support_floor=CE_SUPPORT_FLOOR,
                initial_proposal=study.proposal,
            )
            (refine,) = [e for e in trace.events() if e["name"] == "ce-refine"]
            rates.append(CE_ROUNDS / refine["dur_s"])
    finally:
        trace.events(clear=True)
        trace.configure(enabled=prior)
    q1, median, q3 = np.percentile(rates[1:], [25, 50, 75])  # the first run warms caches
    return float(q1), float(median), float(q3)


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


def records_of(entry: dict) -> "list[dict]":
    """The ``{layer, metric, value, unit}`` records of one model entry."""
    model = entry["model"]
    records = []
    for workload in ("simulate", "is"):
        if workload not in entry:
            continue
        for backend in BACKENDS:
            records.append({
                "metric": f"traces_per_s.{model}.{workload}.{backend}",
                "value": entry[workload][f"{backend}_traces_per_sec"],
                "unit": "1/s",
            })
        records.append({
            "metric": f"speedup.{model}.{workload}",
            "value": entry[workload]["speedup"],
            "unit": "ratio",
        })
    for backend, ratio in entry.get("is_overhead", {}).items():
        records.append({
            "metric": f"is_overhead.{model}.{backend}", "value": ratio, "unit": "ratio"
        })
    return [{"layer": "smc", **record} for record in records]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: fewer traces, skip the 40 320-state model",
    )
    parser.add_argument("--samples", type=int, default=None, help="traces per measurement")
    parser.add_argument(
        "--repeats", type=int, default=3,
        help=f"timing repeats (best-of traces/s; CE takes at least {CE_MIN_REPEATS})",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_engine.json"),
        help="output JSON path (default: ./BENCH_engine.json)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="keep the output file's records of other revisions",
    )
    args = parser.parse_args(argv)
    n_traces = args.samples or (2_000 if args.quick else 10_000)

    print(f"== engine benchmark (N = {n_traces} traces, best of {args.repeats}) ==")
    entries = [
        bench_model(
            "illustrative",
            illustrative.reach_goal_formula(),
            {
                "simulate": simulate_workload(illustrative.illustrative_chain()),
                "is": is_workload(
                    illustrative.perfect_proposal(), illustrative.illustrative_chain()
                ),
            },
            n_traces,
            args.repeats,
        )
    ]
    _print_entry(entries[-1])

    study = REGISTRY.get("group-repair").build(quick=True)
    entries.append(
        bench_model(
            "group-repair",
            study.formula,
            {"is": is_workload(study.proposal, study.center)},
            n_traces,
            args.repeats,
            seq_cap=200,  # ~130 scalar steps per trace
        )
    )
    _print_entry(entries[-1])

    ce_q1, ce_median, ce_q3 = bench_ce(2_000, args.repeats)
    print(
        f"{'group-repair':>14} [ce      ] refinement {ce_median:>8,.1f} rounds/s "
        f"(quartiles {ce_q1:,.1f}-{ce_q3:,.1f})"
    )

    if not args.quick:
        from repro.models import repair_large

        chain = repair_large.embedded_chain()
        entries.append(
            bench_model(
                "large-repair",
                repair_large.failure_formula(),
                {
                    "simulate": simulate_workload(chain),
                    "is": is_workload(repair_large.is_proposal(), chain),
                },
                n_traces,
                args.repeats,
            )
        )
        _print_entry(entries[-1])

    parity = parity_check(max(n_traces, 4_000))
    print(
        f"parity: exact={parity['exact']:.4f} "
        f"seq={parity['sequential_estimate']:.4f} "
        f"ker={parity['kernel_estimate']:.4f} "
        f"consistent={parity['consistent']}"
    )

    records = [record for entry in entries for record in records_of(entry)]
    for metric, value in (
        ("ce_rounds_per_s", ce_median),
        ("ce_rounds_per_s_q1", ce_q1),
        ("ce_rounds_per_s_q3", ce_q3),
    ):
        records.append({
            "layer": "importance",
            "metric": f"{metric}.group-repair",
            "value": round(value, 1),
            "unit": "1/s",
        })
    write_records(args, records)

    if not parity["consistent"]:
        print("FAIL: backends are statistically inconsistent")
        return 1
    headline = entries[0]["simulate"]["speedup"]
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
