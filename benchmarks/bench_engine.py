"""Benchmark: traces/sec of the simulation engine.

Measures the throughput of :class:`~repro.smc.engine.KernelBackend` in
two workloads:

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

A ``joint`` row runs the matrix ``is`` cell's workload on quick
group-repair — :data:`JOINT_REPETITIONS` repetitions of
:data:`JOINT_TRACES` fused-weight traces, no count tables — once as one
``run_ensemble`` per repetition and once as one ``run_ensembles`` loop,
and records both traces/s (medians of alternating runs). It exits
non-zero unless every joint result and generator state is bitwise the
lone one, and the engine counters saw exactly the lone runs' traces and
steps; its timings are recorded only.

Record-only ``ce`` layer rows time the cross-entropy refinement rounds
on quick group-repair at the matrix's ``CE_*`` constants and 2 000
traces: rounds per second of the ``ce-refine`` span, so the final IS run
is left out, as the median and quartiles of at least
:data:`CE_MIN_REPEATS` repeats (a best-of cannot tell a 20% change from
machine drift). No gate reads them.

Each model also records the ``is_overhead`` ratio — how much the IS
bookkeeping costs relative to plain simulation — when it runs both
workloads. It also checks the kernel's crude ``γ̂`` on the illustrative
model against the closed form, and exits non-zero if they disagree.

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
from repro.obs import registry, trace
from repro.smc import KernelBackend, make_plan, monte_carlo_estimate

#: Fewest timed CE runs behind the median and quartiles of the ``ce`` rows.
CE_MIN_REPEATS = 7

#: The joint row's workload: one serve ``is`` job on quick group-repair.
JOINT_REPETITIONS = 4
JOINT_TRACES = 2_000
#: Fewest alternating lone/joint pairs behind the joint row's medians.
JOINT_MIN_REPEATS = 7


def _throughput(
    simulator: KernelBackend, n_traces: int, seed: int, repeats: int
) -> float:
    """Best-of-*repeats* traces/sec of ``run_ensemble``. An ``is`` batch
    returns its step records raw; every consumer reads them as they are,
    so no aggregation step belongs in the timed region."""
    rng = np.random.default_rng(seed)
    simulator.run_ensemble(min(200, n_traces), rng)  # warm caches
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
    seed: int = 2018,
) -> dict:
    """Traces/sec of the kernel backend on each of *workloads*.

    *workloads* maps a workload name to the :func:`~repro.smc.make_plan`
    keyword arguments (the chain and its bookkeeping) it runs with.
    """
    entry: dict = {"model": name}
    for workload, options in workloads.items():
        simulator = KernelBackend(make_plan(formula=formula, **options))
        entry[workload] = round(_throughput(simulator, n_traces, seed, repeats), 1)
    if "simulate" in entry and "is" in entry:
        # How much slower the kernel runs when keeping IS bookkeeping;
        # >1 means the "is" workload pays for its counts/log-probs.
        entry["is_overhead"] = round(entry["simulate"] / entry["is"], 2)
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


def _engine_totals() -> "tuple[int, int]":
    """Traces and trace-steps the engine counters have seen so far."""
    snapshot = registry().snapshot()
    return tuple(
        int(sum(snapshot.get(name, {}).get("cells", {}).values()))
        for name in ("repro_traces_simulated_total", "repro_trace_steps_total")
    )


def _ensembles_equal(a, b) -> bool:
    return all(
        getattr(a, field).tobytes() == getattr(b, field).tobytes()
        for field in ("satisfied", "decided", "lengths", "log_proposals", "log_numerators")
    )


def bench_joint(repeats: int, seed: int = 2018) -> dict:
    """Lone vs joint traces/s of the matrix ``is`` cell on quick group-repair.

    Each of ``max(repeats, JOINT_MIN_REPEATS)`` pairs runs the
    repetitions one ``run_ensemble`` at a time and as one
    ``run_ensembles`` loop, in alternating order, each from fresh
    generators of the same seeds. ``problems`` lists every pair whose
    joint results or generator states differ from the lone ones by a
    bit, or whose counted traces and steps differ.
    """
    study = REGISTRY.get("group-repair").build(quick=True)
    target = study.true_chain if study.true_chain is not None else study.center
    backend = KernelBackend(make_plan(
        study.proposal, study.formula, count_mode="none", record_log_prob=True,
        weight_chain=target,
    ))
    seeds = np.random.SeedSequence(seed).spawn(JOINT_REPETITIONS)
    traces = JOINT_REPETITIONS * JOINT_TRACES
    times: "dict[str, list[float]]" = {"lone": [], "joint": []}
    problems: "list[str]" = []
    steps = 0
    for index in range(max(repeats, JOINT_MIN_REPEATS) + 1):
        runs = {}
        for mode in (("lone", "joint") if index % 2 else ("joint", "lone")):
            rngs = [np.random.default_rng(s) for s in seeds]
            before = _engine_totals()
            started = time.perf_counter()
            if mode == "joint":
                results = backend.run_ensembles(JOINT_TRACES, rngs)
            else:
                results = [backend.run_ensemble(JOINT_TRACES, rng) for rng in rngs]
            elapsed = time.perf_counter() - started
            counted = tuple(a - b for a, b in zip(_engine_totals(), before))
            runs[mode] = (results, [rng.bit_generator.state for rng in rngs], counted)
            if index:  # the first pair warms caches
                times[mode].append(traces / elapsed)
        (lone, lone_states, lone_counted), (joint, joint_states, joint_counted) = (
            runs["lone"], runs["joint"]
        )
        steps = sum(r.total_length for r in lone)
        if not all(_ensembles_equal(a, b) for a, b in zip(joint, lone)):
            problems.append(f"pair {index}: a joint result differs from the lone one")
        if joint_states != lone_states:
            problems.append(f"pair {index}: a generator state differs after the joint run")
        if not joint_counted == lone_counted == (traces, steps):
            problems.append(
                f"pair {index}: counted traces/steps lone {lone_counted}, "
                f"joint {joint_counted}, expected {(traces, steps)}"
            )
    return {
        "lone": float(np.median(times["lone"])),
        "joint": float(np.median(times["joint"])),
        "traces": traces,
        "steps": steps,
        "problems": problems,
    }


def parity_check(n_traces: int, seed: int = 2018) -> dict:
    """The kernel's crude γ̂ on the illustrative model against the closed form.

    Uses the non-rare parameters so the estimate is resolvable at modest
    trace counts; consistent when it lies within 5 sigma of the exact
    probability.
    """
    chain = illustrative.illustrative_chain(0.3, 0.4)
    formula = illustrative.reach_goal_formula()
    exact = illustrative.exact_probability(0.3, 0.4)
    estimate = monte_carlo_estimate(chain, formula, n_traces, rng=seed).estimate
    sigma = (exact * (1 - exact) / n_traces) ** 0.5
    return {
        "exact": exact,
        "kernel_estimate": estimate,
        "n_traces": n_traces,
        "consistent": abs(estimate - exact) < 5 * sigma,
    }


def records_of(entry: dict) -> "list[dict]":
    """The ``{layer, metric, value, unit}`` records of one model entry."""
    model = entry["model"]
    records = []
    for workload in ("simulate", "is"):
        if workload in entry:
            records.append({
                "metric": f"traces_per_s.{model}.{workload}.kernel",
                "value": entry[workload],
                "unit": "1/s",
            })
    if "is_overhead" in entry:
        records.append({
            "metric": f"is_overhead.{model}.kernel",
            "value": entry["is_overhead"],
            "unit": "ratio",
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
        )
    )
    _print_entry(entries[-1])

    joint = bench_joint(args.repeats)
    print(
        f"{'group-repair':>14} [joint   ] {JOINT_REPETITIONS} x {JOINT_TRACES} traces: "
        f"lone {joint['lone']:>10,.0f}/s, one loop {joint['joint']:>10,.0f}/s "
        f"({joint['joint'] / joint['lone']:.2f}x; {joint['steps']} steps)"
    )
    for problem in joint["problems"]:
        print(f"FAIL: joint repetitions: {problem}")

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
        f"ker={parity['kernel_estimate']:.4f} "
        f"consistent={parity['consistent']}"
    )

    records = [record for entry in entries for record in records_of(entry)]
    for metric, value, unit in (
        ("traces_per_s.group-repair.is_lone_reps.kernel", round(joint["lone"], 1), "1/s"),
        ("traces_per_s.group-repair.is_joint_reps.kernel", round(joint["joint"], 1), "1/s"),
        ("joint_reps_steps.group-repair", joint["steps"], "count"),
    ):
        records.append({"layer": "smc", "metric": metric, "value": value, "unit": unit})
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
        print("FAIL: the kernel's estimate misses the closed form by 5 sigma or more")
        return 1
    if joint["problems"]:
        return 1
    return 0


def _print_entry(entry: dict) -> None:
    for workload in ("simulate", "is"):
        if workload in entry:
            print(f"{entry['model']:>14} [{workload:8}] ker {entry[workload]:>12,.0f}/s")
    if "is_overhead" in entry:
        print(f"{'':>14} [overhead] IS bookkeeping cost: {entry['is_overhead']:.2f}x")


if __name__ == "__main__":
    raise SystemExit(main())
