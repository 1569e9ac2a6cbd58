"""The batch workloads: ``repro matrix`` cell sets run inline.

A *pass* runs the workload's cell set once — one repetition per
``(study, estimator)`` cell, each study in its own ``run_matrix`` call so
its wall time and work count are known separately. Pass ``k`` of seed
``s`` always uses the same matrix seed, so it always does the same work.
Passes repeat until the time budget is spent.

The end-to-end throughput normalises each study's wall time by the exact
work it did (IMCIS search rounds, or simulated traces), because the
length of one IMCIS search is heavy-tailed in the seed: 1 234 to 4 487
rounds per repetition were measured at R = 1000, which no affordable
number of repetitions averages out. Each study run is also paired with
the machine-speed reference timed around it (see :mod:`calibrate`).
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from calibrate import REFERENCE_S, Calibration
from layers import LayerTracer, build_times, install_layers


@dataclass(frozen=True)
class BatchWorkload:
    """One fixed cell set of ``run_matrix``."""

    studies: "tuple[str, ...]"
    estimators: "tuple[str, ...]"
    n_samples: "int | None"
    #: The work unit throughput counts: ``"rounds"`` or ``"traces"``.
    unit: str


#: The IMCIS random-search stopping parameter R (the paper's value).
SEARCH_ROUNDS = 1000


WORKLOADS = {
    "imcis-wide": BatchWorkload(("group-repair", "swat"), ("imcis",), 1000, "rounds"),
    "imcis-narrow": BatchWorkload(("knuth-yao", "birth-death"), ("imcis",), 1000, "rounds"),
    "estimate": BatchWorkload(
        ("group-repair", "tandem-repair", "gamblers-ruin", "birth-death"),
        ("is", "ce"),
        None,
        "traces",
    ),
}

#: Always-on process counters read around every call (never timers).
COUNTERS = {
    "traces": "repro_traces_simulated_total",
    "steps": "repro_trace_steps_total",
    "ce_rounds": "repro_ce_rounds_total",
}


def read_counters() -> "dict[str, int]":
    """Current totals of :data:`COUNTERS` in this process's registry."""
    from repro.obs import registry

    snapshot = registry().snapshot()
    return {
        key: int(sum(snapshot.get(metric, {}).get("cells", {}).values()))
        for key, metric in COUNTERS.items()
    }


@dataclass
class StudyRun:
    """One study's ``run_matrix`` call within one pass."""

    study: str
    wall: float
    counts: "dict[str, object]"
    csv: str
    records: "list[dict]"
    error: "str | None" = None
    #: Mean seconds of the reference kernel before, during and after the run.
    reference: "float | None" = None


@dataclass
class Pass:
    index: int
    seed: int
    runs: "list[StudyRun]" = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(run.wall for run in self.runs)


def run_pass(
    workload: BatchWorkload,
    index: int,
    seed: int,
    rounds: "list[int]",
    calibration: "Calibration | None" = None,
) -> Pass:
    """Run the cell set once at matrix seed *seed*.

    *rounds* is the list the ``random_search`` wrapper appends each
    search's round count to. With a *calibration*, each study run is
    rated against the reference kernel timed around and during it, and
    its wall time excludes the kernel's own.
    """
    matrix = importlib.import_module("repro.experiments.matrix")
    current = Pass(index, seed)
    for study in workload.studies:
        config = matrix.MatrixConfig(
            studies=(study,),
            estimators=workload.estimators,
            repetitions=1,
            n_samples=workload.n_samples,
            search_rounds=SEARCH_ROUNDS,
            quick=True,
            seed=seed,
            workers=None,
        )
        before = read_counters()
        searched = len(rounds)
        mark = calibration.window() if calibration is not None else None
        started = time.perf_counter()
        try:
            result = matrix.run_matrix(config)
        except Exception as error:  # noqa: BLE001 — counted as failed repetitions
            wall = time.perf_counter() - started
            current.runs.append(
                StudyRun(study, wall, {}, "", [], error=f"{type(error).__name__}: {error}")
            )
            continue
        wall = time.perf_counter() - started
        reference = None
        if mark is not None:
            reference, paused = calibration.close(mark)
            wall -= paused
        after = read_counters()
        counts: "dict[str, object]" = {key: after[key] - before[key] for key in COUNTERS}
        counts["imcis_rounds"] = list(rounds[searched:])
        current.runs.append(
            StudyRun(
                study, wall, counts, result.to_csv_text(), result.records(), reference=reference
            )
        )
    return current


def run_passes(
    workload: BatchWorkload,
    seeds,
    budget: float,
    rounds: "list[int]",
    calibration: "Calibration | None" = None,
) -> "list[Pass]":
    """Passes ``0, 1, ...`` until *budget* seconds are spent (at least one)."""
    passes: "list[Pass]" = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < budget:
        index = len(passes)
        passes.append(run_pass(workload, index, seeds(index), rounds, calibration))
    return passes


def work_of(workload: BatchWorkload, run: StudyRun) -> int:
    if workload.unit == "rounds":
        return int(sum(run.counts["imcis_rounds"]))
    return int(run.counts["traces"])


def ops_per_s(workload: BatchWorkload, passes: "list[Pass]", scaled: bool = True) -> float:
    """Work units per second at an equal share of each study's work.

    Each study contributes the median over passes of its seconds per
    unit, so a burst of load from elsewhere on the machine during one
    pass moves the result less than a plain total would. *scaled* rates
    each run at the reference machine speed (:data:`REFERENCE_S`).
    """
    seconds_per_unit = []
    for study in workload.studies:
        costs = [
            run.wall / work_of(workload, run) * (REFERENCE_S / run.reference if scaled else 1.0)
            for one in passes
            for run in one.runs
            if run.study == study and run.error is None and work_of(workload, run) > 0
        ]
        if costs:
            seconds_per_unit.append(statistics.median(costs))
    if not seconds_per_unit:
        return 0.0
    return len(seconds_per_unit) / sum(seconds_per_unit)


def check_cells(passes: "list[Pass]") -> "tuple[int, int, list[str]]":
    """Output checks: ``(repetitions attempted, failures, messages)``.

    Every estimate and interval end must be finite, every ``is``/``ce``
    estimate in [0, 1], and the study's exact γ must lie within each
    cell's mean interval over the run's repetitions, widened by its own
    width on either side. A repetition that raised is a failure. No golden
    values: a change of RNG stream must not fail the check. The interval
    is a confidence interval, so it alone misses γ on some seeds (imcis on
    group-repair at matrix seed 1327907713: [9.190e-08, 1.1756e-07] against
    γ = 1.1774e-07); three times its width misses an unbiased estimate
    about as often as a ±6σ band would. The ``imcis`` estimate is the
    midpoint of its conservative interval, which can exceed 1 (swat,
    matrix seed 902442177: interval [0.0019, 2.65]), so only its
    finiteness and coverage are checked.
    """
    attempted = 0
    failed = 0
    problems: "list[str]" = []
    cells: "dict[tuple[str, str], list[dict]]" = {}
    for one in passes:
        for run in one.runs:
            if run.error is not None:
                attempted += 1
                failed += 1
                problems.append(f"pass {one.index} {run.study}: {run.error}")
                continue
            for record in run.records:
                attempted += record["repetitions"]
                cells.setdefault((record["study"], record["estimator"]), []).append(record)
    for (study, estimator), records in sorted(cells.items()):
        values = [r[k] for r in records for k in ("estimate_mean", "ci_low", "ci_high")]
        estimates = [r["estimate_mean"] for r in records if estimator != "imcis"]
        if not all(math.isfinite(v) for v in values) or not all(0.0 <= e <= 1.0 for e in estimates):
            failed += 1
            problems.append(f"{study}/{estimator}: non-finite or out-of-range estimate")
            continue
        gamma = records[0]["gamma_true"]
        low = statistics.fmean(r["ci_low"] for r in records)
        high = statistics.fmean(r["ci_high"] for r in records)
        margin = high - low
        if gamma is not None and not low - margin <= gamma <= high + margin:
            failed += 1
            problems.append(
                f"{study}/{estimator}: mean interval [{low:.6g}, {high:.6g}], widened by its "
                f"width, misses γ = {gamma:.6g}"
            )
    return attempted, failed, problems


def pass_counts(passes: "list[Pass]") -> "dict[str, dict]":
    """Exact work counts per pass and study, for cross-run comparison."""
    return {
        f"pass-{one.index}/{run.study}": run.counts for one in passes for run in one.runs
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_counter() -> "tuple[LayerTracer, list[int]]":
    """Wrap only ``random_search`` to read each search's round count.

    One wrapped call per IMCIS repetition; no other call is touched, so
    untraced runs stay untraced.
    """
    tracer = LayerTracer()
    algorithm = importlib.import_module("repro.imcis.algorithm")
    tracer.wrap(
        algorithm,
        "random_search",
        "imcis",
        "imcis.random_search",
        keep=lambda args, result, started, elapsed: result.rounds_total,
    )
    return tracer, tracer.results["imcis.random_search"]


def measure(workload: BatchWorkload, seeds, seconds: float) -> "dict[str, object]":
    """The untraced run: end-to-end throughput and checks."""
    counter, rounds = round_counter()
    with counter, Calibration() as calibration:
        passes = run_passes(workload, seeds, seconds, rounds, calibration)
    attempted, failed, problems = check_cells(passes)
    return {
        "passes": passes,
        "ops_per_s": ops_per_s(workload, passes),
        "unscaled_ops_per_s": ops_per_s(workload, passes, scaled=False),
        "reference_s": statistics.median(calibration.samples),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "counts": pass_counts(passes),
    }


def layer_metrics(
    workload: BatchWorkload,
    tracer: LayerTracer,
    traced: "list[Pass]",
    untraced: "list[Pass]",
) -> "dict[str, float]":
    """Per-layer metrics of the traced passes, per pass of the cell set."""
    n = len(traced)
    inclusive, contents = tracer.inclusive, tracer.contents
    rounds = tracer.results["imcis.random_search"]
    traces = sum(run.counts.get("traces", 0) for one in traced for run in one.runs)
    steps = sum(run.counts.get("steps", 0) for one in traced for run in one.runs)
    ce_rounds = sum(run.counts.get("ce_rounds", 0) for one in traced for run in one.runs)
    smc_busy = inclusive["smc.simulate"]
    search = inclusive["imcis.random_search"]
    traced_wall = sum(one.wall for one in traced)
    untraced_wall = sum(one.wall for one in untraced)
    metrics = {
        "imcis.busy_s": tracer.layer_self["imcis"] / n,
        "imcis.sample_busy_s": inclusive["imcis.sample"] / n,
        "imcis.objective_busy_s": inclusive["imcis.objective"] / n,
        "imcis.assemble_busy_s": inclusive["imcis.assemble"] / n,
        "imcis.prepare_busy_s": inclusive["imcis.prepare"] / n,
        "imcis.rounds": sum(rounds) / n,
        "imcis.candidates_per_s": tracer.calls["imcis.sample"] / search if search else 0.0,
        "smc.busy_s": smc_busy / n,
        "smc.traces": traces / n,
        "smc.steps": steps / n,
        "smc.traces_per_s": traces / smc_busy if smc_busy else 0.0,
        "importance.estimate_busy_s": inclusive["importance.estimate"] / n,
        "importance.ce_busy_s": (inclusive["importance.ce"] - contents["importance.ce"]["smc"]) / n,
        "importance.ce_rounds": ce_rounds / n,
        "experiments.self_s": tracer.layer_self["experiments"] / n,
        "obs.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "obs.layer_coverage": sum(tracer.layer_self.values()) / traced_wall,
    }
    metrics.update(efficiency(traced))
    for study, seconds in build_times(tracer).items():
        metrics[f"models.build_s.{study}"] = seconds
    return metrics


def efficiency(passes: "list[Pass]") -> "dict[str, float]":
    """IS efficiency of the run's cells, averaged over cells.

    ``ess_per_trace`` is the mean ESS over the traces drawn;
    ``var_per_trace`` is the work-normalised relative variance
    ``N · Var(γ̂) / γ²`` of ``is``/``ce`` estimates across passes.
    """
    cells: "dict[tuple[str, str], list[dict]]" = {}
    for one in passes:
        for run in one.runs:
            for record in run.records:
                cells.setdefault((record["study"], record["estimator"]), []).append(record)
    ess = [
        r["ess_mean"] / r["n_samples"]
        for records in cells.values()
        for r in records
        if r["ess_mean"] is not None
    ]
    variances = []
    for (study, estimator), records in cells.items():
        gamma = records[0]["gamma_true"]
        if estimator in ("is", "ce") and gamma and len(records) > 1:
            spread = statistics.variance([r["estimate_mean"] for r in records])
            variances.append(records[0]["n_samples"] * spread / gamma**2)
    return {
        "importance.ess_per_trace": statistics.fmean(ess) if ess else 0.0,
        "importance.var_per_trace": statistics.fmean(variances) if variances else 0.0,
    }


def measure_traced(workload: BatchWorkload, seeds, seconds: float) -> "dict[str, object]":
    """The traced run: untraced passes for half the budget, then the same
    passes again under the layer tracer.

    The two halves must produce bitwise-identical matrix records and
    identical work counts; their wall-time ratio is the tracing overhead.
    """
    counter, rounds = round_counter()
    with counter:
        untraced = run_passes(workload, seeds, seconds / 2.0, rounds)
    tracer = LayerTracer()
    install_layers(tracer)
    with tracer:
        rounds = tracer.results["imcis.random_search"]
        traced = [run_pass(workload, one.index, one.seed, rounds) for one in untraced]
    attempted, failed, problems = check_cells(untraced + traced)
    for before, after in zip(untraced, traced):
        for plain, timed in zip(before.runs, after.runs):
            if plain.csv != timed.csv or plain.counts != timed.counts:
                failed += 1
                problems.append(
                    f"pass {before.index} {plain.study}: traced run differs from untraced run"
                )
    return {
        "passes": traced,
        "metrics": layer_metrics(workload, tracer, traced, untraced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "counts": pass_counts(untraced),
    }
