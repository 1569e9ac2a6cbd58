"""Benchmark: the cross-study experiment matrix as a correctness gate.

Runs ``repro.experiments.matrix`` over the registry's quick set with the
full estimator stack (``is``/``imcis``/``ce``) and records, per
cell, the simulation throughput (traces/sec), the empirical
variance-per-trace (the repetition variance of the estimate times the
trace budget — the budget-normalised quality metric that makes
estimators comparable), and whether the cell's mean confidence interval
contains the study's exact ``gamma_true`` — the estimate-sanity gate. A
registry family whose proposal, IMC or closed form drifts out of
agreement with the estimator stack turns a cell red here before it can
corrupt any experiment built on top.

A second section runs the *repair duel*: on the repair-family studies
(whose stock proposals are deliberately defensive zero-variance
mixtures), the ``ce`` estimator's iterated refinement must achieve a
lower variance-per-trace than plain ``is`` at a matched budget. The duel
uses a larger per-repetition budget than the sanity sweep because CE's
advantage is paid for by refinement traces — at smoke-run budgets the
refit is noise-limited.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_matrix.py            # full
    PYTHONPATH=src python benchmarks/bench_matrix.py --quick    # CI gate

Results are printed and written to ``BENCH_matrix.json`` (override with
``--out``) as ``{layer, metric, value, unit, git_rev, machine}`` records;
``--append`` keeps the file's records of other revisions. The script
exits non-zero when any cell misses its ``gamma_true`` or the repair duel
fails — in quick *and* full mode: unlike a scaling gate, neither gate has
hardware prerequisites. The JSON is written before exiting so CI can
upload the trajectory even (especially) on failure.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from bench_imcis import write_records

from repro.experiments.matrix import MatrixCell, MatrixConfig, run_matrix
from repro.models.registry import REGISTRY

#: The estimator stack the sanity sweep covers.
BENCH_ESTIMATORS = ("is", "imcis", "ce")
#: Registry families whose stock proposals the repair duel challenges.
REPAIR_STUDIES = ("group-repair", "tandem-repair", "large-repair")
#: Repair-duel budget: large enough that CE's refit is not noise-limited.
DUEL_REPETITIONS = 8
DUEL_N_SAMPLES = 4_000


def variance_per_trace(cell: MatrixCell) -> float:
    """Empirical estimate variance times the trace budget.

    ``Var(γ̂) · N`` is invariant to the budget for an IS-style estimator
    (variance scales as ``σ²/N``), so cells with different budgets — and
    estimators that split one budget between refinement and estimation —
    compare on an equal footing.
    """
    return cell.estimate_std**2 * cell.n_samples


def record(metric: str, value: float, unit: str) -> dict:
    """One ``experiments``-layer record (stamped by ``write_records``)."""
    return {"layer": "experiments", "metric": metric, "value": value, "unit": unit}


def cell_records(cell: MatrixCell) -> "list[dict]":
    """The records of one benchmark cell; undefined columns are left out."""
    name = f"{cell.study}.{cell.estimator}"
    records = [
        record(f"traces_per_s.{name}", round(cell.traces_per_sec, 1), "1/s"),
        record(f"wall_s.{name}", round(cell.wall_time, 3), "s"),
        record(f"variance_per_trace.{name}", variance_per_trace(cell), "ratio"),
    ]
    if cell.ess_mean is not None:
        records.append(record(f"ess_mean.{name}", cell.ess_mean, "count"))
    if cell.coverage is not None:
        records.append(record(f"coverage.{name}", cell.coverage, "ratio"))
    if cell.within_ci is not None:
        records.append(record(f"within_ci.{name}", float(cell.within_ci), "bool"))
    return records


def run_repair_duel(
    studies: "list[str]", seed: int, workers: object
) -> "tuple[list[dict], list[str] | None]":
    """``ce`` vs ``is`` variance-per-trace on the repair studies.

    Returns the duel's records (both estimators' variance-per-trace and
    their ratio per repair study) and the studies where ``ce`` loses;
    ``None`` instead of that list when no repair study ran.
    """
    duel_studies = [name for name in REPAIR_STUDIES if name in studies]
    if not duel_studies:
        return [], None
    config = MatrixConfig(
        studies=tuple(duel_studies),
        estimators=("is", "ce"),
        repetitions=DUEL_REPETITIONS,
        n_samples=DUEL_N_SAMPLES,
        quick=True,
        seed=seed,
        workers=workers,
    )
    result = run_matrix(config)
    by_study: "dict[str, dict[str, MatrixCell]]" = {}
    for cell in result.cells:
        by_study.setdefault(cell.study, {})[cell.estimator] = cell
    records = []
    losing = []
    for study in duel_studies:
        is_vpt = variance_per_trace(by_study[study]["is"])
        ce_vpt = variance_per_trace(by_study[study]["ce"])
        wins = ce_vpt < is_vpt
        if not wins:
            losing.append(study)
        records += [
            record(f"duel.variance_per_trace.{study}.is", is_vpt, "ratio"),
            record(f"duel.variance_per_trace.{study}.ce", ce_vpt, "ratio"),
        ]
        if is_vpt > 0:
            records.append(record(f"duel.ce_to_is.{study}", ce_vpt / is_vpt, "ratio"))
        verdict = "ce wins" if wins else "IS WINS"
        print(
            f"{study:>14}  is {is_vpt:.3e}  ce {ce_vpt:.3e}  "
            f"(ratio {ce_vpt / is_vpt:.2f})  [{verdict}]"
        )
    return records, losing


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI configuration: fewer repetitions and traces per cell",
    )
    parser.add_argument("--seed", type=int, default=2018, help="root RNG seed")
    parser.add_argument(
        "--workers",
        default="auto",
        help="worker processes for the repetition fan-out (default: auto)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_matrix.json"),
        help="output JSON path (default: ./BENCH_matrix.json)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="keep the output file's records of other revisions",
    )
    args = parser.parse_args(argv)

    # Full mode mirrors the nightly CI workload (every study including the
    # slow ones, moderated repetitions); quick mode is the per-commit gate.
    config = MatrixConfig(
        estimators=BENCH_ESTIMATORS,
        repetitions=4 if args.quick else 10,
        n_samples=1_000 if args.quick else 4_000,
        search_rounds=100 if args.quick else 1000,
        quick=args.quick,
        seed=args.seed,
        workers=args.workers,
    )
    studies = REGISTRY.quick_studies() if args.quick else REGISTRY.list_studies()
    print(
        f"== matrix benchmark ({len(studies)} studies x "
        f"{len(config.estimators)} estimators, {os.cpu_count()} CPUs) =="
    )
    started = time.perf_counter()
    result = run_matrix(config)
    records = [record("wall_s.matrix", round(time.perf_counter() - started, 3), "s")]

    for cell in result.cells:
        records += cell_records(cell)
        status = {True: "ok", False: "MISS", None: "no gamma_true"}[cell.within_ci]
        gamma = "?" if cell.gamma_true is None else f"{cell.gamma_true:.4g}"
        print(
            f"{cell.study:>14}/{cell.estimator:<5} "
            f"{cell.traces_per_sec:>12,.0f} traces/s  "
            f"estimate {cell.estimate_mean:.4g} vs gamma {gamma}  "
            f"vpt {variance_per_trace(cell):.3e}  [{status}]"
        )

    print("== repair duel (ce refinement vs the stock defensive proposal) ==")
    duel_records, losing = run_repair_duel(studies, args.seed, args.workers)
    records += duel_records

    failing = [f"{cell.study}/{cell.estimator}" for cell in result.failing_cells()]
    records.append(record("gate.failing_cells", len(failing), "count"))
    if losing is not None:
        records.append(record("gate.duel_losing_studies", len(losing), "count"))
    write_records(args, records)

    code = 0
    if failing:
        print(f"FAIL: {len(failing)} cell(s) miss gamma_true: {', '.join(failing)}")
        code = 1
    else:
        print("gate: passed — every cell's mean CI contains gamma_true")
    if losing:
        print(f"FAIL: repair duel — ce does not beat is on: {', '.join(losing)}")
        code = 1
    elif losing is not None:
        print("gate: passed — ce beats is variance-per-trace on every repair study")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
