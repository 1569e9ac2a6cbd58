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
``--out``). The script exits non-zero when any cell misses its
``gamma_true`` or the repair duel fails — in quick *and* full mode:
unlike a scaling gate, neither gate has hardware prerequisites. The JSON
is written before exiting so CI can upload the trajectory even
(especially) on failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

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


def cell_payload(cell: MatrixCell) -> dict:
    """The JSON record of one benchmark cell."""
    return {
        "study": cell.study,
        "estimator": cell.estimator,
        "repetitions": cell.repetitions,
        "n_samples": cell.n_samples,
        "gamma_true": cell.gamma_true,
        "estimate_mean": cell.estimate_mean,
        "ci": [cell.ci_low, cell.ci_high],
        "ess_mean": cell.ess_mean,
        "coverage": cell.coverage,
        "within_ci": cell.within_ci,
        "variance_per_trace": variance_per_trace(cell),
        "wall_time": round(cell.wall_time, 3),
        "traces_per_sec": round(cell.traces_per_sec, 1),
    }


def run_repair_duel(studies: "list[str]", seed: int, workers: object) -> dict:
    """``ce`` vs ``is`` variance-per-trace on the repair studies.

    Returns the duel section of the benchmark JSON: one record per repair
    study with both estimators' variance-per-trace and the verdict, plus
    the aggregate gate.
    """
    duel_studies = [name for name in REPAIR_STUDIES if name in studies]
    if not duel_studies:
        return {"studies": [], "cells": [], "gate": {"status": "skipped"}}
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
        records.append(
            {
                "study": study,
                "is_variance_per_trace": is_vpt,
                "ce_variance_per_trace": ce_vpt,
                "ratio": ce_vpt / is_vpt if is_vpt > 0 else None,
                "ce_wins": wins,
                "ce_within_ci": by_study[study]["ce"].within_ci,
            }
        )
        verdict = "ce wins" if wins else "IS WINS"
        print(
            f"{study:>14}  is {is_vpt:.3e}  ce {ce_vpt:.3e}  "
            f"(ratio {ce_vpt / is_vpt:.2f})  [{verdict}]"
        )
    return {
        "studies": duel_studies,
        "repetitions": DUEL_REPETITIONS,
        "n_samples": DUEL_N_SAMPLES,
        "cells": records,
        "gate": {
            "criterion": "ce variance-per-trace below is on every repair study",
            "losing_studies": losing,
            "status": "failed" if losing else "passed",
        },
    }


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
    result = run_matrix(config)

    cells = []
    for cell in result.cells:
        cells.append(cell_payload(cell))
        status = {True: "ok", False: "MISS", None: "no gamma_true"}[cell.within_ci]
        gamma = "?" if cell.gamma_true is None else f"{cell.gamma_true:.4g}"
        print(
            f"{cell.study:>14}/{cell.estimator:<5} "
            f"{cell.traces_per_sec:>12,.0f} traces/s  "
            f"estimate {cell.estimate_mean:.4g} vs gamma {gamma}  "
            f"vpt {variance_per_trace(cell):.3e}  [{status}]"
        )

    print("== repair duel (ce refinement vs the stock defensive proposal) ==")
    duel = run_repair_duel(studies, args.seed, args.workers)

    failing = [f"{cell.study}/{cell.estimator}" for cell in result.failing_cells()]
    results = {
        "benchmark": "matrix",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "quick": args.quick,
        "estimators": list(config.estimators),
        "studies": studies,
        "cells": cells,
        "gate": {
            "criterion": "every cell's mean CI contains gamma_true",
            "failing_cells": failing,
            "status": "failed" if failing else "passed",
        },
        "repair_duel": duel,
    }
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    code = 0
    if failing:
        print(f"FAIL: {len(failing)} cell(s) miss gamma_true: {', '.join(failing)}")
        code = 1
    else:
        print("gate: passed — every cell's mean CI contains gamma_true")
    if duel["gate"]["status"] == "failed":
        losing = ", ".join(duel["gate"]["losing_studies"])
        print(f"FAIL: repair duel — ce does not beat is on: {losing}")
        code = 1
    elif duel["gate"]["status"] == "passed":
        print("gate: passed — ce beats is variance-per-trace on every repair study")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
