"""Benchmark gate: fused-kernel importance sampling vs the classic path.

The kernel tier's headline optimisation fuses the IS likelihood-ratio
numerator ``Σ n_ij (log a_ij − log b_ij)`` into the simulation loop,
replacing the per-trace transition counts the classic path keeps and
weights afterwards. This benchmark measures the end-to-end IS estimation
pipeline (sampling + weighting + interval) both ways, on the same kernel
backend:

* ``classic``: ``run_importance_sampling`` without ``original=``:
  per-trace count arrays are kept and ``log_weights`` evaluates them
  against the original chain;
* ``fused``: ``original=`` the target chain and ``keep_counts=False`` —
  weights come out of the in-loop accumulator.

It asserts two gates and exits non-zero when either fails:

1. **speedup** — the fused path's speedup over the classic path on the
   illustrative study is at least ``--min-speedup`` (default 0.7×, half
   the ~1.4× measured with the NumPy kernel tier on a 2-core x86 VM);
2. **parity** — estimates, confidence intervals and ESS agree between
   the paths within 1e-9 relative (the fused numerator differs from the
   count-array weights only in IEEE summation order), and ``n_satisfied`` is
   bitwise identical (both paths realise the same traces).

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_is_kernel.py            # full
    PYTHONPATH=src python benchmarks/bench_is_kernel.py --quick    # CI smoke

Results are printed and written to ``BENCH_is_kernel.json`` (override
with ``--out``) as a list of records ``{layer, metric, value, unit,
git_rev, machine}``, the schema of ``BENCH_imcis.json``. ``--append`` keeps
the file's records of other revisions, so one committed file holds the
trajectory: to record a parent revision, copy this script into a checkout
of it and run it there with ``--out <this repo>/BENCH_is_kernel.json
--append``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from bench_imcis import write_records
from repro.importance.estimator import estimate_from_sample, run_importance_sampling
from repro.models import illustrative
from repro.smc.kernels import kernel_runtime_info

#: Relative tolerance of the classic-vs-fused parity gate; the two paths
#: sum the same per-transition log terms in different IEEE orders.
PARITY_RTOL = 1e-9


def _summarize(result) -> dict:
    return {
        "estimate": result.estimate,
        "ci_low": result.interval.low,
        "ci_high": result.interval.high,
        "ess": result.ess,
        "n_satisfied": result.n_satisfied,
    }


def _close(a: float, b: float) -> bool:
    return bool(np.isclose(a, b, rtol=PARITY_RTOL, atol=1e-12))


def _run_path(target, proposal, formula, n: int, seed: int, *, fused: bool):
    """One end-to-end IS estimation: sample, weight, interval."""
    rng = np.random.default_rng(seed)
    if fused:
        sample = run_importance_sampling(
            proposal, formula, n, rng, original=target, keep_counts=False,
        )
    else:
        sample = run_importance_sampling(proposal, formula, n, rng)
    return estimate_from_sample(target, sample)


def _time_path(target, proposal, formula, n, seed, repeats, *, fused):
    """Best-of-*repeats* wall time of the end-to-end pipeline."""
    _run_path(target, proposal, formula, min(n, 500), seed, fused=fused)  # warm
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _run_path(target, proposal, formula, n, seed, fused=fused)
        best = min(best, time.perf_counter() - started)
    return best


def bench_study(
    name: str, target, proposal, formula, n: int, repeats: int, seed: int = 2018
) -> dict:
    """Benchmark and parity-check one study; returns the JSON entry."""
    classic_time = _time_path(target, proposal, formula, n, seed, repeats, fused=False)
    fused_time = _time_path(target, proposal, formula, n, seed, repeats, fused=True)

    classic = _run_path(target, proposal, formula, n, seed, fused=False)
    fused = _run_path(target, proposal, formula, n, seed, fused=True)

    parity_ok = (
        classic.n_satisfied == fused.n_satisfied
        and _close(classic.estimate, fused.estimate)
        and _close(classic.interval.low, fused.interval.low)
        and _close(classic.interval.high, fused.interval.high)
        and _close(classic.ess or 0.0, fused.ess or 0.0)
    )
    return {
        "model": name,
        "n_states": target.n_states,
        "n_traces": n,
        "classic_seconds": round(classic_time, 6),
        "fused_seconds": round(fused_time, 6),
        "classic_traces_per_sec": round(n / classic_time, 1),
        "fused_traces_per_sec": round(n / fused_time, 1),
        "speedup": round(classic_time / fused_time, 2),
        "classic": _summarize(classic),
        "fused": _summarize(fused),
        "parity_ok": parity_ok,
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
        "--min-speedup", type=float, default=0.7,
        help="gate: required fused/classic speedup on the illustrative study",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_is_kernel.json"),
        help="output JSON path (default: ./BENCH_is_kernel.json)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="keep the output file's records of other revisions",
    )
    args = parser.parse_args(argv)
    n_traces = args.samples or (12_000 if args.quick else 20_000)

    tier = kernel_runtime_info()["tier"]
    print(f"== fused IS kernel benchmark (N = {n_traces}, tier = {tier}) ==")
    models = []
    entry = bench_study(
        "illustrative",
        illustrative.illustrative_chain(),
        illustrative.perfect_proposal(),
        illustrative.reach_goal_formula(),
        n_traces,
        args.repeats,
    )
    models.append(entry)
    _print_entry(entry)

    if not args.quick:
        from repro.models import repair_large

        entry = bench_study(
            "large-repair",
            repair_large.embedded_chain(),
            repair_large.is_proposal(),
            repair_large.failure_formula(),
            n_traces,
            args.repeats,
        )
        models.append(entry)
        _print_entry(entry)

    write_records(args, [record for entry in models for record in records_of(entry)])

    headline = models[0]["speedup"]
    if not all(m["parity_ok"] for m in models):
        print("FAIL: fused estimates diverge from the classic path")
        return 1
    if headline < args.min_speedup:
        print(f"FAIL: fused speedup {headline}x below the {args.min_speedup}x gate")
        return 1
    print(f"PASS: fused IS path {headline}x over classic, parity held")
    return 0


def records_of(entry: dict) -> "list[dict]":
    """The ``{layer, metric, value, unit}`` records of one model entry."""
    model = entry["model"]
    rows = [
        (f"traces_per_s.{model}.{path}", entry[f"{path}_traces_per_sec"], "1/s")
        for path in ("classic", "fused")
    ]
    rows.append((f"speedup.{model}", entry["speedup"], "ratio"))
    return [
        {"layer": "importance", "metric": metric, "value": value, "unit": unit}
        for metric, value, unit in rows
    ]


def _print_entry(entry: dict) -> None:
    print(
        f"{entry['model']:>14} classic {entry['classic_traces_per_sec']:>12,.0f}/s   "
        f"fused {entry['fused_traces_per_sec']:>12,.0f}/s   "
        f"speedup {entry['speedup']:.1f}x   "
        f"parity={'ok' if entry['parity_ok'] else 'FAIL'}"
    )


if __name__ == "__main__":
    raise SystemExit(main())
