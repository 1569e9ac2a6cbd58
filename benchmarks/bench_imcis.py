"""Benchmark: IMCIS random-search (Algorithm 2) candidates per second.

For each study below, draws one IS sample at a fixed seed, builds the
IMCIS objective and candidate space, and times one ``random_search`` at a
fixed seed, best of ``--repeats`` runs on fresh spaces. It reports
candidates/s (search rounds over search seconds), rounds per search,
the seconds per round spent in ``ISObjective.log_f`` and the number of
count rows it scores (the distinct rows of the successful traces).

The sampler's cost is measured apart from the search, whose length
follows the RNG stream: a fresh space draws :data:`SAMPLE_BLOCKS` blocks
of candidates at the search seed, and the benchmark reports Dirichlet
vectors and gamma variates per candidate over them. Both counts are
exact at fixed seeds, so a ``--quick`` run gates the vector count
without timing noise: it fails when a study draws more than
:data:`MAX_VECTORS_RATIO` times the lowest count recorded for it in the
committed ``BENCH_imcis.json`` with the same NumPy version, or when it
scores more count rows than the fewest recorded for it. The counts
hold for one NumPy version only (its RNG streams); a study with no
record for the running version is reported as not gated.

A second, audited run of the same search (same seeds, fresh space) wraps
``CandidateSpace.sample_rows`` to check every drawn candidate. The run
fails if any drawn row leaves its interval box or does not sum to 1, if
the number of drawn candidates differs from ``rounds_total`` (a drawn
candidate was discarded, or a round scored none), or if the audited
search differs from the timed one.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_imcis.py --quick   # R = 200
    PYTHONPATH=src python benchmarks/bench_imcis.py           # R = 1000

Results are written to ``BENCH_imcis.json`` as a list of records
``{layer, metric, value, unit, git_rev, machine}``. ``--append`` keeps the
file's records of other revisions, so one file can hold a before/after.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.imcis.candidates import CandidateSpace
from repro.imcis.objective import ISObjective
from repro.imcis.random_search import BLOCK_ROUNDS, RandomSearchConfig, random_search
from repro.imcis.tables import ObservationTables
from repro.importance.estimator import run_importance_sampling
from repro.models.registry import REGISTRY
from repro.smc.kernels import kernel_runtime_info

#: A ``--quick`` run fails above this multiple of the committed vectors per candidate.
MAX_VECTORS_RATIO = 1.05
#: Studies (quick variants), study/sample seed and search seed.
CASES = (
    ("group-repair", 2018, 1),
    ("swat", 2018, 1),
    ("knuth-yao", 2018, 1),
    ("birth-death", 2018, 1),
)
#: IS traces per sample (the matrix's quick imcis cells).
N_SAMPLES = 1_000
#: Blocks of candidates (``BLOCK_ROUNDS`` rounds each, fewer if the space's
#: memory cap says so) over which vectors and variates are counted.
SAMPLE_BLOCKS = 16
ROOT = Path(__file__).resolve().parent.parent


def machine() -> "dict[str, object]":
    """CPU model, cores, numpy version and simulation-kernel tier."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "kernel": kernel_runtime_info()["tier"],
    }


def git_rev() -> "str | None":
    """``HEAD``'s commit, suffixed ``+dirty`` when ``src/`` has uncommitted edits."""

    def git(*args: str) -> str:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
        )
        return done.stdout.strip()

    rev = git("rev-parse", "HEAD")
    if not rev:
        return None
    return rev + ("+dirty" if git("status", "--porcelain", "src") else "")


def write_records(args, records: "list[dict]") -> None:
    """Stamp *records* with the revision and machine and write them to
    ``args.out``; with ``args.append``, keep the file's records of other
    revisions and its paired records (``benchmarks/pairs.py``)."""
    rev, host = git_rev(), machine()
    stamped = [{**record, "git_rev": rev, "machine": host} for record in records]
    if args.append and args.out.exists():
        kept = [
            r for r in json.loads(args.out.read_text())
            if r.get("git_rev") != rev or "base_rev" in r
        ]
        stamped = kept + stamped
    args.out.write_text(json.dumps(stamped, indent=2) + "\n")
    print(f"wrote {args.out}")


def committed_minimum(path: Path, name: str) -> "dict[str, float]":
    """The lowest ``<name>.<study>`` value recorded per study in *path*.

    Only records made with this NumPy version count: the RNG streams, and
    so the counts, are exact for one version.
    """
    if not path.exists():
        return {}
    best: "dict[str, float]" = {}
    for record in json.loads(path.read_text()):
        metric = record.get("metric", "")
        same_numpy = (record.get("machine") or {}).get("numpy") == np.__version__
        if same_numpy and metric.startswith(name + "."):
            study = metric.split(".", 1)[1]
            best[study] = min(best.get(study, math.inf), float(record["value"]))
    return best


def build_problem(study: str, seed: int):
    """The IS sample's objective and a fresh candidate space."""
    case = REGISTRY.make_study(study, rng=seed, quick=True)
    imc = case.imc
    sample = run_importance_sampling(
        case.proposal, case.formula, N_SAMPLES, np.random.default_rng(seed), original=imc.center
    )
    tables = ObservationTables.from_sample(sample)
    return ISObjective(tables), lambda: CandidateSpace(imc, tables)


class CountingGenerator(np.random.Generator):
    """A PCG64 generator (``default_rng(seed)``'s stream) that counts the
    gamma variates drawn through it."""

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self.variates = 0

    def standard_gamma(self, *args, **kwargs):
        draws = super().standard_gamma(*args, **kwargs)
        self.variates += np.size(draws)
        return draws


def sampling_cost(space: CandidateSpace, seed: int) -> "tuple[float, float, list[str]]":
    """Vectors and gamma variates per candidate over :data:`SAMPLE_BLOCKS`
    blocks drawn from the fresh *space*, and any problems seen."""
    rng = CountingGenerator(seed)
    rounds = min(BLOCK_ROUNDS, space.max_block_rounds)
    for _ in range(SAMPLE_BLOCKS):
        space.sample_rows(rng, rounds)
    candidates = SAMPLE_BLOCKS * rounds
    counted = getattr(space, "variates_drawn", rng.variates)
    problems = []
    if counted != rng.variates:
        problems.append(f"the space counts {counted} variates, the generator drew {rng.variates}")
    return space.vectors_drawn / candidates, rng.variates / candidates, problems


def audit(space: CandidateSpace) -> "dict[str, int]":
    """Wrap *space*'s ``sample_rows`` to count and check every drawn candidate."""
    counts = {"candidates": 0, "infeasible": 0}
    bounds = {p.state: (p.lower, p.upper) for p in space.sampled_plans}
    draw = space.sample_rows

    def checked(*args, **kwargs):
        rows = draw(*args, **kwargs)
        drawn = 0
        for state, values in rows.items():
            # 0.13.0's sample_rows returned one 1-D row per state.
            block = np.atleast_2d(values)
            drawn = block.shape[0]
            lower, upper = bounds[state]
            bad = (
                (np.abs(block.sum(axis=1) - 1.0) > 1e-9)
                | np.any(block < lower - 1e-9, axis=1)
                | np.any(block > upper + 1e-9, axis=1)
            )
            counts["infeasible"] += int(bad.sum())
        counts["candidates"] += drawn
        return rows

    space.sample_rows = checked
    return counts


def timed_objective(objective: ISObjective) -> "list[float]":
    """Wrap *objective*'s ``log_f`` to add the seconds of each call to the
    returned one-element list."""
    seconds = [0.0]
    score = objective.log_f

    def log_f(*args, **kwargs):
        started = time.perf_counter()
        values = score(*args, **kwargs)
        seconds[0] += time.perf_counter() - started
        return values

    objective.log_f = log_f
    return seconds


def bench_case(study: str, seed: int, search_seed: int, r_undefeated: int, repeats: int):
    objective, make_space = build_problem(study, seed)
    config = RandomSearchConfig(r_undefeated=r_undefeated, record_history=False)
    # A parent checkout's objective scores one row per successful trace.
    scored_rows = getattr(objective, "n_rows", objective.tables.n_successful)

    elapsed = objective_s = float("inf")
    for _ in range(repeats):
        space = make_space()
        scoring = timed_objective(objective)
        started = time.perf_counter()
        timed = random_search(objective, space, search_seed, config)
        elapsed = min(elapsed, time.perf_counter() - started)
        objective_s = min(objective_s, scoring[0])
        del objective.log_f

    space = make_space()
    counts = audit(space)
    audited = random_search(objective, space, search_seed, config)

    problems = []
    if counts["infeasible"]:
        problems.append(f"{counts['infeasible']} infeasible candidate row(s)")
    if counts["candidates"] != audited.rounds_total:
        problems.append(
            f"{counts['candidates']} candidates drawn for {audited.rounds_total} rounds"
        )
    if (audited.rounds_total, audited.log_a_min.tolist(), audited.log_a_max.tolist()) != (
        timed.rounds_total,
        timed.log_a_min.tolist(),
        timed.log_a_max.tolist(),
    ):
        problems.append("the audited search differs from the timed one")
    vectors, variates, counting = sampling_cost(make_space(), search_seed)
    entry = {
        "study": study,
        "rows": space.n_sampled_states,
        "rounds": timed.rounds_total,
        "seconds": elapsed,
        "candidates_per_s": timed.rounds_total / elapsed,
        "objective_s_per_round": objective_s / timed.rounds_total,
        "scored_rows": scored_rows,
        "vectors_per_candidate": vectors,
        "variates_per_candidate": variates,
    }
    return entry, problems + counting


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="R = 200 instead of 1000")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_imcis.json"),
        help="output JSON path (default: ./BENCH_imcis.json)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="keep the output file's records of other revisions",
    )
    args = parser.parse_args(argv)
    r_undefeated = 200 if args.quick else 1000
    committed = committed_minimum(ROOT / "BENCH_imcis.json", "vectors_per_candidate")
    committed_rows = committed_minimum(ROOT / "BENCH_imcis.json", "scored_rows")

    records, failures = [], []
    print(
        f"== IMCIS random-search benchmark (R = {r_undefeated}, N = {N_SAMPLES}, "
        f"best of {args.repeats}) =="
    )
    for study, seed, search_seed in CASES:
        entry, problems = bench_case(study, seed, search_seed, r_undefeated, args.repeats)
        vectors, variates = entry["vectors_per_candidate"], entry["variates_per_candidate"]
        scored, objective_us = entry["scored_rows"], 1e6 * entry["objective_s_per_round"]
        print(
            f"{study:14s} {entry['rows']:4d} rows  {entry['rounds']:6d} rounds  "
            f"{entry['seconds']:7.3f} s  {entry['candidates_per_s']:9.1f} candidates/s  "
            f"{vectors:8.1f} vectors/candidate  {variates:8.1f} variates/candidate  "
            f"{scored:5d} scored rows  {objective_us:7.2f} us objective/round"
        )
        failures += [f"{study}: {p}" for p in problems]
        limit = committed.get(study)
        if args.quick and limit is None:
            print(
                f"NOTE: {study}: vectors per candidate not gated, no committed "
                f"record for numpy {np.__version__}"
            )
        elif args.quick and vectors > MAX_VECTORS_RATIO * limit:
            failures.append(
                f"{study}: {vectors:.2f} vectors per candidate, over "
                f"{MAX_VECTORS_RATIO} x the committed {limit:.2f}"
            )
        row_limit = committed_rows.get(study)
        if args.quick and row_limit is None:
            print(
                f"NOTE: {study}: scored rows not gated, no committed "
                f"record for numpy {np.__version__}"
            )
        elif args.quick and scored > row_limit:
            failures.append(
                f"{study}: log_f scores {scored} rows, over the committed {row_limit:.0f}"
            )
        for metric, value, unit in (
            (f"candidates_per_s.{study}", entry["candidates_per_s"], "1/s"),
            (f"objective_s_per_round.{study}", entry["objective_s_per_round"], "s"),
            (f"scored_rows.{study}", scored, "count"),
            (f"rounds_per_search.{study}", entry["rounds"], "count"),
            (f"vectors_per_candidate.{study}", vectors, "count"),
            (f"variates_per_candidate.{study}", variates, "count"),
        ):
            records.append({"layer": "imcis", "metric": metric, "value": value, "unit": unit})

    write_records(args, records)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
