"""Paired comparison: one benchmark command, run alternately on a base
revision and on the working tree.

Machine speed drifts within minutes, so one base run next to one change
run shows nothing. This script extracts the base revision into a
temporary directory (``git archive``: local, no network, nothing left
registered in the repository), then runs the command ``--pairs`` times on
each side, alternating which side goes first. Every run's last JSON line
of standard output is read the way ``perfbench/run.py`` writes it:
``metrics.<name>.value`` (and ``.unit``), plus ``failed`` when present.

It writes one ``paired`` record per metric into ``--out``, in the
``{layer, metric, value, unit, git_rev, machine}`` schema of the
``BENCH_*.json`` files, with ``base_rev`` next to ``git_rev``. ``value``
is the change's median. ``paired`` holds each side's median, quartiles and
raw values, the number of pairs in which the change was better (n of k)
and the one-sided sign-test p-value of that count: the chance of n or more
change-better pairs out of k if neither side were better. Records of the
same metric and revisions are replaced; every other record is kept.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/pairs.py --base HEAD --pairs 10 --layer imcis \\
        --label imcis-narrow --metric ops_per_s --better higher \\
        --out BENCH_imcis.json -- python3 perfbench/run.py --workload imcis-narrow --seed 1

Each run's working directory is its side's root, with ``PYTHONPATH`` set
to that root's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_imcis import ROOT, git_rev, machine


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def extract(rev: str, into: Path) -> None:
    """Write the tree of commit *rev* into the directory *into*."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def last_json(stdout: str) -> dict:
    """The last line of *stdout* that parses as a JSON object."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    raise ValueError("the command printed no JSON line")


def run_once(command: "list[str]", tree: Path) -> dict:
    """Run *command* in *tree*; its last JSON line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode} in {tree}:\n{done.stderr[-2000:]}"
        )
    return last_json(done.stdout)


def spread(values: "list[float]") -> "dict[str, object]":
    """Median, quartiles, IQR and the values themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def sign_test_p(better: int, pairs: int) -> float:
    """One-sided sign test: P(X ≥ *better*) for X ~ Binomial(*pairs*, 1/2)."""
    return sum(math.comb(pairs, i) for i in range(better, pairs + 1)) / 2**pairs


def summarize(base: "list[float]", change: "list[float]", better: str) -> "dict[str, object]":
    """The ``paired`` block for one metric: *base*[i] and *change*[i] form pair i."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    return {
        "k": len(base),
        "better": better,
        "base": spread(base),
        "change": spread(change),
        "change_better": wins,
        "sign_test_p": sign_test_p(wins, len(base)),
    }


def merge(path: Path, records: "list[dict]") -> None:
    """Write *records* into the JSON list at *path*, replacing records of the
    same metric and revisions."""
    def key(record: dict):
        return record.get("metric"), record.get("git_rev"), record.get("base_rev")

    new = {key(r) for r in records}
    kept = json.loads(path.read_text()) if path.exists() else []
    kept = [r for r in kept if key(r) not in new]
    path.write_text(json.dumps(kept + records, indent=2) + "\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision (any git revision name)")
    parser.add_argument("--pairs", type=int, default=10, help="base/change pairs (k)")
    parser.add_argument("--layer", required=True, help="record layer, e.g. imcis")
    parser.add_argument("--label", required=True, help="what is measured, e.g. imcis-narrow")
    parser.add_argument(
        "--metric", action="append", required=True,
        help="metric name in the JSON line's metrics (repeatable)",
    )
    parser.add_argument(
        "--better", action="append", choices=("higher", "lower"), required=True,
        help="direction of each --metric, in the same order",
    )
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write into")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- command to run")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given (put it after --)")
    if len(args.better) != len(args.metric):
        parser.error("give one --better per --metric")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    values = {name: {"base": [], "change": []} for name in args.metric}
    units: "dict[str, str]" = {}
    failed = {"base": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as base_dir:
        trees = {"base": Path(base_dir), "change": ROOT}
        extract(base_rev, trees["base"])
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(command, trees[side])
                failed[side] += int(result.get("failed", 0))
                for name in args.metric:
                    metric = result["metrics"][name]
                    values[name][side].append(float(metric["value"]))
                    units[name] = metric.get("unit", "")
            shown = "  ".join(
                f"{name} {values[name]['base'][-1]:.6g} -> {values[name]['change'][-1]:.6g}"
                for name in args.metric
            )
            print(f"pair {i + 1}/{args.pairs}: {shown}", flush=True)

    host, records = machine(), []
    for name, better in zip(args.metric, args.better):
        paired = summarize(values[name]["base"], values[name]["change"], better)
        paired.update(command=command, failed=failed)
        print(
            f"{args.label} {name}: base median {paired['base']['median']:.6g} "
            f"(IQR {paired['base']['iqr']:.3g}), change median {paired['change']['median']:.6g} "
            f"(IQR {paired['change']['iqr']:.3g}), change better in "
            f"{paired['change_better']}/{paired['k']} pairs, "
            f"sign-test p {paired['sign_test_p']:.3g}"
        )
        records.append(
            {
                "layer": args.layer,
                "metric": f"paired.{args.label}.{name}",
                "value": paired["change"]["median"],
                "unit": units[name],
                "paired": paired,
                "git_rev": git_rev(),
                "base_rev": base_rev,
                "machine": host,
            }
        )
    merge(args.out, records)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
