"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import DTMC, IMC
from repro.core.paths import TransitionCounts
from repro.smc.kernels import StepRecords

#: Environment switch for the slow statistical sweeps (tests/statistical/).
NIGHTLY_ENV = "REPRO_NIGHTLY"


def pytest_collection_modifyitems(config, items):
    """Skip ``nightly``-marked tests unless ``REPRO_NIGHTLY=1`` is set."""
    if os.environ.get(NIGHTLY_ENV) == "1":
        return
    skip = pytest.mark.skip(reason=f"nightly sweep; set {NIGHTLY_ENV}=1 to run")
    for item in items:
        if "nightly" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator; tests must not depend on global state."""
    return np.random.default_rng(12345)


def illustrative_matrix(a: float, c: float) -> np.ndarray:
    """The Fig. 1a transition matrix."""
    return np.array(
        [
            [0.0, a, 0.0, 1.0 - a],
            [1.0 - c, 0.0, c, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


@pytest.fixture
def small_chain() -> DTMC:
    """The illustrative chain with non-rare parameters (fast tests)."""
    return DTMC(
        illustrative_matrix(0.3, 0.4),
        0,
        labels={"init": [0], "goal": [2], "fail": [3]},
    )


@pytest.fixture
def rare_chain() -> DTMC:
    """The illustrative chain with the paper's true parameters."""
    return DTMC(
        illustrative_matrix(1e-4, 0.05),
        0,
        labels={"init": [0], "goal": [2], "fail": [3]},
    )


@pytest.fixture
def small_imc(small_chain: DTMC) -> IMC:
    """An IMC of width 0.02 centred on the small chain."""
    return IMC.from_center(small_chain, 0.01)


def random_dtmc(
    rng: np.random.Generator,
    n_states: int,
    labels: dict | None = None,
    sparsity: float = 0.5,
) -> DTMC:
    """A random row-stochastic chain with at least one transition per row."""
    matrix = np.zeros((n_states, n_states))
    for i in range(n_states):
        mask = rng.random(n_states) < sparsity
        if not mask.any():
            mask[rng.integers(n_states)] = True
        weights = rng.random(n_states) * mask
        matrix[i] = weights / weights.sum()
    return DTMC(matrix, 0, labels)


def fused_is_estimate(original, proposal, formula, n_samples, rng):
    """One IS estimate of ``γ(original)`` from *n_samples* traces under
    *proposal*, with the weights fused and no count tables kept: the
    ``run_importance_sampling`` + ``estimate_from_sample`` pair the
    matrix ``is`` cell runs."""
    from repro.importance import estimate_from_sample, run_importance_sampling

    sample = run_importance_sampling(
        proposal, formula, n_samples, rng,
        original=original, keep_counts=False,
    )
    return estimate_from_sample(original, sample)


def records_from_keys(
    n_traces: int, n_states: int, traces: np.ndarray, keys: np.ndarray
) -> StepRecords:
    """Step records of per-step flat ``source·n_states + target`` keys;
    the distinct keys become the entry table."""
    entry_keys, positions = np.unique(keys, return_inverse=True)
    return StepRecords(n_traces, n_states, traces, positions, entry_keys)


def trace_counts(tables, n_states: int | None = None) -> StepRecords:
    """Step records of per-trace count tables, every trace kept.

    *tables* holds one :class:`~repro.core.paths.TransitionCounts` or
    ``{(i, j): n}`` dict per trace; *n_states* defaults to one past the
    largest state index. Samples built on them pass
    ``trace_ids=np.arange(len(tables))``.
    """
    rows = [dict(table.items()) for table in tables]
    if n_states is None:
        n_states = 1 + max((max(pair) for row in rows for pair in row), default=0)
    traces: list[int] = []
    keys: list[int] = []
    for k, row in enumerate(rows):
        for (i, j), n in row.items():
            traces += [k] * n
            keys += [i * n_states + j] * n
    return records_from_keys(
        len(rows),
        n_states,
        np.array(traces, dtype=np.int64),
        np.array(keys, dtype=np.int64),
    )


@dataclass(frozen=True)
class RecordCounts:
    """Per-trace transition counts aggregated from step records (an oracle).

    Entry ``e`` says trace ``trace_ids[e]`` took ``sources[e] → targets[e]``
    ``counts[e]`` times; entries are sorted by ``(trace, source·n + target)``
    and ``kept`` marks the traces that carry tables.
    """

    n_traces: int
    n_states: int
    kept: np.ndarray
    trace_ids: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    counts: np.ndarray

    def tables(self) -> "list[TransitionCounts | None]":
        """One table per kept trace (``None`` for the others), pairs in
        sorted-key order."""
        tables = [TransitionCounts() if keep else None for keep in self.kept.tolist()]
        for k, s, t, c in zip(
            self.trace_ids.tolist(), self.sources.tolist(),
            self.targets.tolist(), self.counts.tolist(),
        ):
            tables[k].counts[(s, t)] = c
        return tables


def aggregate_records(
    records: StepRecords,
    trace_ids: "np.ndarray | None" = None,
    *,
    kept: "np.ndarray | None" = None,
) -> RecordCounts:
    """Aggregate *records* into per-trace counts by a lexsort and a
    run-length encoding, independently of the library's consumers.

    Without *trace_ids* the *kept* traces (default: all; an ensemble
    counted under ``count_mode="satisfied"`` passes its ``satisfied``)
    keep their batch indices and the others drop; with them, trace
    ``trace_ids[k]`` becomes trace ``k`` and the others drop.
    """
    if trace_ids is None:
        n_traces = records.n_traces
        kept = (
            np.ones(n_traces, dtype=bool) if kept is None else np.asarray(kept, dtype=bool)
        )
        new_id = np.where(kept, np.arange(n_traces), -1)
    else:
        n_traces, kept = len(trace_ids), np.ones(len(trace_ids), dtype=bool)
        new_id = np.full(records.n_traces, -1, dtype=np.int64)
        new_id[trace_ids] = np.arange(n_traces)
    ids = new_id[records.traces]
    keys = records.entry_keys[records.positions]
    ids, keys = ids[ids >= 0], keys[ids >= 0]
    order = np.lexsort((keys, ids))
    ids, keys = ids[order], keys[order]
    start = np.ones(ids.size, dtype=bool)
    start[1:] = (ids[1:] != ids[:-1]) | (keys[1:] != keys[:-1])
    starts = np.flatnonzero(start)
    sources, targets = np.divmod(keys[starts], records.n_states)
    return RecordCounts(
        n_traces, records.n_states, kept, ids[starts], sources, targets,
        np.diff(starts, append=ids.size),
    )
