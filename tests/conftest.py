"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import DTMC, IMC
from repro.smc.kernels import TraceCounts

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


def trace_counts(tables, n_states: int | None = None) -> TraceCounts:
    """Per-trace count tables as the :class:`TraceCounts` samples carry.

    *tables* holds one :class:`~repro.core.paths.TransitionCounts` or
    ``{(i, j): n}`` dict per trace; *n_states* defaults to one past the
    largest state index.
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
    return TraceCounts.from_step_keys(
        len(rows),
        n_states,
        np.ones(len(rows), dtype=bool),
        [np.array(traces, dtype=np.int64)],
        [np.array(keys, dtype=np.int64)],
    )
