"""Reference walks of log generation: test oracles.

:func:`observe_traces` is the scalar walk the batched observer is checked
against: one ``chain.step`` per transition of one trace at a time.

:func:`dense_counts` is the loop :func:`repro.learning.frequentist.observe_traces_batch`
ran before it looked successors up in a per-row breakpoint table: per
step one ``rng.random(n_traces)`` draw, the successor as the number of
columns whose running row sum (the last pinned to ``1.0``) is below the
draw, over all ``n`` columns, and one ``np.add.at`` into a dense count
matrix. On the same stream the two give identical counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.dtmc import DTMC
from repro.core.paths import TransitionCounts


def observe_traces(
    chain: DTMC, n_steps: int, rng: np.random.Generator, n_traces: int = 1
) -> TransitionCounts:
    """Transition counts of *n_traces* walks of *n_steps* from the initial state."""
    counts = TransitionCounts()
    for _ in range(n_traces):
        state = chain.initial_state
        for _ in range(n_steps):
            next_state = chain.step(state, rng)
            counts.record(state, next_state)
            state = next_state
    return counts


def dense_counts(
    chain: DTMC, n_steps: int, n_traces: int, rng: np.random.Generator
) -> np.ndarray:
    """The ``(n, n)`` transition counts of *n_traces* walks of *n_steps*."""
    cumulative = np.cumsum(chain.dense(), axis=1)
    cumulative[:, -1] = 1.0
    n = chain.n_states
    states = np.full(n_traces, chain.initial_state, dtype=np.int64)
    count_matrix = np.zeros((n, n), dtype=np.int64)
    for _ in range(n_steps):
        draws = rng.random(n_traces)
        next_states = (cumulative[states] < draws[:, None]).sum(axis=1)
        np.add.at(count_matrix, (states, next_states), 1)
        states = next_states
    return count_matrix
