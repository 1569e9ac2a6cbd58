"""Frequentist learning of DTMCs and IMCs from observations (Section II-B).

A transition is estimated by its empirical frequency ``â_ij = n_ij / n_i``;
the Okamoto bound turns the per-state observation count into an absolute
margin ``ε`` with confidence ``1 − δ`` (the paper's worked example:
``δ = 1e-5``, ``n_i = 1e4`` gives ``ε ≈ 0.025``). The IMC
``[Â] = [Â − ε, Â + ε]`` centred on the learnt chain is then exactly the
object IMCIS needs.
"""

from __future__ import annotations

import numpy as np

from repro.core.dtmc import DTMC
from repro.core.imc import IMC
from repro.core.paths import TransitionCounts
from repro.errors import LearningError
from repro.smc.intervals import okamoto_epsilon
from repro.util.rng import ensure_rng

#: Uniform draws :func:`observe_traces_batch` holds at once (512 KiB).
_DRAW_BLOCK = 1 << 16


def observe_traces_batch(
    chain: DTMC,
    n_steps: int,
    n_traces: int,
    rng: np.random.Generator | int | None = None,
    initial_state: int | None = None,
) -> TransitionCounts:
    """Vectorised log generation for dense chains.

    Simulates *n_traces* walks in parallel (*n_steps* transitions each) with
    one vectorised draw per step — orders of magnitude faster than walking
    one trace a step at a time when millions of observations are needed to
    reach small Okamoto margins (the SWaT pipeline learns from ~5 M
    transitions).

    A walk in state ``s`` with draw ``u`` moves to the number of columns
    whose running row sum (the last pinned to ``1.0``) is below ``u``.
    The running sum does not move across a zero-probability column, so
    only each row's *breakpoints* decide: column 0, every positive column
    and column ``n − 1``. The number of breakpoints below ``u`` indexes
    the successor among them, which is exactly the column count.
    """
    if chain.is_sparse:
        raise LearningError("observe_traces_batch requires a dense chain")
    if n_steps <= 0 or n_traces <= 0:
        raise LearningError("n_steps and n_traces must be positive")
    generator = ensure_rng(rng)
    dense = chain.dense()
    cumulative = np.cumsum(dense, axis=1)
    cumulative[:, -1] = 1.0
    n = chain.n_states
    breaks = dense > 0.0
    breaks[:, 0] = breaks[:, -1] = True
    rows, columns = np.nonzero(breaks)
    degrees = np.bincount(rows, minlength=n)
    row_lo = np.cumsum(degrees) - degrees
    offset = np.arange(rows.size) - row_lo[rows]
    # Column-major like the kernel's ``cum_cols``, padded with +inf and
    # without each row's last breakpoint (column n − 1 at 1.0, never
    # below a draw).
    inner = offset < degrees[rows] - 1
    cum_cols = np.full((int(degrees.max()) - 1, n), np.inf)
    cum_cols[offset[inner], rows[inner]] = cumulative[rows[inner], columns[inner]]
    start = chain.initial_state if initial_state is None else int(initial_state)
    states = np.full(n_traces, start, dtype=np.int64)
    # ``Generator.random`` draws one stream however it is split, so a
    # block of steps draws what one call per step would. Each step
    # records its breakpoint positions, binned once per block.
    block = max(1, _DRAW_BLOCK // n_traces)
    taken = np.empty((min(block, n_steps), n_traces), dtype=np.int64)
    counts = np.zeros(rows.size, dtype=np.int64)
    for first in range(0, n_steps, block):
        draws = generator.random((min(block, n_steps - first), n_traces))
        for step, u in enumerate(draws):
            below = (cum_cols.take(states, axis=1) < u).sum(axis=0)
            np.add(row_lo.take(states), below, out=taken[step])
            states = columns.take(taken[step])
        counts += np.bincount(taken[: draws.shape[0]].ravel(), minlength=rows.size)
    seen = np.flatnonzero(counts)
    return TransitionCounts.from_pairs(
        ((int(rows[k]), int(columns[k])), int(counts[k])) for k in seen
    )


def learn_dtmc(
    counts: TransitionCounts,
    n_states: int,
    template: DTMC | None = None,
    unvisited: str = "self-loop",
) -> DTMC:
    """Maximum-likelihood DTMC from transition counts.

    Parameters
    ----------
    counts, n_states:
        The observations and the (known) state-space size.
    template:
        Optional chain providing initial state, labels and state names for
        the learnt model (e.g. the ground truth whose structure is known).
    unvisited:
        Row policy for states never observed as a source: ``"self-loop"``
        (default), ``"uniform"``, or ``"error"``.
    """
    if unvisited not in ("self-loop", "uniform", "error"):
        raise LearningError("unvisited must be 'self-loop', 'uniform' or 'error'")
    matrix = counts.to_matrix(n_states).astype(float)
    row_totals = matrix.sum(axis=1)
    estimate = np.zeros_like(matrix)
    for state in range(n_states):
        if row_totals[state] > 0:
            estimate[state] = matrix[state] / row_totals[state]
        elif unvisited == "self-loop":
            estimate[state, state] = 1.0
        elif unvisited == "uniform":
            estimate[state] = 1.0 / n_states
        else:
            raise LearningError(f"state {state} was never observed as a source")
    if template is not None:
        return DTMC(
            estimate, template.initial_state, template.labels, template.state_names
        )
    return DTMC(estimate)


def okamoto_margins(
    counts: TransitionCounts, n_states: int, delta: float
) -> np.ndarray:
    """Per-transition absolute margins from the Okamoto bound.

    The margin of every transition leaving state ``i`` is
    ``ε_i = sqrt(ln(2/δ) / (2 n_i))`` — a function of how often the state
    was observed, as in Section II-B. Rows never observed get margin 0
    (their estimate is a convention, not data; widen explicitly if needed).
    """
    matrix = counts.to_matrix(n_states)
    row_totals = matrix.sum(axis=1)
    margins = np.zeros((n_states, n_states), dtype=float)
    for state in range(n_states):
        total = int(row_totals[state])
        if total > 0:
            margins[state, :] = okamoto_epsilon(total, delta)
    return margins


def learn_imc(
    counts: TransitionCounts,
    n_states: int,
    delta: float,
    template: DTMC | None = None,
    unvisited: str = "self-loop",
    widen_zero: bool = False,
) -> IMC:
    """Learn a DTMC and wrap it in its Okamoto-margin IMC.

    The result is the ``[Â]`` of the paper: an interval chain centred on the
    frequentist estimate whose half-widths reflect the per-state sample
    sizes. With ``widen_zero=False`` (default) unobserved transitions stay
    structurally impossible — appropriate when the support is known.
    """
    chain = learn_dtmc(counts, n_states, template, unvisited)
    margins = okamoto_margins(counts, n_states, delta)
    return IMC.from_center(chain, margins, widen_zero=widen_zero)
