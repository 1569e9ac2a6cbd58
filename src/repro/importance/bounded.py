"""Time-dependent importance sampling for step-bounded properties.

For a bounded until the zero-variance change of measure is *time-dependent*:
the optimal tilt of a transition taken at step ``t`` uses the probability of
succeeding in the remaining ``bound − t − 1`` steps. A time-dependent
proposal is realised here by **unrolling** the chain against the step
counter — state ``(t, s)`` with index ``t·n + s`` — and tilting the
unrolled transitions by the backward value table

    u_k(s) = P( lhs U^{<=k} rhs  from s ),

i.e. ``B((t, s) → (t+1, s')) ∝ A(s, s') · u_{bound−t−1}(s')``.

The IMCIS objective is unaffected: transition counts are *projected back*
onto the original chain (the candidate ``A`` is time-homogeneous) while the
likelihood-ratio denominator ``log P_B(ω)`` is recorded during sampling as a
scalar — exactly why Algorithm 1's tables keep the proposal term separate.
An :class:`UnrolledProposal` is therefore an ordinary IS proposal:
:func:`~repro.importance.estimator.run_importance_sampling` samples under it
like under any DTMC, and the SWaT study carries one as its
``CaseStudy.proposal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.analysis.graph import prob0_states
from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.properties.logic import Atom, Eventually, Formula, UntilSpec
from repro.smc.futility import FutilityMask


def bounded_value_table(
    chain: DTMC, lhs_mask: np.ndarray, rhs_mask: np.ndarray, bound: int
) -> np.ndarray:
    """``u[k, s] = P(lhs U<=k rhs from s)`` for ``k = 0..bound``."""
    if bound < 0:
        raise EstimationError("bound must be non-negative")
    n = chain.n_states
    table = np.zeros((bound + 1, n))
    rhs = rhs_mask.astype(float)
    continue_mask = (lhs_mask & ~rhs_mask).astype(float)
    table[0] = rhs
    for k in range(1, bound + 1):
        table[k] = rhs + continue_mask * chain.matvec(table[k - 1])
    return table


@dataclass
class UnrolledProposal:
    """A time-dependent proposal realised as a chain over ``(step, state)``.

    Attributes
    ----------
    chain:
        The unrolled sparse DTMC; state ``t·n + s`` means "original state
        ``s`` at step ``t``"; the last layer is absorbing.
    n_original:
        Number of states of the original chain.
    bound:
        The step bound of the property.
    formula:
        The goal formula *on the unrolled chain* (``F<=bound "goal"``).
    futility:
        Futility mask for the unrolled chain (cuts hopeless traces).
    """

    chain: DTMC
    n_original: int
    bound: int
    formula: Formula
    futility: FutilityMask

    def state_map(self) -> np.ndarray:
        """The unrolling projection ``t·n + s → s`` as an index array.

        Used both to project sampled counts back onto the original chain
        and as the ``weight_state_map`` for fused weights (every transition a live
        trace takes maps to an original-chain transition; the decided
        states' self-loops are never taken by live traces).
        """
        return np.arange(self.chain.n_states, dtype=np.int64) % self.n_original


def time_dependent_zero_variance(
    chain: DTMC,
    spec: UntilSpec | Formula,
    mixing: float = 0.0,
) -> UnrolledProposal:
    """Build the unrolled zero-variance proposal of a bounded until.

    *spec* must be a plain bounded until (no leading ``X``, no exempt lhs).
    ``mixing`` blends each tilted row with the original row — a defensive
    mixture giving the proposal full support (and, deliberately, non-zero
    estimator variance; the experiments use it to model the imperfect
    proposals real systems get).
    """
    if isinstance(spec, Formula):
        spec = spec.until_spec(chain)
    if spec.bound is None:
        raise EstimationError("use zero_variance_proposal for unbounded properties")
    if spec.n_next or spec.lhs_exempt or spec.initial_check is not None:
        raise EstimationError("only plain bounded untils are supported here")
    if not 0.0 <= mixing < 1.0:
        raise EstimationError("mixing must be in [0, 1)")
    bound = spec.bound
    n = chain.n_states
    table = bounded_value_table(chain, spec.lhs_mask, spec.rhs_mask, bound)
    if table[bound, chain.initial_state] == 0.0:
        raise EstimationError("the bounded property has probability zero from s0")

    goal_mask = np.tile(spec.rhs_mask, bound + 1)
    continue_mask = spec.lhs_mask & ~spec.rhs_mask
    # Each row's entries in ``DTMC.row_entries`` order: a sparse chain's
    # as stored, a dense chain's by column.
    rows_csr = sparse.csr_matrix(chain.transitions)
    indptr, indices = rows_csr.indptr.astype(np.int64), rows_csr.indices.astype(np.int64)
    probs = rows_csr.data
    # One layer's entries in (state, entry) order: a decided state's
    # self-loop (decided states absorb; the monitor never leaves them) or
    # a continuing state's row.
    degrees = np.diff(indptr)
    slots = np.where(continue_mask, degrees, 1)
    slot_state = np.repeat(np.arange(n), slots)
    slot_offset = np.arange(slot_state.size) - (np.cumsum(slots) - slots)[slot_state]
    self_loop = ~continue_mask[slot_state]
    slot_entry = np.where(self_loop, 0, indptr[slot_state] + slot_offset)
    # Continuing rows grouped by degree, so a row's tilted mass is a 2-D
    # ``sum(axis=1)`` over exactly its own entries (the 1-D row sum, bit
    # for bit).
    groups = []
    for degree in np.unique(degrees[continue_mask]):
        rows_d = np.flatnonzero(continue_mask & (degrees == degree))
        groups.append(indptr[rows_d][:, None] + np.arange(degree))
    weights = np.zeros(probs.size)
    rows, cols, data = [], [], []
    for t in range(bound):
        values = table[bound - t - 1]
        for entries in groups:
            row_probs = probs[entries]
            tilted = row_probs * values[indices[entries]]
            mass = tilted.sum(axis=1)[:, None]
            live = mass > 0.0
            mixed = (1.0 - mixing) * tilted / np.where(live, mass, 1.0) + mixing * row_probs
            # A row of zero tilted mass keeps the original row.
            weights[entries] = np.where(live, mixed, row_probs)
        slot_weights = np.where(self_loop, 1.0, weights[slot_entry])
        keep = slot_weights > 0.0
        targets = np.where(
            self_loop, t * n + slot_state, (t + 1) * n + indices[slot_entry]
        )
        rows.append(t * n + slot_state[keep])
        cols.append(targets[keep])
        data.append(slot_weights[keep])
    last = np.arange(bound * n, (bound + 1) * n)
    rows.append(last)
    cols.append(last)
    data.append(np.ones(n))
    rows, cols, data = np.concatenate(rows), np.concatenate(cols), np.concatenate(data)

    matrix = sparse.csr_matrix((data, (rows, cols)), shape=((bound + 1) * n,) * 2)
    unrolled = DTMC(
        matrix,
        chain.initial_state,
        labels={"goal": goal_mask},
    )
    formula = Eventually(Atom("goal"), bound)
    futile = prob0_states(
        unrolled.transitions, np.ones(unrolled.n_states, dtype=bool), goal_mask
    )
    return UnrolledProposal(
        chain=unrolled,
        n_original=n,
        bound=bound,
        formula=formula,
        futility=FutilityMask(futile, 0),
    )

