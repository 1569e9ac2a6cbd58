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

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    goal_mask = np.zeros((bound + 1) * n, dtype=bool)
    for t in range(bound + 1):
        layer = t * n
        goal_mask[layer : layer + n] = spec.rhs_mask
    continue_mask = spec.lhs_mask & ~spec.rhs_mask

    for t in range(bound):
        remaining = bound - t - 1
        values = table[remaining]
        layer, next_layer = t * n, (t + 1) * n
        for s in range(n):
            source = layer + s
            if not continue_mask[s]:
                # Decided states absorb; the monitor never leaves them.
                rows.append(source)
                cols.append(source)
                data.append(1.0)
                continue
            indices, probs = chain.row_entries(s)
            tilted = probs * values[indices]
            mass = float(tilted.sum())
            if mass > 0.0:
                weights = (1.0 - mixing) * tilted / mass + mixing * probs
            else:
                weights = probs
            for j, w in zip(indices, weights):
                if w > 0.0:
                    rows.append(source)
                    cols.append(next_layer + int(j))
                    data.append(float(w))
    last = bound * n
    for s in range(n):
        rows.append(last + s)
        cols.append(last + s)
        data.append(1.0)

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

