"""Bounded (transient) analysis of DTMCs.

Step-bounded until probabilities are computed by the standard backward
recursion ``v_0 = [rhs]``, ``v_{t+1} = [rhs] + [lhs ∧ ¬rhs] · (A v_t)``; the
value after *bound* iterations is exact. It works for dense and sparse chains.
"""

from __future__ import annotations

import numpy as np

from repro.core.dtmc import DTMC


def bounded_until_values(
    dtmc: DTMC, lhs_mask: np.ndarray, rhs_mask: np.ndarray, bound: int
) -> np.ndarray:
    """Per-state probabilities of ``lhs U<=bound rhs``.

    ``bound`` counts transitions; ``bound = 0`` means the property must hold
    immediately (value is the *rhs* indicator).
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    rhs = rhs_mask.astype(float)
    continue_mask = (lhs_mask & ~rhs_mask).astype(float)
    values = rhs.copy()
    for _ in range(bound):
        values = rhs + continue_mask * dtmc.matvec(values)
    return values
