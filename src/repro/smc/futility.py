"""Futility detection: stop traces that can no longer satisfy the property.

An unbounded ``F "goal"`` monitor never returns FALSE on its own — a trace
absorbed in a failure state would simulate forever (until the step cap).
For properties with an :class:`~repro.properties.logic.UntilSpec` shape the
set of *futile* states — states from which satisfaction has probability
zero under the sampled chain — is computable by graph analysis (prob0).
The simulation engine (:mod:`repro.smc.engine`) consults the futility
mask and declares FALSE as soon as the trace enters it.

The mask only applies from ``start_position`` onwards: for specs with a
leading ``X`` or the exempt-until shape, position 0 plays by different
rules and is left to the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.graph import prob0_states
from repro.core.dtmc import DTMC
from repro.errors import PropertyError
from repro.properties.logic import Formula, UntilSpec


@dataclass(frozen=True)
class FutilityMask:
    """States where an undecided trace is declared FALSE, from a position."""

    mask: np.ndarray
    start_position: int

    def applies(self, state: int, position: int) -> bool:
        """True when the trace can be cut at *state*/*position*."""
        return position >= self.start_position and bool(self.mask[state])


def futility_mask(chain: DTMC, spec: UntilSpec) -> FutilityMask:
    """Compute the futility mask of *spec* on *chain*.

    For a standard until the futile states are ``prob0(lhs, rhs)``; for the
    exempt shape they are ``prob0(lhs, lhs ∧ rhs)`` (valid from position 1
    of the post-``X^n`` suffix, where the lhs constraint is active).
    """
    if spec.lhs_exempt:
        mask = prob0_states(chain.transitions, spec.lhs_mask, spec.lhs_mask & spec.rhs_mask)
        start = spec.n_next + 1
    else:
        mask = prob0_states(chain.transitions, spec.lhs_mask, spec.rhs_mask)
        start = spec.n_next
    return FutilityMask(mask, start)


def futility_for_formula(chain: DTMC, formula: Formula) -> FutilityMask | None:
    """Best-effort futility mask; ``None`` when the formula has no
    until-spec decomposition (the step cap then bounds the trace).

    Bounded formulas return ``None`` too — their horizon already guarantees
    termination, and the graph-based mask would ignore the bound (it is
    still sound, but rarely worth the precomputation).
    """
    try:
        spec = formula.until_spec(chain)
    except PropertyError:
        return None
    if spec.bound is not None:
        return None
    return futility_mask(chain, spec)
