"""The lockstep verdict rule of a property, as data.

The simulation engine extends every trace "until φ is decided"
(Algorithm 1, line 4). It decides all traces of an ensemble at once, so
the property's verdict rule is data, not code: a :class:`MaskSpec` of
state masks, a step bound and a shape, exported by
:meth:`repro.properties.logic.Formula.mask_spec` and evaluated by
:func:`repro.smc.kernels.monitor_codes`. Formulas outside the fragment a
mask spec covers are rejected when the simulation plan is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaskSpec:
    """A formula's lockstep verdict rule as data, for the kernel backend.

    Built by :meth:`repro.properties.logic.Formula.mask_spec` for the
    mask-compilable fragment: a state formula (``kind="state"``), an
    :class:`~repro.properties.logic.UntilSpec` ``init_check & X^n (lhs
    U[<=bound] rhs)`` (``kind="until"``) or a bounded ``G<=bound φ``
    (``kind="globally"``). Every trace of a lockstep ensemble sits at the
    same position, so a trace's verdict is a function of its current
    state and that shared position alone;
    :func:`repro.smc.kernels.monitor_codes` evaluates it. ``bound`` is
    ``None`` when unbounded; ``lhs`` and ``initial_check`` are ``None``
    when the rule has no such mask.
    """

    kind: str  # "state" | "until" | "globally"
    rhs: np.ndarray
    lhs: "np.ndarray | None" = None
    initial_check: "np.ndarray | None" = None
    bound: "int | None" = None
    n_next: int = 0
    lhs_exempt: bool = False
