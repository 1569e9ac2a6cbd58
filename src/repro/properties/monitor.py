"""On-the-fly trace monitors and the lockstep mask rule.

A monitor consumes the states of a trace one at a time (starting with the
initial state) and returns a three-valued verdict after each state. The
simulators keep extending a trace "until φ is decided" (Algorithm 1, line 4),
i.e. until the verdict leaves :data:`Verdict.UNDECIDED`.

Scalar monitors are single-use: build one per trace via the factories
returned by :meth:`repro.properties.logic.Formula.compile`.

Formulas of the reach/avoid/bounded-until fragment also export their
verdict rule as a :class:`MaskSpec` (see
:meth:`repro.properties.logic.Formula.mask_spec`), which the lockstep
kernel backend evaluates on whole ensembles. Formulas outside that
fragment (general boolean combinations of path formulas) have none, and
the simulation engine falls back to the sequential backend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Verdict(enum.Enum):
    """Three-valued outcome of monitoring a finite trace prefix."""

    TRUE = "true"
    FALSE = "false"
    UNDECIDED = "undecided"

    @property
    def decided(self) -> bool:
        """True when the verdict is conclusive."""
        return self is not Verdict.UNDECIDED

    def negate(self) -> "Verdict":
        """The verdict of the negated property."""
        if self is Verdict.TRUE:
            return Verdict.FALSE
        if self is Verdict.FALSE:
            return Verdict.TRUE
        return Verdict.UNDECIDED


class Monitor:
    """Base monitor interface: feed states, read verdicts."""

    def update(self, state: int) -> Verdict:
        """Consume the next state of the trace and return the verdict."""
        raise NotImplementedError

    @property
    def horizon(self) -> int | None:
        """Number of *transitions* after which the verdict is guaranteed
        decided, or ``None`` when unbounded."""
        return None


class StateCheckMonitor(Monitor):
    """Decides a state formula on the first state of the trace."""

    def __init__(self, mask: np.ndarray):
        self._mask = mask
        self._verdict = Verdict.UNDECIDED

    def update(self, state: int) -> Verdict:
        if self._verdict is Verdict.UNDECIDED:
            self._verdict = Verdict.TRUE if self._mask[state] else Verdict.FALSE
        return self._verdict

    @property
    def horizon(self) -> int | None:
        return 0


class UntilMonitor(Monitor):
    """Monitors ``lhs U[<=bound] rhs`` for state-formula operands.

    Succeeds at the first state satisfying *rhs*; fails at the first state
    violating *lhs* before that, or when the step bound is exhausted.
    """

    def __init__(self, lhs_mask: np.ndarray, rhs_mask: np.ndarray, bound: int | None):
        self._lhs = lhs_mask
        self._rhs = rhs_mask
        self._bound = bound
        self._time = -1
        self._verdict = Verdict.UNDECIDED

    def update(self, state: int) -> Verdict:
        if self._verdict.decided:
            return self._verdict
        self._time += 1
        if self._rhs[state]:
            self._verdict = Verdict.TRUE
        elif not self._lhs[state]:
            self._verdict = Verdict.FALSE
        elif self._bound is not None and self._time >= self._bound:
            self._verdict = Verdict.FALSE
        return self._verdict

    @property
    def horizon(self) -> int | None:
        return self._bound


class NextUntilMonitor(Monitor):
    """Monitors ``(X lhs) U[<=bound] rhs`` for state-formula operands.

    This is the shape of the paper's repair property
    ``"init" & (X !"init" U "failure")`` once the PRISM precedence
    (unary X above binary U) is applied. Semantics: there is a position
    ``k`` with ``ω_k |= rhs``, and every position ``1..k`` satisfies *lhs*
    (position 0 is exempt, which is what lets the path start in ``init``).
    """

    def __init__(self, lhs_mask: np.ndarray, rhs_mask: np.ndarray, bound: int | None):
        self._lhs = lhs_mask
        self._rhs = rhs_mask
        self._bound = bound
        self._time = -1
        self._verdict = Verdict.UNDECIDED

    def update(self, state: int) -> Verdict:
        if self._verdict.decided:
            return self._verdict
        self._time += 1
        if self._time == 0:
            if self._rhs[state]:
                self._verdict = Verdict.TRUE
            elif self._bound is not None and self._bound <= 0:
                self._verdict = Verdict.FALSE
            return self._verdict
        if self._lhs[state]:
            if self._rhs[state]:
                self._verdict = Verdict.TRUE
        else:
            self._verdict = Verdict.FALSE
        bounded_out = self._bound is not None and self._time >= self._bound
        if self._verdict is Verdict.UNDECIDED and bounded_out:
            self._verdict = Verdict.FALSE
        return self._verdict

    @property
    def horizon(self) -> int | None:
        return self._bound


class NextMonitor(Monitor):
    """Monitors ``X φ`` by delegating to φ's monitor shifted by one state."""

    def __init__(self, inner: Monitor):
        self._inner = inner
        self._started = False
        self._verdict = Verdict.UNDECIDED

    def update(self, state: int) -> Verdict:
        if self._verdict.decided:
            return self._verdict
        if not self._started:
            self._started = True
            return self._verdict
        self._verdict = self._inner.update(state)
        return self._verdict

    @property
    def horizon(self) -> int | None:
        inner = self._inner.horizon
        return None if inner is None else inner + 1


class NotMonitor(Monitor):
    """Monitors ``!φ`` by negating the inner verdict."""

    def __init__(self, inner: Monitor):
        self._inner = inner

    def update(self, state: int) -> Verdict:
        return self._inner.update(state).negate()

    @property
    def horizon(self) -> int | None:
        return self._inner.horizon


class AndMonitor(Monitor):
    """Monitors ``φ & ψ``: false wins early, true needs both."""

    def __init__(self, left: Monitor, right: Monitor):
        self._left = left
        self._right = right
        self._lv = Verdict.UNDECIDED
        self._rv = Verdict.UNDECIDED

    def update(self, state: int) -> Verdict:
        if not self._lv.decided:
            self._lv = self._left.update(state)
        if not self._rv.decided:
            self._rv = self._right.update(state)
        if self._lv is Verdict.FALSE or self._rv is Verdict.FALSE:
            return Verdict.FALSE
        if self._lv is Verdict.TRUE and self._rv is Verdict.TRUE:
            return Verdict.TRUE
        return Verdict.UNDECIDED

    @property
    def horizon(self) -> int | None:
        left, right = self._left.horizon, self._right.horizon
        if left is None or right is None:
            return None
        return max(left, right)


class OrMonitor(Monitor):
    """Monitors ``φ | ψ``: true wins early, false needs both."""

    def __init__(self, left: Monitor, right: Monitor):
        self._left = left
        self._right = right
        self._lv = Verdict.UNDECIDED
        self._rv = Verdict.UNDECIDED

    def update(self, state: int) -> Verdict:
        if not self._lv.decided:
            self._lv = self._left.update(state)
        if not self._rv.decided:
            self._rv = self._right.update(state)
        if self._lv is Verdict.TRUE or self._rv is Verdict.TRUE:
            return Verdict.TRUE
        if self._lv is Verdict.FALSE and self._rv is Verdict.FALSE:
            return Verdict.FALSE
        return Verdict.UNDECIDED

    @property
    def horizon(self) -> int | None:
        left, right = self._left.horizon, self._right.horizon
        if left is None or right is None:
            return None
        return max(left, right)


class GloballyMonitor(Monitor):
    """Monitors bounded ``G<=bound φ`` for a state formula φ.

    Fails at the first violating state within the bound; succeeds once
    ``bound`` transitions have elapsed without violation.
    """

    def __init__(self, mask: np.ndarray, bound: int):
        if bound < 0:
            raise ValueError("G bound must be non-negative")
        self._mask = mask
        self._bound = bound
        self._time = -1
        self._verdict = Verdict.UNDECIDED

    def update(self, state: int) -> Verdict:
        if self._verdict.decided:
            return self._verdict
        self._time += 1
        if not self._mask[state]:
            self._verdict = Verdict.FALSE
        elif self._time >= self._bound:
            self._verdict = Verdict.TRUE
        return self._verdict

    @property
    def horizon(self) -> int | None:
        return self._bound


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
    :func:`repro.smc.kernels.monitor_codes` evaluates it with the branch
    structure of the scalar monitors above. ``bound`` is ``None`` when
    unbounded; ``lhs`` and ``initial_check`` are ``None`` when the rule
    has no such mask.
    """

    kind: str  # "state" | "until" | "globally"
    rhs: np.ndarray
    lhs: "np.ndarray | None" = None
    initial_check: "np.ndarray | None" = None
    bound: "int | None" = None
    n_next: int = 0
    lhs_exempt: bool = False
