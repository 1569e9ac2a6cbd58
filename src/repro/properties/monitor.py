"""On-the-fly trace monitors — scalar and vectorized.

A monitor consumes the states of a trace one at a time (starting with the
initial state) and returns a three-valued verdict after each state. The
simulators keep extending a trace "until φ is decided" (Algorithm 1, line 4),
i.e. until the verdict leaves :data:`Verdict.UNDECIDED`.

Scalar monitors are single-use: build one per trace via the factories
returned by :meth:`repro.properties.logic.Formula.compile`.

The module also provides *vectorized* monitors for the mask-compilable
reach/avoid/bounded-until fragment. A :class:`VectorMonitor` evaluates a
whole ensemble of traces advancing in lockstep: since every trace in the
ensemble is at the same position, the per-trace monitor state collapses to
a shared integer time, and one :meth:`VectorMonitor.update` call returns the
verdict codes of the entire batch from boolean mask gathers. Formulas that
do not compile to masks (general boolean combinations of path formulas)
simply have no vector monitor and the simulation engine falls back to the
sequential backend — see :meth:`repro.properties.logic.Formula.vector_monitor`.
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


# ----------------------------------------------------------------------
# Vectorized (lockstep-batch) monitors
# ----------------------------------------------------------------------

#: Integer verdict codes used by the vectorized evaluation path.
VECTOR_UNDECIDED = np.int8(0)
VECTOR_TRUE = np.int8(1)
VECTOR_FALSE = np.int8(2)


@dataclass(frozen=True)
class MaskSpec:
    """Declarative description of a vector monitor's update rule.

    The data a mask-based monitor's :meth:`VectorMonitor.update` consumes
    — its kind plus the label masks and bounds — exported so compiled
    backends (:class:`~repro.smc.engine.KernelBackend`) can evaluate the
    same branch structure inside a kernel without calling back into
    Python. ``bound`` is ``None`` when unbounded; ``lhs`` and
    ``initial_check`` are ``None`` when the monitor has no such mask.
    """

    kind: str  # "state" | "until" | "globally"
    rhs: np.ndarray
    lhs: "np.ndarray | None" = None
    initial_check: "np.ndarray | None" = None
    bound: "int | None" = None
    n_next: int = 0
    lhs_exempt: bool = False


class VectorMonitor:
    """Batch monitor for an ensemble of traces advancing in lockstep.

    Unlike scalar monitors, a vector monitor is stateless with respect to
    individual traces: all traces share the same position, passed in as
    *time*, and the verdict of a trace is a function of its current state
    and that shared time alone. One instance therefore serves any number
    of batches and ensembles concurrently.
    """

    def update(self, states: np.ndarray, time: int) -> np.ndarray:
        """Verdict codes for the traces currently at *states*.

        *states* holds the position-*time* state of every still-undecided
        trace; the result is an ``int8`` array of
        :data:`VECTOR_UNDECIDED` / :data:`VECTOR_TRUE` / :data:`VECTOR_FALSE`
        codes aligned with *states*.
        """
        raise NotImplementedError

    @property
    def horizon(self) -> int | None:
        """Transitions after which every verdict is decided (``None``: unbounded)."""
        return None

    def mask_spec(self) -> "MaskSpec | None":
        """The monitor's update rule as data, for compiled backends.

        ``None`` on monitors that cannot express their rule as a
        :class:`MaskSpec`; the engine then falls back to the sequential
        backend.
        """
        return None


class VectorStateCheckMonitor(VectorMonitor):
    """Vectorized :class:`StateCheckMonitor`: decided at position 0."""

    def __init__(self, mask: np.ndarray):
        self._mask = mask

    def update(self, states: np.ndarray, time: int) -> np.ndarray:
        return np.where(self._mask[states], VECTOR_TRUE, VECTOR_FALSE)

    @property
    def horizon(self) -> int | None:
        return 0

    def mask_spec(self) -> "MaskSpec | None":
        return MaskSpec(kind="state", rhs=self._mask)


class VectorUntilMonitor(VectorMonitor):
    """Vectorized ``init_check & X^n (lhs U[<=bound] rhs)``.

    Covers the whole :class:`~repro.properties.logic.UntilSpec` fragment in
    one class: the optional initial state check, up to one leading ``X``,
    the plain until of :class:`UntilMonitor` and the lhs-exempt shape of
    :class:`NextUntilMonitor` (the repair property). The branch structure
    mirrors the scalar monitors exactly so both backends agree verdict for
    verdict.
    """

    def __init__(
        self,
        lhs_mask: np.ndarray,
        rhs_mask: np.ndarray,
        bound: int | None,
        n_next: int = 0,
        initial_check: np.ndarray | None = None,
        lhs_exempt: bool = False,
    ):
        if n_next not in (0, 1):
            raise ValueError("n_next must be 0 or 1")
        self._lhs = lhs_mask
        self._rhs = rhs_mask
        self._bound = bound
        self._n_next = n_next
        self._initial_check = initial_check
        self._lhs_exempt = lhs_exempt

    def update(self, states: np.ndarray, time: int) -> np.ndarray:
        out = np.zeros(states.shape[0], dtype=np.int8)
        t = time - self._n_next  # position within the until part
        if t >= 0:
            if self._lhs_exempt and t == 0:
                # NextUntilMonitor position 0: rhs decides, lhs is exempt.
                out[self._rhs[states]] = VECTOR_TRUE
                if self._bound is not None and self._bound <= 0:
                    out[out == VECTOR_UNDECIDED] = VECTOR_FALSE
            elif self._lhs_exempt:
                lhs = self._lhs[states]
                out[lhs & self._rhs[states]] = VECTOR_TRUE
                out[~lhs] = VECTOR_FALSE
                if self._bound is not None and t >= self._bound:
                    out[out == VECTOR_UNDECIDED] = VECTOR_FALSE
            else:
                rhs = self._rhs[states]
                out[rhs] = VECTOR_TRUE
                out[~self._lhs[states] & ~rhs] = VECTOR_FALSE
                if self._bound is not None and t >= self._bound:
                    out[out == VECTOR_UNDECIDED] = VECTOR_FALSE
        if time == 0 and self._initial_check is not None:
            # A failed state check at position 0 loses to nothing (And
            # semantics: FALSE wins early).
            out[~self._initial_check[states]] = VECTOR_FALSE
        return out

    @property
    def horizon(self) -> int | None:
        if self._bound is None:
            return None
        return self._bound + self._n_next

    def mask_spec(self) -> "MaskSpec | None":
        return MaskSpec(
            kind="until",
            rhs=self._rhs,
            lhs=self._lhs,
            initial_check=self._initial_check,
            bound=self._bound,
            n_next=self._n_next,
            lhs_exempt=self._lhs_exempt,
        )


class VectorGloballyMonitor(VectorMonitor):
    """Vectorized bounded ``G<=bound φ`` for a state formula φ."""

    def __init__(self, mask: np.ndarray, bound: int):
        if bound < 0:
            raise ValueError("G bound must be non-negative")
        self._mask = mask
        self._bound = bound

    def update(self, states: np.ndarray, time: int) -> np.ndarray:
        out = np.zeros(states.shape[0], dtype=np.int8)
        out[~self._mask[states]] = VECTOR_FALSE
        if time >= self._bound:
            out[out == VECTOR_UNDECIDED] = VECTOR_TRUE
        return out

    @property
    def horizon(self) -> int | None:
        return self._bound

    def mask_spec(self) -> "MaskSpec | None":
        return MaskSpec(kind="globally", rhs=self._mask, bound=self._bound)


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
