"""Temporal-property abstract syntax and compilation to masks.

The grammar covers the fragment used by the paper's evaluation:

* *state formulas* — atomic propositions (state labels), ``true``/``false``
  and boolean combinations; they compile to boolean masks over a model's
  state space;
* *path formulas* — step-bounded and unbounded ``Until``, ``Eventually``
  (= ``true U φ``), ``Next`` and bounded ``Globally``; when they fit the
  ``[state &] X? (lhs U[<=k] rhs)`` shape they compile to a declarative
  :class:`UntilSpec` that the numerical engines consume.

The simulation engine decides a formula from its
:class:`~repro.properties.monitor.MaskSpec` (:meth:`Formula.mask_spec`):
a state formula, the until shape above, or a bounded ``G``. The parser
also builds boolean combinations of path formulas; they have no mask
spec, and simulating one raises :class:`~repro.errors.PropertyError`.

Example — the repair-model property ``P=?["init" & (X !"init" U "failure")]``::

    prop = And(Atom("init"), Until(Next(Not(Atom("init"))), Atom("failure")))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PropertyError
from repro.properties.monitor import MaskSpec

#: Models accepted by compilation: anything exposing ``n_states`` and
#: ``label_mask(name)`` (DTMC, CTMC and IMC all do).
ModelLike = object


@dataclass(frozen=True)
class UntilSpec:
    """Declarative form of a reachability-style property.

    Represents ``init_check & X^n (lhs U[<=bound] rhs)`` with *lhs*/*rhs*
    state masks. ``n_next ∈ {0, 1}``; ``bound is None`` means unbounded.

    When ``lhs_exempt`` is true the until part has the ``(X lhs) U rhs``
    shape of the repair property: position 0 of the (post-``X^n``) suffix is
    exempt from the *lhs* constraint, i.e. success means either *rhs* at
    position 0, or some position ``k >= 1`` satisfying ``lhs & rhs`` with all
    of ``1..k-1`` satisfying *lhs*. The numerical engines
    (:mod:`repro.analysis`) operate on this form.
    """

    initial_check: np.ndarray | None
    n_next: int
    lhs_mask: np.ndarray
    rhs_mask: np.ndarray
    bound: int | None
    lhs_exempt: bool = False

    def describe(self) -> str:
        """Human-readable rendering of the specification."""
        prefix = "" if self.initial_check is None else "init-check & "
        nxt = "X " * self.n_next
        bound = "" if self.bound is None else f"<={self.bound}"
        lhs = "(X lhs)" if self.lhs_exempt else "lhs"
        return f"{prefix}{nxt}({lhs} U{bound} rhs)"


class Formula:
    """Base class of all formulas."""

    #: True for formulas whose truth depends only on the first state.
    is_state_formula: bool = False

    def mask(self, model: ModelLike) -> np.ndarray:
        """Boolean mask of satisfying states (state formulas only)."""
        raise PropertyError(f"{type(self).__name__} is not a state formula")

    def until_spec(self, model: ModelLike) -> UntilSpec:
        """Decompose into an :class:`UntilSpec` or raise ``PropertyError``."""
        raise PropertyError(
            f"{self!r} does not have the [state & ] X? (lhs U rhs) shape "
            "required by the numerical engines"
        )

    def mask_spec(self, model: ModelLike) -> MaskSpec:
        """This formula's lockstep verdict rule.

        Formulas of the reach/avoid/bounded-until fragment (state
        formulas, anything with an :class:`UntilSpec` decomposition, and
        bounded ``G``) export a :class:`~repro.properties.monitor.MaskSpec`
        that the lockstep kernel backend evaluates on whole ensembles.

        Raises
        ------
        PropertyError
            When the formula is outside that fragment, e.g. a boolean
            combination of two path formulas.
        """
        if self.is_state_formula:
            return MaskSpec(kind="state", rhs=self.mask(model))
        try:
            spec = self.until_spec(model)
        except PropertyError as err:
            raise PropertyError(
                f"{self!r} cannot be simulated: the engine decides a state "
                "formula, [state &] X? (lhs U[<=k] rhs) or a bounded G"
            ) from err
        return MaskSpec(
            kind="until",
            rhs=spec.rhs_mask,
            lhs=spec.lhs_mask,
            initial_check=spec.initial_check,
            bound=spec.bound,
            n_next=spec.n_next,
            lhs_exempt=spec.lhs_exempt,
        )

    def horizon(self) -> int | None:
        """Transitions after which any trace is decided (``None``: unbounded)."""
        return None

    # Operator sugar -----------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


# ----------------------------------------------------------------------
# State formulas
# ----------------------------------------------------------------------
class StateFormula(Formula):
    """A formula decided by the current state alone."""

    is_state_formula = True

    def until_spec(self, model: ModelLike) -> UntilSpec:
        # A state formula as a path formula: must hold immediately, i.e.
        # the degenerate until "φ U<=0 φ".
        mask = self.mask(model)
        return UntilSpec(None, 0, mask, mask, 0)

    def horizon(self) -> int | None:
        return 0


@dataclass(frozen=True)
class Atom(StateFormula):
    """An atomic proposition: the states carrying label *name*."""

    name: str

    def mask(self, model: ModelLike) -> np.ndarray:
        return model.label_mask(self.name)

    def __repr__(self) -> str:
        return f'"{self.name}"'


@dataclass(frozen=True)
class TrueFormula(StateFormula):
    """The constant ``true``."""

    def mask(self, model: ModelLike) -> np.ndarray:
        return np.ones(model.n_states, dtype=bool)

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(StateFormula):
    """The constant ``false``."""

    def mask(self, model: ModelLike) -> np.ndarray:
        return np.zeros(model.n_states, dtype=bool)

    def __repr__(self) -> str:
        return "false"


# ----------------------------------------------------------------------
# Boolean combinators (work on state and path formulas alike)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Not(Formula):
    """Negation ``!φ``."""

    inner: Formula

    @property
    def is_state_formula(self) -> bool:  # type: ignore[override]
        return self.inner.is_state_formula

    def mask(self, model: ModelLike) -> np.ndarray:
        return ~self.inner.mask(model)

    def horizon(self) -> int | None:
        return self.inner.horizon()

    def __repr__(self) -> str:
        return f"!{self.inner!r}"


@dataclass(frozen=True)
class And(Formula):
    """Conjunction ``φ & ψ``."""

    left: Formula
    right: Formula

    @property
    def is_state_formula(self) -> bool:  # type: ignore[override]
        return self.left.is_state_formula and self.right.is_state_formula

    def mask(self, model: ModelLike) -> np.ndarray:
        return self.left.mask(model) & self.right.mask(model)

    def until_spec(self, model: ModelLike) -> UntilSpec:
        # "init" & (path formula): fold the state check into the spec.
        state, path = None, None
        if self.left.is_state_formula and not self.right.is_state_formula:
            state, path = self.left, self.right
        elif self.right.is_state_formula and not self.left.is_state_formula:
            state, path = self.right, self.left
        if state is None or path is None:
            return super().until_spec(model)
        inner = path.until_spec(model)
        if inner.initial_check is not None:
            check = inner.initial_check & state.mask(model)
        else:
            check = state.mask(model)
        return UntilSpec(
            check, inner.n_next, inner.lhs_mask, inner.rhs_mask, inner.bound, inner.lhs_exempt
        )

    def horizon(self) -> int | None:
        left, right = self.left.horizon(), self.right.horizon()
        if left is None or right is None:
            return None
        return max(left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction ``φ | ψ``."""

    left: Formula
    right: Formula

    @property
    def is_state_formula(self) -> bool:  # type: ignore[override]
        return self.left.is_state_formula and self.right.is_state_formula

    def mask(self, model: ModelLike) -> np.ndarray:
        return self.left.mask(model) | self.right.mask(model)

    def horizon(self) -> int | None:
        left, right = self.left.horizon(), self.right.horizon()
        if left is None or right is None:
            return None
        return max(left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


# ----------------------------------------------------------------------
# Temporal operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Next(Formula):
    """``X φ`` — φ holds on the suffix starting one step later."""

    inner: Formula

    def until_spec(self, model: ModelLike) -> UntilSpec:
        inner = self.inner.until_spec(model)
        if inner.n_next >= 1:
            raise PropertyError("at most one leading X is supported by the engines")
        if inner.initial_check is not None:
            raise PropertyError("state checks under X are not supported by the engines")
        return UntilSpec(
            None, inner.n_next + 1, inner.lhs_mask, inner.rhs_mask, inner.bound, inner.lhs_exempt
        )

    def horizon(self) -> int | None:
        inner = self.inner.horizon()
        return None if inner is None else inner + 1

    def __repr__(self) -> str:
        return f"X {self.inner!r}"


@dataclass(frozen=True)
class Until(Formula):
    """``lhs U[<=bound] rhs``.

    *lhs* may be a state formula or ``Next(state formula)`` — the latter is
    the PRISM-precedence reading of ``X !"init" U "failure"`` used by the
    repair benchmarks. *rhs* must be a state formula.
    """

    lhs: Formula
    rhs: Formula
    bound: int | None = None

    def __post_init__(self) -> None:
        if self.bound is not None and self.bound < 0:
            raise PropertyError("until bound must be non-negative")
        if not self.rhs.is_state_formula:
            raise PropertyError("the right operand of U must be a state formula")
        lhs_ok = self.lhs.is_state_formula or (
            isinstance(self.lhs, Next) and self.lhs.inner.is_state_formula
        )
        if not lhs_ok:
            raise PropertyError(
                "the left operand of U must be a state formula, optionally "
                "under a single X"
            )

    def until_spec(self, model: ModelLike) -> UntilSpec:
        shifted = isinstance(self.lhs, Next)
        lhs_mask = (self.lhs.inner if shifted else self.lhs).mask(model)
        return UntilSpec(None, 0, lhs_mask, self.rhs.mask(model), self.bound, lhs_exempt=shifted)

    def horizon(self) -> int | None:
        return self.bound

    def __repr__(self) -> str:
        bound = "" if self.bound is None else f"<={self.bound}"
        return f"({self.lhs!r} U{bound} {self.rhs!r})"


def Eventually(inner: Formula, bound: int | None = None) -> Until:
    """``F[<=bound] φ`` as sugar for ``true U[<=bound] φ``."""
    return Until(TrueFormula(), inner, bound)


@dataclass(frozen=True)
class Globally(Formula):
    """``G<=bound φ`` for a state formula φ. Only the bounded form is
    supported — an unbounded G cannot be decided on finite trace prefixes."""

    inner: Formula
    bound: int

    def __post_init__(self) -> None:
        if not self.inner.is_state_formula:
            raise PropertyError("G expects a state formula")
        if self.bound is None or self.bound < 0:
            raise PropertyError("G requires a non-negative step bound")

    def mask_spec(self, model: ModelLike) -> MaskSpec:
        return MaskSpec(kind="globally", rhs=self.inner.mask(model), bound=self.bound)

    def horizon(self) -> int | None:
        return self.bound

    def __repr__(self) -> str:
        return f"G<={self.bound} {self.inner!r}"
