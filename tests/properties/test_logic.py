"""Unit tests for the property AST: masks, spec decomposition, horizons."""

import pytest

from repro.errors import PropertyError
from repro.properties import (
    And,
    Atom,
    Eventually,
    FalseFormula,
    Globally,
    Next,
    Not,
    Or,
    TrueFormula,
    Until,
)


class TestStateFormulas:
    def test_atom_mask(self, small_chain):
        assert list(Atom("goal").mask(small_chain)) == [False, False, True, False]

    def test_boolean_masks(self, small_chain):
        formula = Or(Atom("goal"), Atom("init"))
        assert formula.mask(small_chain).sum() == 2
        assert Not(Atom("goal")).mask(small_chain).sum() == 3
        assert And(Atom("goal"), Atom("init")).mask(small_chain).sum() == 0

    def test_constants(self, small_chain):
        assert TrueFormula().mask(small_chain).all()
        assert not FalseFormula().mask(small_chain).any()

    def test_operator_sugar(self, small_chain):
        formula = Atom("goal") | ~Atom("init")
        assert formula.mask(small_chain).sum() == 3

    def test_path_formula_has_no_mask(self, small_chain):
        with pytest.raises(PropertyError, match="not a state formula"):
            Eventually(Atom("goal")).mask(small_chain)


class TestUntilValidation:
    def test_rhs_must_be_state_formula(self):
        with pytest.raises(PropertyError, match="right operand"):
            Until(Atom("a"), Eventually(Atom("b")))

    def test_lhs_may_be_next_of_state(self):
        Until(Next(Not(Atom("init"))), Atom("goal"))  # does not raise

    def test_lhs_rejects_nested_path(self):
        with pytest.raises(PropertyError, match="left operand"):
            Until(Eventually(Atom("a")), Atom("b"))

    def test_negative_bound(self):
        with pytest.raises(PropertyError):
            Until(TrueFormula(), Atom("a"), bound=-1)

    def test_globally_requires_bound(self):
        with pytest.raises(PropertyError):
            Globally(Atom("a"), bound=None)  # type: ignore[arg-type]


class TestHorizon:
    def test_bounded_until(self):
        assert Until(TrueFormula(), Atom("a"), 10).horizon() == 10

    def test_unbounded(self):
        assert Eventually(Atom("a")).horizon() is None

    def test_next_adds_one(self):
        assert Next(Until(TrueFormula(), Atom("a"), 5)).horizon() == 6

    def test_boolean_takes_max(self):
        left = Until(TrueFormula(), Atom("a"), 3)
        right = Globally(Atom("b"), 7)
        assert And(left, right).horizon() == 7

    def test_state_formula_horizon_zero(self):
        assert Atom("a").horizon() == 0


class TestUntilSpec:
    def test_plain_until(self, small_chain):
        spec = Until(Not(Atom("goal")), Atom("goal"), 5).until_spec(small_chain)
        assert spec.bound == 5
        assert not spec.lhs_exempt
        assert spec.n_next == 0

    def test_eventually_lhs_is_true(self, small_chain):
        spec = Eventually(Atom("goal")).until_spec(small_chain)
        assert spec.lhs_mask.all()
        assert spec.bound is None

    def test_exempt_shape(self, small_chain):
        formula = Until(Next(Not(Atom("init"))), Atom("goal"))
        spec = formula.until_spec(small_chain)
        assert spec.lhs_exempt
        assert list(spec.lhs_mask) == [False, True, True, True]

    def test_initial_check_folded(self, small_chain):
        formula = And(Atom("init"), Until(Next(Not(Atom("init"))), Atom("goal")))
        spec = formula.until_spec(small_chain)
        assert spec.initial_check is not None
        assert spec.initial_check[0]
        assert not spec.initial_check[1]

    def test_next_wrapping(self, small_chain):
        spec = Next(Eventually(Atom("goal"))).until_spec(small_chain)
        assert spec.n_next == 1

    def test_double_next_rejected(self, small_chain):
        formula = Next(Next(Eventually(Atom("goal"))))
        with pytest.raises(PropertyError, match="at most one"):
            formula.until_spec(small_chain)

    def test_non_until_shape_rejected(self, small_chain):
        with pytest.raises(PropertyError):
            Or(Eventually(Atom("goal")), Eventually(Atom("init"))).until_spec(small_chain)

    def test_describe(self, small_chain):
        spec = And(Atom("init"), Until(Next(Not(Atom("init"))), Atom("goal"))).until_spec(
            small_chain
        )
        text = spec.describe()
        assert "init-check" in text and "(X lhs)" in text
