"""Verdict rules of the lockstep monitor, including the repair-property shape.

Each case feeds a hand-written path to :func:`repro.smc.kernels.monitor_codes`
one position at a time, as the lockstep loop does, and checks every code
against the prefix semantics of the scalar oracle
(:class:`tests.smc.oracle.PrefixVerdict`).
"""

import numpy as np
import pytest

from repro.errors import PropertyError
from repro.properties import Atom, Eventually, Globally, Next, Not, Until, parse_property
from repro.smc import kernels

from tests.smc.oracle import PrefixVerdict

#: Verdict (``None``: undecided) of each kernel code.
VERDICTS = {kernels.CODE_UNDECIDED: None, kernels.CODE_TRUE: True, kernels.CODE_FALSE: False}


def run(formula, chain, states):
    """The verdict of *states*: the first decided code, where the engine
    stops the trace. Every code on the way equals the oracle's verdict
    on that prefix."""
    spec = formula.mask_spec(chain)
    oracle = PrefixVerdict(formula, chain)
    verdict = None
    for time, state in enumerate(states):
        verdict = VERDICTS[int(kernels.monitor_codes(spec, np.array([state]), time)[0])]
        assert verdict == oracle(list(states[: time + 1])), (formula, states[: time + 1])
        if verdict is not None:
            break
    return verdict


class TestUntilMonitor:
    def test_immediate_success(self, small_chain):
        assert run(Eventually(Atom("init")), small_chain, [0]) is True

    def test_success_later(self, small_chain):
        assert run(Eventually(Atom("goal")), small_chain, [0, 1, 2]) is True

    def test_lhs_violation_fails(self, small_chain):
        formula = Until(Not(Atom("fail")), Atom("goal"))
        assert run(formula, small_chain, [0, 3]) is False

    def test_bound_exhaustion(self, small_chain):
        formula = Eventually(Atom("goal"), bound=1)
        assert run(formula, small_chain, [0, 1, 2]) is False

    def test_bound_exactly_reached(self, small_chain):
        formula = Eventually(Atom("goal"), bound=2)
        assert run(formula, small_chain, [0, 1, 2]) is True

    def test_undecided_without_goal(self, small_chain):
        assert run(Eventually(Atom("goal")), small_chain, [0, 1, 0, 1]) is None


class TestNextUntilMonitor:
    """The (X !init) U goal shape of the repair property."""

    def formula(self):
        return Until(Next(Not(Atom("init"))), Atom("goal"))

    def test_position_zero_exempt(self, small_chain):
        # Path starts at init; exemption means no immediate failure.
        assert run(self.formula(), small_chain, [0, 1, 2]) is True

    def test_return_to_init_fails(self, small_chain):
        assert run(self.formula(), small_chain, [0, 1, 0]) is False

    def test_goal_at_position_zero(self, small_chain):
        assert run(self.formula(), small_chain, [2]) is True

    def test_rhs_needs_lhs_at_k(self, small_chain):
        # goal at position >= 1 must also satisfy the (shifted) lhs; "goal"
        # here never overlaps "init" so success is allowed.
        assert run(self.formula(), small_chain, [3, 1, 2]) is True

    def test_bound_zero(self, small_chain):
        formula = Until(Next(Not(Atom("init"))), Atom("goal"), bound=0)
        assert run(formula, small_chain, [0, 1, 2]) is False
        assert run(formula, small_chain, [2]) is True


class TestOtherMonitors:
    def test_next_shifts(self, small_chain):
        formula = Next(Atom("goal"))
        assert run(formula, small_chain, [0, 2]) is True
        assert run(formula, small_chain, [2, 0]) is False

    def test_globally_bounded(self, small_chain):
        formula = Globally(Not(Atom("fail")), 2)
        assert run(formula, small_chain, [0, 1, 0]) is True
        assert run(formula, small_chain, [0, 3, 0]) is False

    def test_not_wraps(self, small_chain):
        """A negated path formula has no mask spec; its fragment form
        ``G<=1 !"goal"`` decides the paths the negation did."""
        with pytest.raises(PropertyError, match="cannot be simulated"):
            Not(Eventually(Atom("goal"), 1)).mask_spec(small_chain)
        formula = Globally(Not(Atom("goal")), 1)
        assert run(formula, small_chain, [0, 1]) is True
        assert run(formula, small_chain, [0, 2]) is False

    def test_and_combines(self, small_chain):
        """The fragment's conjunction folds a state check into the until;
        a conjunction of two path formulas has no mask spec."""
        with pytest.raises(PropertyError, match="cannot be simulated"):
            parse_property('F<=3 "goal" & G<=3 !"fail"').mask_spec(small_chain)
        formula = parse_property('"init" & F<=3 "goal"')
        assert run(formula, small_chain, [0, 1, 2]) is True
        assert run(formula, small_chain, [1, 2]) is False  # the state check fails

    def test_or_short_circuits(self, small_chain):
        """``F<=2 "goal" | F<=2 "fail"`` has no mask spec; its fragment form
        ``F<=2 ("goal" | "fail")`` succeeds at the first state of either."""
        with pytest.raises(PropertyError, match="cannot be simulated"):
            parse_property('(F<=2 "goal") | (F<=2 "fail")').mask_spec(small_chain)
        formula = parse_property('F<=2 ("goal" | "fail")')
        assert run(formula, small_chain, [0, 3]) is True

    def test_monitor_verdict_is_stable(self, small_chain):
        """Once a prefix decides the formula, every extension keeps the
        verdict, so the engine may stop the trace there."""
        formula = Eventually(Atom("goal"), 2)
        assert run(formula, small_chain, [2, 3]) is True
        oracle = PrefixVerdict(formula, small_chain)
        assert oracle([2]) is oracle([2, 3]) is oracle([2, 3, 3]) is True

    def test_state_check_monitor(self, small_chain):
        assert run(Atom("init"), small_chain, [0]) is True
        assert run(Atom("init"), small_chain, [1]) is False

    def test_horizon_exposed(self, small_chain):
        formula = Eventually(Atom("goal"), 7)
        assert formula.horizon() == formula.mask_spec(small_chain).bound == 7
        assert Eventually(Atom("goal")).horizon() is None
