"""Unit tests for state-space construction from parsed models."""

import pytest

from repro.errors import ModelError
from repro.lang import build_ctmc, parse_model, resolve_constants
from repro.lang.builder import StateSpaceBuilder

BIRTH_DEATH = """
ctmc
const int n = 3;
const double lam = 2.0;
const double mu = 1.0;
module bd
  k : [0..n] init 0;
  [] k < n -> lam : (k'=k+1);
  [] k > 0 -> mu : (k'=k-1);
endmodule
label "full" = k = n;
"""


class TestConstants:
    def test_resolution_order(self):
        model = parse_model("ctmc const double a = 0.1; const double b = a*a;" + BIRTH_DEATH[5:])
        env = resolve_constants(model)
        assert env["b"] == pytest.approx(0.01)

    def test_override(self):
        model = parse_model(BIRTH_DEATH)
        env = resolve_constants(model, {"lam": 5.0})
        assert env["lam"] == 5.0

    def test_undefined_requires_override(self):
        model = parse_model("ctmc const double a;" + BIRTH_DEATH[5:])
        with pytest.raises(ModelError, match="overrides"):
            resolve_constants(model)

    def test_unknown_override_rejected(self):
        model = parse_model(BIRTH_DEATH)
        with pytest.raises(ModelError, match="undeclared"):
            resolve_constants(model, {"zzz": 1.0})

    def test_int_override_coerced(self):
        model = parse_model(BIRTH_DEATH)
        builder = StateSpaceBuilder(model, {"n": 5.0})
        assert builder.constants["n"] == 5


class TestExploration:
    def test_birth_death_states(self):
        ctmc = build_ctmc(BIRTH_DEATH)
        assert ctmc.n_states == 4

    def test_rates(self):
        ctmc = build_ctmc(BIRTH_DEATH)
        # state 0 = (k=0): only birth at rate lam
        assert ctmc.exit_rates()[0] == pytest.approx(2.0)
        emb = ctmc.embedded_dtmc()
        # interior states: birth prob lam/(lam+mu) = 2/3
        k1 = [i for i, name in enumerate(ctmc.state_names) if name == "(k=1)"][0]
        successors = dict(zip(*emb.row_entries(k1)))
        assert pytest.approx(2 / 3) == max(successors.values())

    def test_labels_evaluated(self):
        ctmc = build_ctmc(BIRTH_DEATH)
        assert ctmc.label_mask("full").sum() == 1
        assert ctmc.label_mask("init").sum() == 1

    def test_init_is_state_zero(self):
        ctmc = build_ctmc(BIRTH_DEATH)
        assert ctmc.label_mask("init")[0]

    def test_out_of_range_update_rejected(self):
        source = """
        ctmc
        module m
          x : [0..2] init 0;
          [] true -> 1.0 : (x'=x+1);
        endmodule
        """
        with pytest.raises(ModelError, match="outside"):
            build_ctmc(source)

    def test_negative_rate_rejected(self):
        source = """
        ctmc
        module m
          x : [0..2] init 1;
          [] x < 2 -> (0-1.0) : (x'=x+1);
          [] x > 0 -> 1.0 : (x'=x-1);
        endmodule
        """
        with pytest.raises(ModelError, match="negative weight"):
            build_ctmc(source)

    def test_duplicate_variables_rejected(self):
        source = """
        ctmc
        module a  x : [0..1] init 0; [] x < 1 -> 1.0 : (x'=1); endmodule
        module b  x : [0..1] init 0; [] x < 1 -> 1.0 : (x'=1); endmodule
        """
        with pytest.raises(ModelError, match="duplicate"):
            build_ctmc(source)

    def test_guards_see_other_modules(self):
        source = """
        ctmc
        module a
          x : [0..1] init 0;
          [] x < 1 -> 1.0 : (x'=1);
        endmodule
        module b
          y : [0..1] init 0;
          [] x = 1 & y < 1 -> 2.0 : (y'=1);
        endmodule
        """
        ctmc = build_ctmc(source)
        assert ctmc.n_states == 3  # (0,0) -> (1,0) -> (1,1)


class TestDtmcSemantics:
    def test_probabilities(self):
        source = """
        dtmc
        module coin
          x : [0..2] init 0;
          [] x = 0 -> 0.5 : (x'=1) + 0.5 : (x'=2);
          [] x > 0 -> 1.0 : (x'=x);
        endmodule
        """
        dtmc = StateSpaceBuilder(parse_model(source)).explore().to_dtmc()
        assert dtmc.probability(0, 1) == pytest.approx(0.5)
        assert dtmc.is_absorbing(1)

    def test_uniform_choice_between_commands(self):
        source = """
        dtmc
        module m
          x : [0..2] init 0;
          [] x = 0 -> 1.0 : (x'=1);
          [] x = 0 -> 1.0 : (x'=2);
          [] x > 0 -> 1.0 : (x'=x);
        endmodule
        """
        dtmc = StateSpaceBuilder(parse_model(source)).explore().to_dtmc()
        assert dtmc.probability(0, 1) == pytest.approx(0.5)
        assert dtmc.probability(0, 2) == pytest.approx(0.5)

    def test_deadlock_fixed_with_self_loop(self):
        source = """
        dtmc
        module m
          x : [0..1] init 0;
          [] x = 0 -> 1.0 : (x'=1);
        endmodule
        """
        dtmc = StateSpaceBuilder(parse_model(source)).explore().to_dtmc()
        assert dtmc.is_absorbing(1)
        assert dtmc.label_mask("deadlock")[1]

    def test_model_type_mismatch(self):
        with pytest.raises(ModelError, match="not a dtmc"):
            StateSpaceBuilder(parse_model(BIRTH_DEATH)).explore().to_dtmc()


class TestPaperModel:
    def test_group_repair_state_count(self):
        from repro.models.repair_group import PRISM_SOURCE

        ctmc = build_ctmc(PRISM_SOURCE, {"alpha": 0.1})
        assert ctmc.n_states == 125  # as stated in Section VI-B

    def test_group_repair_failure_label(self):
        from repro.models.repair_group import PRISM_SOURCE

        ctmc = build_ctmc(PRISM_SOURCE, {"alpha": 0.1})
        assert ctmc.label_mask("failure").sum() == 1

    def test_alpha2_tracks_override(self):
        from repro.models.repair_group import PRISM_SOURCE

        model = parse_model(PRISM_SOURCE)
        env = resolve_constants(model, {"alpha": 0.2})
        assert env["alpha2"] == pytest.approx(0.04)
