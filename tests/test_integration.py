"""Cross-module integration tests.

These exercise the full pipelines the benchmarks rely on, at reduced scale:
model language → chains → numerical engine → SMC/IS → IMCIS, and the
statistical consistency between all the estimators on shared problems.
"""

import numpy as np
import pytest

from repro.analysis import probability
from repro.core import IMC
from repro.imcis import IMCISConfig, RandomSearchConfig, imcis_estimate
from repro.importance import zero_variance_proposal
from repro.lang import build_ctmc
from repro.properties import parse_property
from repro.smc import monte_carlo_estimate

from tests.conftest import fused_is_estimate

BIRTH_DEATH = """
ctmc
const int n = 6;
const double lam;
const double mu = 1.0;
module bd
  k : [0..n] init 0;
  [] k < n -> lam : (k'=k+1);
  [] k > 0 -> mu : (k'=k-1);
endmodule
label "full" = k = n;
"""

PROPERTY = 'P=? [ "init" & (X !"init" U "full") ]'


class TestLanguageToEstimators:
    """A birth-death chain written in the modelling language, verified by
    four independent methods that must agree."""

    @pytest.fixture(scope="class")
    def chain(self):
        return build_ctmc(BIRTH_DEATH, {"lam": 0.4}).embedded_dtmc()

    @pytest.fixture(scope="class")
    def formula(self):
        return parse_property(PROPERTY)

    @pytest.fixture(scope="class")
    def exact(self, chain, formula):
        return probability(chain, formula)

    def test_closed_form_agreement(self, exact):
        """Embedded birth-death: overflow-before-return has the classic
        gambler's-ruin form."""
        p = 0.4 / 1.4  # up-step probability of the embedded chain
        q = 1 - p
        # From state 1, probability of hitting n=6 before 0 is
        # (1-(q/p))/(1-(q/p)^6); the first step from 0 is always up.
        ratio = q / p
        expected = (1 - ratio) / (1 - ratio**6)
        assert exact == pytest.approx(expected, rel=1e-9)

    def test_monte_carlo_agreement(self, chain, formula, exact, rng):
        mc = monte_carlo_estimate(chain, formula, 4000, rng)
        assert mc.estimate == pytest.approx(exact, abs=4.5 * mc.std_error + 1e-4)

    def test_importance_sampling_agreement(self, chain, formula, exact, rng):
        proposal = zero_variance_proposal(chain, formula)
        result = fused_is_estimate(chain, proposal, formula, 500, rng)
        assert result.estimate == pytest.approx(exact, rel=1e-9)
        assert result.std_dev <= 1e-6 * result.estimate

    def test_imcis_brackets_neighbours(self, chain, formula, exact, rng):
        """An IMC around the chain must produce an interval containing the
        exact values of nearby member chains."""
        imc = IMC.from_center(chain, 0.01)
        proposal = zero_variance_proposal(chain, formula)
        result = imcis_estimate(
            imc, proposal, formula, 2000, rng,
            IMCISConfig(search=RandomSearchConfig(r_undefeated=300)),
        )
        assert result.interval.contains(exact)
        neighbour = build_ctmc(BIRTH_DEATH, {"lam": 0.41}).embedded_dtmc()
        gamma_neighbour = probability(neighbour, formula)
        assert result.interval.contains(gamma_neighbour)


class TestIntervalIterationVsIMCIS:
    """Interval value iteration bounds must contain the IMCIS γ̂ extremes:
    the search optimises over the same polytope the iteration relaxes."""

    def test_containment(self, rng):
        chain = build_ctmc(BIRTH_DEATH, {"lam": 0.5}).embedded_dtmc()
        formula = parse_property(PROPERTY)
        imc = IMC.from_center(chain, 0.02)
        from repro.analysis import interval_probability_bounds

        spec = formula.until_spec(chain)
        outer_low, outer_high = interval_probability_bounds(imc, spec)
        proposal = zero_variance_proposal(chain, formula)
        result = imcis_estimate(
            imc, proposal, formula, 2000, rng,
            IMCISConfig(search=RandomSearchConfig(r_undefeated=300)),
        )
        # γ̂ at the search extremes estimates γ of *member* chains, which
        # the per-step relaxation outer-approximates (modulo sampling
        # error, hence the small slack).
        assert result.gamma_min >= outer_low * 0.8 - 1e-12
        assert result.gamma_max <= outer_high * 1.2 + 1e-12


class TestSeedDiscipline:
    def test_full_runs_reproducible(self, small_chain):
        formula = parse_property('F "goal"')
        imc = IMC.from_center(small_chain, 0.01)
        proposal = zero_variance_proposal(small_chain, formula)

        def run(seed):
            return imcis_estimate(
                imc, proposal, formula, 500, np.random.default_rng(seed),
                IMCISConfig(search=RandomSearchConfig(r_undefeated=100)),
            )

        first, second = run(123), run(123)
        assert first.interval.low == second.interval.low
        assert first.interval.high == second.interval.high
        different = run(124)
        assert different.interval.low != first.interval.low


class TestSparseDenseParity:
    def test_same_gamma_both_representations(self):
        from scipy import sparse

        from repro.core import DTMC

        dense = build_ctmc(BIRTH_DEATH, {"lam": 0.3}).embedded_dtmc()
        sparse_chain = DTMC(
            sparse.csr_matrix(dense.dense()), dense.initial_state, dense.labels
        )
        formula = parse_property(PROPERTY)
        assert probability(dense, formula) == pytest.approx(
            probability(sparse_chain, formula), rel=1e-12
        )
