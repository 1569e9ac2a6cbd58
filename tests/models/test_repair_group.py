"""Tests of the group repair benchmark against the paper's numbers."""

import numpy as np
import pytest

from repro.analysis import probability
from repro.models import repair_group

from tests.conftest import fused_is_estimate


@pytest.fixture(scope="module")
def chain():
    return repair_group.embedded_chain(repair_group.ALPHA_TRUE)


class TestModel:
    def test_state_count(self, chain):
        """Section VI-B: 125 states."""
        assert chain.n_states == 125

    def test_gamma_true(self):
        """Section VI-B: γ = 1.179e-7 at α = 0.1 (we compute 1.1774e-7)."""
        assert repair_group.exact_probability(0.1) == pytest.approx(1.179e-7, rel=2e-3)

    def test_gamma_center(self):
        """Section VI-B: γ(Â) = 1.117e-7 at α̂ = 0.0995."""
        assert repair_group.exact_probability(0.0995) == pytest.approx(1.117e-7, rel=1e-3)

    def test_initial_state_is_all_up(self, chain):
        assert chain.label_mask("init")[chain.initial_state]

    def test_single_failure_state(self, chain):
        assert chain.label_mask("failure").sum() == 1


class TestIMC:
    def test_contains_chains_in_interval(self):
        imc = repair_group.group_repair_imc()
        for alpha in (0.09852, 0.0995, 0.10048):
            assert imc.contains(repair_group.embedded_chain(alpha), atol=1e-7)

    def test_excludes_far_chain(self):
        imc = repair_group.group_repair_imc()
        assert not imc.contains(repair_group.embedded_chain(0.12))

    def test_centered_on_alpha_hat(self):
        imc = repair_group.group_repair_imc()
        gamma = probability(imc.center, repair_group.failure_formula())
        assert gamma == pytest.approx(1.117e-7, rel=1e-3)


class TestProposal:
    def test_pure_zero_variance_is_exact(self, rng):
        proposal = repair_group.is_proposal(mixing=0.0)
        center = repair_group.embedded_chain(repair_group.ALPHA_HAT)
        result = fused_is_estimate(
            center, proposal, repair_group.failure_formula(), 300, rng
        )
        assert result.estimate == pytest.approx(1.117e-7, rel=1e-3)
        assert result.std_dev <= 1e-6 * result.estimate

    def test_mixed_proposal_unbiased(self, rng):
        proposal = repair_group.is_proposal(mixing=0.2)
        center = repair_group.embedded_chain(repair_group.ALPHA_HAT)
        result = fused_is_estimate(
            center, proposal, repair_group.failure_formula(), 4000, rng
        )
        assert result.estimate == pytest.approx(1.117e-7, rel=0.1)
        assert result.std_dev > 0


class TestCurve:
    def test_figure5_range(self):
        """Fig. 5: γ(A(α)) spans ≈ [1.006e-7, 1.239e-7] over the interval."""
        grid, values = repair_group.probability_curve(points=5)
        assert values.min() == pytest.approx(1.006e-7, rel=5e-3)
        assert values.max() == pytest.approx(1.239e-7, rel=5e-3)
        assert np.all(np.diff(values) > 0)  # monotone in alpha

    def test_study_bundle(self):
        study = repair_group.make_study(n_samples=1000)
        assert study.name == "group-repair"
        assert study.gamma_true == pytest.approx(1.179e-7, rel=2e-3)
        assert study.imc.contains(study.true_chain, atol=1e-7)
