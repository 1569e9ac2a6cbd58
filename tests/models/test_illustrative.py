"""Tests of the illustrative case study against the paper's numbers."""

import numpy as np
import pytest

from repro.analysis import probability
from repro.models import illustrative


class TestExactValues:
    def test_true_gamma(self):
        """Section III-B: γ ≈ 5.005e-6 for a = 1e-4, c = 0.05."""
        assert illustrative.exact_probability() == pytest.approx(5.005e-6, rel=1e-3)

    def test_learnt_gamma(self):
        """Section III-B: γ(Â) = 1.4944e-5."""
        gamma_hat = illustrative.exact_probability(illustrative.A_HAT, illustrative.C_HAT)
        assert gamma_hat == pytest.approx(1.4944e-5, rel=1e-4)

    def test_closed_form_matches_engine(self):
        chain = illustrative.illustrative_chain(0.2, 0.3)
        numeric = probability(chain, illustrative.reach_goal_formula())
        assert numeric == pytest.approx(illustrative.exact_probability(0.2, 0.3), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            illustrative.illustrative_chain(0.0, 0.5)


class TestIMC:
    def test_intervals_match_paper(self):
        imc = illustrative.illustrative_imc()
        assert imc.lower[0, 1] == pytest.approx(0.5e-4)
        assert imc.upper[0, 1] == pytest.approx(5.5e-4)
        assert imc.lower[1, 2] == pytest.approx(0.0493)
        assert imc.upper[1, 2] == pytest.approx(0.0503)

    def test_contains_truth_and_center(self):
        imc = illustrative.illustrative_imc()
        assert imc.contains(illustrative.illustrative_chain())
        assert imc.contains(imc.center)

    def test_absorbing_rows_exact(self):
        imc = illustrative.illustrative_imc()
        assert imc.lower[2, 2] == imc.upper[2, 2] == 1.0


class TestProposal:
    def test_perfect_proposal_always_succeeds(self, rng):
        proposal = illustrative.perfect_proposal()
        # Under Fig. 1c all mass goes towards the goal.
        assert proposal.probability(0, 1) == pytest.approx(1.0)
        assert proposal.probability(0, 3) == 0.0

    def test_likelihood_ratio_is_gamma(self):
        """Fig. 1c/1d: every successful path has ratio exactly γ(Â)."""
        center = illustrative.illustrative_chain(illustrative.A_HAT, illustrative.C_HAT)
        proposal = illustrative.perfect_proposal()
        path = [0, 1, 0, 1, 2]
        ratio = np.exp(
            center.log_path_probability(path) - proposal.log_path_probability(path)
        )
        gamma_hat = illustrative.exact_probability(illustrative.A_HAT, illustrative.C_HAT)
        assert ratio == pytest.approx(gamma_hat, rel=1e-9)


class TestStudy:
    def test_study_bundle(self):
        study = illustrative.make_study()
        assert study.name == "illustrative"
        assert study.gamma_true == pytest.approx(5.005e-6, rel=1e-3)
        assert study.gamma_center == pytest.approx(1.4944e-5, rel=1e-4)
        assert study.imc.contains(study.true_chain)
        assert study.n_samples == 10_000
