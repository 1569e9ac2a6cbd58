"""Unit tests for Bayesian estimation."""

import pytest

from repro.analysis import probability
from repro.errors import EstimationError
from repro.properties import parse_property
from repro.smc import BetaPosterior, bayesian_estimate


class TestBetaPosterior:
    def test_moments(self):
        post = BetaPosterior(3.0, 7.0)
        assert post.mean == pytest.approx(0.3)
        assert post.mode == pytest.approx(2 / 8)
        assert post.variance == pytest.approx(3 * 7 / (100 * 11))

    def test_uniform_prior_mode_undefined(self):
        assert BetaPosterior(1.0, 1.0).mode is None

    def test_update(self):
        post = BetaPosterior(1.0, 1.0).update(4, 6)
        assert post.alpha == 5.0 and post.beta == 7.0

    def test_invalid_parameters(self):
        with pytest.raises(EstimationError):
            BetaPosterior(0.0, 1.0)

    def test_credible_interval_contains_mean(self):
        post = BetaPosterior(10.0, 30.0)
        interval = post.credible_interval(0.9)
        assert interval.contains(post.mean)
        assert interval.confidence == 0.9


class TestBayesianEstimate:
    def test_agrees_with_exact(self, small_chain, rng):
        formula = parse_property('F "goal"')
        exact = probability(small_chain, formula)
        result = bayesian_estimate(small_chain, formula, 3000, rng)
        assert result.estimate == pytest.approx(exact, abs=0.03)
        assert result.interval.contains(exact)

    def test_posterior_counts(self, small_chain, rng):
        result = bayesian_estimate(small_chain, parse_property('F "goal"'), 100, rng)
        assert result.posterior.alpha + result.posterior.beta == pytest.approx(102.0)
        assert result.n_satisfied <= result.n_samples

    def test_informative_prior_pulls_estimate(self, small_chain, rng):
        formula = parse_property('F "goal"')
        strong_prior = BetaPosterior(500.0, 500.0)  # believes gamma = 0.5
        result = bayesian_estimate(small_chain, formula, 100, rng, prior=strong_prior)
        assert result.estimate > 0.3  # pulled towards the prior
