"""Unit tests for Bayesian estimation."""

import warnings

import pytest
from scipy import special, stats

from repro.analysis import probability
from repro.errors import EstimationError
from repro.properties import parse_property
from repro.smc import BetaPosterior, bayesian_estimate
from tests.smc.test_intervals import PARITY_CONFIDENCES


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


PARITY_SHAPES = [0.5, 1.0, 2.0, 17.0, 1e3, 1e6]


@pytest.mark.parametrize("beta", PARITY_SHAPES)
@pytest.mark.parametrize("alpha", PARITY_SHAPES)
def test_credible_interval_matches_beta_ppf_bitwise(alpha, beta):
    """``betaincinv`` returns exactly what ``beta.ppf`` did at every level.

    Both run Boost's ``ibeta_inv``. The one exception is a quantile where
    ``beta.ppf`` warns that its root search gave up: there its value is
    wrong, and the endpoint must instead invert ``betainc``.
    """
    post = BetaPosterior(alpha, beta)
    for confidence in PARITY_CONFIDENCES:
        tail = (1.0 - confidence) / 2.0
        interval = post.credible_interval(confidence)
        for got, q in ((interval.low, tail), (interval.high, 1.0 - tail)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                expected = float(stats.beta.ppf(q, alpha, beta))
            if caught:
                assert special.betainc(alpha, beta, got) == pytest.approx(q, rel=1e-12, abs=0)
            else:
                assert got == expected, (confidence, q)


def test_credible_interval_where_beta_ppf_gave_up():
    """Beta(0.5, 2) at 1 − 1e-12: ``I_x ≈ 1.5 √x`` puts the lower end near 1.1e-25.

    ``beta.ppf`` returned 1.08e-27 there (90% short in ``I_x``) with a
    root-finding warning; the endpoint now solves the equation.
    """
    confidence = 1.0 - 1e-12
    tail = (1.0 - confidence) / 2.0
    low = BetaPosterior(0.5, 2.0).credible_interval(confidence).low
    assert low == pytest.approx((tail / 1.5) ** 2, rel=1e-6, abs=0)
    assert special.betainc(0.5, 2.0, low) == pytest.approx(tail, rel=1e-12, abs=0)


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
