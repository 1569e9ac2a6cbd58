"""Unit tests for global-parameter learning."""

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learning import estimate_bernoulli_parameter, exposure_for_margin


class TestEstimation:
    def test_point_estimate(self):
        est = estimate_bernoulli_parameter(995, 10_000, 0.999)
        assert est.value == pytest.approx(0.0995)
        assert est.low < 0.0995 < est.high

    def test_paper_interval_shape(self):
        """α̂ = 0.0995 with the right exposure gives ≈ [0.09852, 0.10048]."""
        n = exposure_for_margin(0.0995, 0.00098, 0.999)
        est = estimate_bernoulli_parameter(round(0.0995 * n), n, 0.999)
        assert est.low == pytest.approx(0.09852, abs=3e-4)
        assert est.high == pytest.approx(0.10048, abs=3e-4)

    def test_invalid_inputs(self):
        with pytest.raises(LearningError):
            estimate_bernoulli_parameter(5, 0)
        with pytest.raises(LearningError):
            estimate_bernoulli_parameter(11, 10)

    def test_interval_tuple(self):
        est = estimate_bernoulli_parameter(10, 100)
        assert est.as_interval() == (est.low, est.high)
        assert est.half_width == pytest.approx((est.high - est.low) / 2)

    def test_interval_covers_truth(self):
        hits = 0
        for seed in range(20):
            events = np.random.default_rng(seed).binomial(5000, 0.1)
            est = estimate_bernoulli_parameter(events, 5000, 0.99)
            hits += est.low <= 0.1 <= est.high
        assert hits >= 17


class TestExposure:
    def test_margin_inversion(self):
        n = exposure_for_margin(0.1, 0.005, 0.999)
        est = estimate_bernoulli_parameter(round(0.1 * n), n, 0.999)
        assert est.half_width <= 0.0052

    def test_invalid_margin(self):
        with pytest.raises(LearningError):
            exposure_for_margin(0.1, 0.0)
