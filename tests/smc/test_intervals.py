"""Unit tests for confidence-interval arithmetic."""


import numpy as np
import pytest
from scipy import stats

from repro.errors import EstimationError
from repro.smc import (
    normal_ci,
    normal_quantile,
    okamoto_epsilon,
    required_samples_relative_error,
    wilson_ci,
)
from repro.smc.results import ConfidenceInterval


class TestQuantiles:
    def test_ninety_five(self):
        assert normal_quantile(0.95) == pytest.approx(1.959964, rel=1e-5)

    def test_ninety_nine(self):
        assert normal_quantile(0.99) == pytest.approx(2.575829, rel=1e-5)

    def test_invalid_confidence(self):
        with pytest.raises(EstimationError):
            normal_quantile(1.5)


#: The levels every shipped cell uses, the extremes, and a random grid.
PARITY_CONFIDENCES = [0.5, 0.9, 0.95, 0.99, 1.0 - 1e-12] + list(
    np.random.default_rng(2018).uniform(1e-6, 1.0 - 1e-6, 64)
)


@pytest.mark.parametrize("confidence", PARITY_CONFIDENCES)
def test_normal_quantile_matches_norm_ppf_bitwise(confidence):
    """``ndtri`` returns exactly what ``norm.ppf`` did, so no interval moves."""
    expected = float(stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
    assert normal_quantile(confidence) == expected


class TestNormalCI:
    def test_half_width(self):
        ci = normal_ci(0.5, 0.1, 100, 0.95)
        assert ci.half_width == pytest.approx(1.959964 * 0.1 / 10, rel=1e-5)
        assert ci.midpoint == pytest.approx(0.5)

    def test_clipped_at_zero(self):
        ci = normal_ci(0.001, 0.5, 10, 0.95)
        assert ci.low == 0.0

    def test_zero_std_is_point(self):
        ci = normal_ci(0.3, 0.0, 100)
        assert ci.low == ci.high == pytest.approx(0.3)

    def test_invalid_samples(self):
        with pytest.raises(EstimationError):
            normal_ci(0.5, 0.1, 0)


class TestOkamoto:
    def test_paper_worked_example(self):
        """Section II-B: delta = 1e-5, n = 1e4 gives eps ≈ 0.025."""
        eps = okamoto_epsilon(10_000, 1e-5)
        assert eps == pytest.approx(0.0247, abs=5e-4)


class TestWilsonAndBernoulli:
    def test_wilson_never_leaves_unit_interval(self):
        ci = wilson_ci(0, 100)
        assert ci.low == pytest.approx(0.0, abs=1e-12)
        assert 0 < ci.high < 0.05

    def test_wilson_contains_proportion(self):
        ci = wilson_ci(3, 1000)
        assert ci.contains(3 / 1000)


class TestRelativeError:
    def test_paper_rule_of_thumb(self):
        """Section III: RE = 10 % needs N ≈ 100/gamma."""
        gamma = 1e-6
        n = required_samples_relative_error(gamma, 0.1)
        assert n == pytest.approx(100 / gamma, rel=0.01)


class TestConfidenceInterval:
    def test_contains(self):
        ci = ConfidenceInterval(0.1, 0.3, 0.95)
        assert ci.contains(0.2) and ci.contains(0.1) and not ci.contains(0.31)

    def test_intersects(self):
        a = ConfidenceInterval(0.1, 0.3, 0.95)
        b = ConfidenceInterval(0.25, 0.5, 0.95)
        c = ConfidenceInterval(0.4, 0.5, 0.95)
        assert a.intersects(b) and not a.intersects(c)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(0.5, 0.4, 0.95)

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="confidence"):
            ConfidenceInterval(0.0, 1.0, 1.5)

    def test_width_and_midpoint(self):
        ci = ConfidenceInterval(0.2, 0.6, 0.9)
        assert ci.width == pytest.approx(0.4)
        assert ci.half_width == pytest.approx(0.2)
        assert ci.midpoint == pytest.approx(0.4)

    def test_str(self):
        assert "95%" in str(ConfidenceInterval(0.0, 1.0, 0.95))
