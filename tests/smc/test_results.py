"""Tests for the estimation result records."""

import math

import pytest

from repro.smc.results import ConfidenceInterval, EstimationResult


class TestEstimationResult:
    def make(self, estimate=0.1, std_dev=0.05, n=100):
        return EstimationResult(
            estimate=estimate,
            std_dev=std_dev,
            n_samples=n,
            interval=ConfidenceInterval(max(0.0, estimate - 0.01), estimate + 0.01, 0.95),
            n_satisfied=int(estimate * n),
        )

    def test_std_error(self):
        result = self.make(std_dev=0.5, n=25)
        assert result.std_error == pytest.approx(0.1)

    def test_relative_error(self):
        result = self.make(estimate=0.1)
        assert result.relative_error() == pytest.approx(0.01 / 0.1)

    def test_zero_estimate_relative_error_infinite(self):
        result = self.make(estimate=0.0)
        assert math.isinf(result.relative_error())

    def test_defaults(self):
        result = self.make()
        assert result.n_undecided == 0
        assert result.method == "monte-carlo"
