"""Result records for statistical estimation runs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval ``[low, high]`` at level ``1 − δ``."""

    low: float
    high: float
    confidence: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"empty interval: [{self.low}, {self.high}]")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")

    @property
    def width(self) -> float:
        """Full width ``high − low``."""
        return self.high - self.low

    @property
    def half_width(self) -> float:
        """The absolute error (half the interval width)."""
        return self.width / 2.0

    @property
    def midpoint(self) -> float:
        """Mid value of the interval (reported in the paper's Table II)."""
        return (self.low + self.high) / 2.0

    def contains(self, value: float) -> bool:
        """True when *value* lies inside the interval (inclusive).

        A relative tolerance of a few ULPs is applied so that degenerate
        (zero-width) intervals — e.g. the perfect-IS interval of Fig. 1c —
        compare as containing the value they numerically equal.
        """
        slack = 1e-12 * max(abs(self.low), abs(self.high), abs(value))
        return self.low - slack <= value <= self.high + slack

    def intersects(self, other: "ConfidenceInterval") -> bool:
        """True when the two intervals overlap."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return f"[{self.low:.6g}, {self.high:.6g}] @ {self.confidence:.0%}"


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of a Monte Carlo or importance-sampling estimation.

    Attributes
    ----------
    estimate:
        The point estimate ``γ̂``.
    std_dev:
        The empirical standard deviation ``σ̂`` of the per-trace summands.
    n_samples:
        Number of traces used.
    interval:
        The ``(1 − δ)`` confidence interval.
    n_satisfied:
        Number of traces satisfying the property.
    n_undecided:
        Traces whose verdict was still open at the step cap (treated as not
        satisfying; should be zero on well-posed models).
    method:
        Short identifier, e.g. ``"monte-carlo"`` or ``"importance-sampling"``.
    ess:
        Effective sample size of the importance weights,
        ``(Σ L_k)² / Σ L_k²`` — the standard IS health diagnostic. ``None``
        for unweighted (crude Monte Carlo / Bayesian) estimates, where it
        would equal ``n_satisfied``.
    """

    estimate: float
    std_dev: float
    n_samples: int
    interval: ConfidenceInterval
    n_satisfied: int
    n_undecided: int = 0
    method: str = "monte-carlo"
    ess: float | None = None

    @property
    def std_error(self) -> float:
        """Standard error ``σ̂ / sqrt(N)``."""
        return self.std_dev / (self.n_samples ** 0.5) if self.n_samples else float("nan")

    def relative_error(self) -> float:
        """Absolute error divided by the estimate (Section III of the paper)."""
        if self.estimate == 0:
            return float("inf")
        return self.interval.half_width / self.estimate
