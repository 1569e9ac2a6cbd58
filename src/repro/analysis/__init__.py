"""Numerical model-checking engines — the library's PRISM stand-in."""

from repro.analysis.graph import backward_reachable, prob0_states, prob1_states
from repro.analysis.interval_iteration import (
    interval_probability_bounds,
    interval_spec_probability,
    interval_until_values,
    optimise_row,
)
from repro.analysis.reachability import (
    probability,
    spec_probability,
    spec_values,
    until_values,
)
from repro.analysis.transient import bounded_until_values

__all__ = [
    "backward_reachable",
    "bounded_until_values",
    "interval_probability_bounds",
    "interval_spec_probability",
    "interval_until_values",
    "optimise_row",
    "prob0_states",
    "prob1_states",
    "probability",
    "spec_probability",
    "spec_values",
    "until_values",
]
