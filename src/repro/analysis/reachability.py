"""Exact until/reachability probabilities for DTMCs.

This module plays the role PRISM plays in the paper: it computes the exact
``γ`` values against which the coverage of IS and IMCIS confidence intervals
is judged (the paper: "we have chosen models for which we are able to obtain
accurate results using numerical techniques").

Unbounded until is solved as a sparse linear system restricted to the states
where the answer is not already decided by graph analysis; bounded until is
delegated to :mod:`repro.analysis.transient`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.analysis.graph import prob0_states, prob1_states
from repro.analysis.transient import bounded_until_values
from repro.core import linalg
from repro.core.dtmc import DTMC
from repro.properties.logic import Formula, UntilSpec


def until_values(
    dtmc: DTMC,
    lhs_mask: np.ndarray,
    rhs_mask: np.ndarray,
    bound: int | None = None,
) -> np.ndarray:
    """Per-state probabilities of ``lhs U[<=bound] rhs``."""
    if bound is not None:
        return bounded_until_values(dtmc, lhs_mask, rhs_mask, bound)
    matrix = dtmc.transitions
    n_states = dtmc.n_states
    zero = prob0_states(matrix, lhs_mask, rhs_mask)
    one = prob1_states(matrix, lhs_mask, rhs_mask)
    values = np.zeros(n_states)
    values[one] = 1.0
    maybe_idx = np.flatnonzero(~zero & ~one)
    if maybe_idx.size:
        one_idx = np.flatnonzero(one)
        sub = linalg.submatrix(matrix, maybe_idx, maybe_idx)
        # Right-hand side: one-step probability of entering a prob1 state.
        to_one = linalg.submatrix(matrix, maybe_idx, one_idx)
        rhs_vec = np.asarray(to_one.sum(axis=1)).ravel()
        system = (sparse.identity(maybe_idx.size, format="csr") - sub).tocsc()
        solution = spsolve(system, rhs_vec)
        values[maybe_idx] = np.clip(np.atleast_1d(solution), 0.0, 1.0)
    return values


def spec_values(dtmc: DTMC, spec: UntilSpec) -> np.ndarray:
    """Per-state values of the (post-``X^n``) path part of *spec*.

    Handles the ``lhs_exempt`` shape ``(X lhs) U rhs``: value(s) = 1 if
    ``rhs(s)``, else the expected value, one step later, of the standard
    until ``lhs U (lhs ∧ rhs)`` with the bound decremented.
    """
    if spec.lhs_exempt:
        values = np.zeros(dtmc.n_states)
        if spec.bound is None or spec.bound > 0:
            inner_bound = None if spec.bound is None else spec.bound - 1
            inner = until_values(dtmc, spec.lhs_mask, spec.lhs_mask & spec.rhs_mask, inner_bound)
            values = dtmc.matvec(inner)
        values[spec.rhs_mask] = 1.0
        return values
    return until_values(dtmc, spec.lhs_mask, spec.rhs_mask, spec.bound)


def spec_probability(dtmc: DTMC, spec: UntilSpec, initial_state: int | None = None) -> float:
    """Probability that a random path of *dtmc* satisfies *spec*."""
    state = dtmc.initial_state if initial_state is None else int(initial_state)
    if spec.initial_check is not None and not spec.initial_check[state]:
        return 0.0
    values = spec_values(dtmc, spec)
    for _ in range(spec.n_next):
        values = dtmc.matvec(values)
    return float(values[state])


def probability(dtmc: DTMC, formula: Formula, initial_state: int | None = None) -> float:
    """Probability that a random path of *dtmc* satisfies *formula*.

    The formula must decompose to an :class:`UntilSpec` (every property in
    the paper's evaluation does); otherwise a
    :class:`~repro.errors.PropertyError` is raised.
    """
    return spec_probability(dtmc, formula.until_spec(dtmc), initial_state)
