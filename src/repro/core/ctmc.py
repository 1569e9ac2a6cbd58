"""Continuous Time Markov Chains and their embedded jump chains.

The paper's repair benchmarks (Sections VI-B and VI-C) are CTMCs built from
stochastic failure/repair rates. The properties studied — reach a failure
state before returning to the initial state — depend only on the sequence of
states visited, never on sojourn times, so they are analysed and simulated on
the **embedded DTMC** whose jump probabilities are ``r_ij / sum_k r_ik``.

Rate matrices may be dense or scipy-sparse, like the DTMC class.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core import linalg
from repro.core.dtmc import DTMC
from repro.core.validation import check_initial_state, normalise_labels
from repro.errors import ModelError


class CTMC:
    """A finite continuous-time Markov chain given by a rate matrix.

    Parameters
    ----------
    rates:
        Square non-negative matrix of transition rates; the diagonal must be
        zero (exit rates are derived, not stored).
    initial_state, labels, state_names:
        As for :class:`~repro.core.dtmc.DTMC`.
    """

    def __init__(
        self,
        rates: object,
        initial_state: int = 0,
        labels: Mapping[str, object] | None = None,
        state_names: Sequence[str] | None = None,
    ):
        matrix = linalg.coerce_matrix(rates, "rate matrix")
        if linalg.min_entries(matrix) < 0:
            raise ModelError("rate matrix has negative entries")
        diag = matrix.diagonal()
        if np.any(diag != 0):
            state = int(np.flatnonzero(diag != 0)[0])
            raise ModelError(f"rate matrix has a non-zero diagonal at state {state}")
        linalg.freeze(matrix)
        self._rates = matrix
        n = matrix.shape[0]
        self._initial_state = check_initial_state(initial_state, n)
        self._labels = normalise_labels(dict(labels) if labels else None, n)
        if state_names is not None and len(state_names) != n:
            raise ModelError(f"{len(state_names)} state names for {n} states")
        self._state_names = tuple(str(s) for s in state_names) if state_names else None

    @property
    def rates(self) -> object:
        """The (read-only) rate matrix."""
        return self._rates

    @property
    def is_sparse(self) -> bool:
        """True when the rate matrix is stored sparse."""
        return linalg.is_sparse(self._rates)

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self._rates.shape[0]

    @property
    def initial_state(self) -> int:
        """Index of the initial state."""
        return self._initial_state

    @property
    def labels(self) -> dict[str, np.ndarray]:
        """Mapping of atomic proposition name to a boolean state mask."""
        return {name: mask.copy() for name, mask in self._labels.items()}

    def label_mask(self, name: str) -> np.ndarray:
        """Boolean mask of the states carrying atomic proposition *name*."""
        try:
            return self._labels[name].copy()
        except KeyError:
            raise ModelError(f"unknown label {name!r}; have {sorted(self._labels)}") from None

    @property
    def state_names(self) -> tuple[str, ...] | None:
        """Optional human-readable state names."""
        return self._state_names

    def exit_rates(self) -> np.ndarray:
        """Vector of exit rates ``E(s) = sum_t R(s, t)``."""
        return linalg.row_sums(self._rates)

    def embedded_dtmc(self) -> DTMC:
        """The embedded jump chain: ``P(s, t) = R(s, t) / E(s)``.

        States with zero exit rate become absorbing (self-loop with
        probability one), matching the standard convention.
        """
        exits = self.exit_rates()
        positive = exits > 0
        factors = np.zeros_like(exits)
        factors[positive] = 1.0 / exits[positive]
        matrix = linalg.scale_rows(self._rates, factors)
        absorbing = np.flatnonzero(~positive)
        if absorbing.size:
            matrix = linalg.with_unit_diagonal(matrix, absorbing)
        return DTMC(matrix, self._initial_state, self._labels, self._state_names)

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"CTMC(n_states={self.n_states}, initial_state={self._initial_state}, {kind})"
