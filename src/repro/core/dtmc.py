"""Discrete Time Markov Chains (Definition 2.1 of the paper).

A :class:`DTMC` is a finite state space, an initial state, a row-stochastic
transition matrix ``A`` and a labelling of states with atomic propositions.
The transition matrix may be a dense ``numpy`` array (small models) or a
``scipy.sparse`` CSR matrix (the 40 320-state repair benchmark); all methods
work for both. The matrix is frozen after construction, so accidental
in-place mutation fails loudly.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core import linalg
from repro.core.paths import Path, TransitionCounts
from repro.core.validation import check_initial_state, normalise_labels
from repro.errors import ModelError

#: Default absolute tolerance for row-stochasticity. Shared with the
#: simulation engine's row compilers so a chain that passes construction
#: validation never fails compilation (and vice versa).
ROW_ATOL = 1e-9
_ROW_ATOL = ROW_ATOL


class DTMC:
    """A finite discrete-time Markov chain.

    Parameters
    ----------
    transitions:
        Square row-stochastic matrix (dense array-like or scipy sparse);
        entry ``(i, j)`` is the probability of jumping from state ``i`` to
        state ``j`` in one step.
    initial_state:
        Index of the initial state ``s0``.
    labels:
        Mapping from atomic-proposition name to either a boolean mask over
        states or an iterable of state indices.
    state_names:
        Optional human-readable names, one per state.
    """

    def __init__(
        self,
        transitions: object,
        initial_state: int = 0,
        labels: Mapping[str, object] | None = None,
        state_names: Sequence[str] | None = None,
        _validate: bool = True,
    ):
        matrix = linalg.coerce_matrix(transitions, "transition matrix")
        if _validate:
            linalg.check_entries_in_unit_interval(matrix, "transition matrix")
            sums = linalg.row_sums(matrix)
            bad = np.flatnonzero(np.abs(sums - 1.0) > _ROW_ATOL)
            if bad.size:
                state = int(bad[0])
                raise ModelError(
                    f"row {state} of the transition matrix sums to {sums[state]!r}, expected 1"
                )
        linalg.freeze(matrix)
        self._transitions = matrix
        n = matrix.shape[0]
        self._initial_state = check_initial_state(initial_state, n)
        self._labels = normalise_labels(dict(labels) if labels else None, n)
        if state_names is not None:
            if len(state_names) != n:
                raise ModelError(f"{len(state_names)} state names for {n} states")
            self._state_names = tuple(str(s) for s in state_names)
        else:
            self._state_names = None

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def transitions(self) -> object:
        """The (read-only) transition matrix ``A`` — ndarray or CSR."""
        return self._transitions

    @property
    def is_sparse(self) -> bool:
        """True when the matrix is stored sparse."""
        return linalg.is_sparse(self._transitions)

    def dense(self) -> np.ndarray:
        """The transition matrix as a dense array (beware of huge models)."""
        if self.is_sparse:
            return np.asarray(self._transitions.todense())
        return np.asarray(self._transitions)

    @property
    def n_states(self) -> int:
        """Number of states ``|S|``."""
        return self._transitions.shape[0]

    @property
    def initial_state(self) -> int:
        """Index of the initial state ``s0``."""
        return self._initial_state

    @property
    def labels(self) -> dict[str, np.ndarray]:
        """Mapping of atomic proposition name to a boolean state mask."""
        return {name: mask.copy() for name, mask in self._labels.items()}

    @property
    def state_names(self) -> tuple[str, ...] | None:
        """Optional human-readable state names."""
        return self._state_names

    def state_name(self, state: int) -> str:
        """Name of *state* (its index as a string when unnamed)."""
        if self._state_names is not None:
            return self._state_names[state]
        return str(state)

    def row(self, state: int) -> np.ndarray:
        """The outgoing distribution ``a_i`` from *state* as a dense vector."""
        return linalg.row_dense(self._transitions, state)

    def row_entries(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """Successor indices and probabilities of *state* (sparse-friendly)."""
        return linalg.row_entries(self._transitions, state)

    def successors(self, state: int) -> np.ndarray:
        """Indices of states reachable from *state* in one step."""
        return self.row_entries(state)[0]

    def probability(self, source: int, target: int) -> float:
        """The one-step probability ``a_ij``."""
        return linalg.entry(self._transitions, source, target)

    def is_absorbing(self, state: int) -> bool:
        """True if *state* loops to itself with probability one."""
        return self.probability(state, state) == 1.0

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """``A @ vector`` (used by the numerical engines)."""
        return linalg.matvec(self._transitions, vector)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def label_mask(self, name: str) -> np.ndarray:
        """Boolean mask of the states carrying atomic proposition *name*."""
        try:
            return self._labels[name].copy()
        except KeyError:
            raise ModelError(f"unknown label {name!r}; have {sorted(self._labels)}") from None

    def label_states(self, name: str) -> np.ndarray:
        """Indices of the states carrying atomic proposition *name*."""
        return np.flatnonzero(self.label_mask(name))

    def has_label(self, state: int, name: str) -> bool:
        """True if *state* carries atomic proposition *name*."""
        return bool(self.label_mask(name)[state])

    def labels_of(self, state: int) -> frozenset[str]:
        """The set of atomic propositions of *state* (``V(s)``)."""
        return frozenset(name for name, mask in self._labels.items() if mask[state])

    def with_labels(self, labels: Mapping[str, object]) -> "DTMC":
        """A copy of this chain with *labels* added/replaced."""
        merged: dict[str, object] = dict(self._labels)
        merged.update(labels)
        return DTMC(
            self._transitions,
            self._initial_state,
            merged,
            self._state_names,
            _validate=False,
        )

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    def path_probability(self, path: Path | Sequence[int]) -> float:
        """``P_A(ω)`` — the probability of *path* under this chain."""
        return math.exp(self.log_path_probability(path))

    def log_path_probability(self, path: Path | Sequence[int]) -> float:
        """Natural logarithm of :meth:`path_probability`.

        Returns ``-inf`` for paths using zero-probability transitions.
        """
        states = path.states if isinstance(path, Path) else tuple(int(s) for s in path)
        total = 0.0
        for i, j in zip(states[:-1], states[1:]):
            p = self.probability(i, j)
            if p == 0.0:
                return float("-inf")
            total += math.log(p)
        return total

    def counts_log_probability(self, counts: TransitionCounts) -> float:
        """Log-probability of any path with transition counts *counts*.

        Implements Equation (1): ``log P = sum n_ij log a_ij``.
        """
        total = 0.0
        for (i, j), n in counts.items():
            p = self.probability(i, j)
            if p == 0.0:
                return float("-inf")
            total += n * math.log(p)
        return total

    def step(self, state: int, rng: np.random.Generator) -> int:
        """Sample one successor of *state* using *rng*.

        Convenience method for small-scale use; bulk simulation should go
        through the batch engine (:mod:`repro.smc.engine`), which
        precomputes cumulative rows.
        """
        indices, probs = self.row_entries(state)
        if indices.size == 0:
            raise ModelError(f"state {state} has no outgoing transitions")
        u = rng.random()
        acc = 0.0
        for pos in range(indices.size - 1):
            acc += probs[pos]
            if u < acc:
                return int(indices[pos])
        return int(indices[-1])

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def close_to(self, other: "DTMC", atol: float = 1e-12) -> bool:
        """True if both chains have (numerically) identical matrices."""
        return (
            self.n_states == other.n_states
            and self._initial_state == other._initial_state
            and linalg.allclose_matrices(self._transitions, other._transitions, atol)
        )

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return (
            f"DTMC(n_states={self.n_states}, initial_state={self._initial_state}, "
            f"{kind}, labels={sorted(self._labels)})"
        )
