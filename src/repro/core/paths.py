"""Paths and transition-count tables (Section II-A of the paper).

A path ``ω = ω0 → ... → ωl`` is a finite state sequence; its *length* ``|ω|``
is the number of transitions. The paper's Equation (1) rewrites the path
probability as ``prod a_ij^{n_ij(ω)}`` where ``n_ij(ω)`` counts how often the
transition ``s_i → s_j`` occurs — :class:`TransitionCounts` is exactly that
table, built on the fly by the simulators (Algorithm 1, lines 6–11) so the
full trace never needs to be stored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Path:
    """An immutable finite path through a chain's state space."""

    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.states) == 0:
            raise ValueError("a path must contain at least the initial state")

    @classmethod
    def from_states(cls, states: Sequence[int] | Iterable[int]) -> "Path":
        """Build a path from any iterable of state indices."""
        return cls(tuple(int(s) for s in states))

    def __len__(self) -> int:
        """Number of *transitions* (``|ω|`` in the paper), not states."""
        return len(self.states) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.states)

    def __getitem__(self, index: int) -> int:
        return self.states[index]

    @property
    def first(self) -> int:
        """Initial state of the path."""
        return self.states[0]

    @property
    def last(self) -> int:
        """Final state of the path."""
        return self.states[-1]

    def transitions(self) -> Iterator[tuple[int, int]]:
        """Iterate over the (source, target) transition pairs."""
        return zip(self.states[:-1], self.states[1:])

    def counts(self) -> "TransitionCounts":
        """The transition-count table ``n_ij(ω)`` of this path."""
        return TransitionCounts.from_path(self)

    def prefix(self, n_transitions: int) -> "Path":
        """The prefix of this path with at most *n_transitions* transitions."""
        if n_transitions < 0:
            raise ValueError("n_transitions must be non-negative")
        return Path(self.states[: n_transitions + 1])


@dataclass
class TransitionCounts:
    """Sparse table of transition occurrence counts ``n_ij(ω)``.

    Algorithm 1 stores, per sampled trace, only this table (sets ``T_k`` and
    counters ``n_k``); the symbolic likelihood ratio of the trace is then a
    function of the table alone (Equation 6).
    """

    counts: Counter = field(default_factory=Counter)

    @classmethod
    def from_path(cls, path: Path | Sequence[int]) -> "TransitionCounts":
        """Count the transitions of *path*."""
        states = path.states if isinstance(path, Path) else tuple(int(s) for s in path)
        table = cls()
        for pair in zip(states[:-1], states[1:]):
            table.counts[pair] += 1
        return table

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[tuple[int, int], int]]) -> "TransitionCounts":
        """Build a table from ``((i, j), count)`` pairs."""
        table = cls()
        for (i, j), count in pairs:
            if count < 0:
                raise ValueError(f"negative count for transition ({i}, {j})")
            if count:
                table.counts[(int(i), int(j))] += int(count)
        return table

    def record(self, source: int, target: int, times: int = 1) -> None:
        """Record *times* occurrences of ``source → target`` (lines 8–11)."""
        self.counts[(int(source), int(target))] += times

    def __len__(self) -> int:
        """Number of *distinct* transitions observed (``|T_k|``)."""
        return len(self.counts)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        return self.counts.get(pair, 0)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.counts)

    def items(self) -> Iterable[tuple[tuple[int, int], int]]:
        """Iterate over ``((i, j), n_ij)`` entries."""
        return self.counts.items()

    @property
    def total(self) -> int:
        """Total number of transitions, i.e. the path length ``|ω|``."""
        return sum(self.counts.values())

    def sources(self) -> set[int]:
        """Set of visited source states (``V_k`` in Algorithm 1)."""
        return {i for (i, _j) in self.counts}

    def merge(self, other: "TransitionCounts") -> "TransitionCounts":
        """Return a new table with the counts of both operands summed."""
        merged = TransitionCounts(Counter(self.counts))
        merged.counts.update(other.counts)
        return merged

    def to_matrix(self, n_states: int) -> np.ndarray:
        """Densify into an ``n_states × n_states`` integer count matrix."""
        matrix = np.zeros((n_states, n_states), dtype=np.int64)
        for (i, j), count in self.counts.items():
            matrix[i, j] = count
        return matrix
