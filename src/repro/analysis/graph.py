"""Graph precomputations for probabilistic reachability.

``prob0`` identifies the states from which the goal is unreachable through
allowed states (their until-probability is exactly 0); ``prob1`` identifies
states reaching the goal almost surely. Both are pure graph fixpoints on the
support of the transition matrix; running them before the linear solve makes
the system non-singular and the answers exact on qualitative questions.

All functions accept dense arrays and scipy sparse matrices alike.
"""

from __future__ import annotations

import numpy as np

from repro.core import linalg


def backward_reachable(transitions: object, targets: np.ndarray, through: np.ndarray) -> np.ndarray:
    """States that can reach *targets* via transitions staying in *through*.

    A backward breadth-first search on the support graph: the result
    contains every state from which some path ``s → ... → t`` with
    ``t ∈ targets`` exists whose states before the target (including ``s``
    itself) all lie in *through*. Target states are always included.

    The search runs level by level: each pass gathers the predecessors of
    the whole frontier from the column-compressed support at once.
    """
    support = linalg.support_csc(transitions)
    indptr, indices = support.indptr, support.indices
    reached = targets.copy()
    frontier = np.flatnonzero(targets)
    while frontier.size:
        starts = indptr[frontier]
        degrees = indptr[frontier + 1] - starts
        ends = np.cumsum(degrees)
        predecessors = indices[np.arange(ends[-1]) + np.repeat(starts - ends + degrees, degrees)]
        frontier = np.unique(predecessors[through[predecessors] & ~reached[predecessors]])
        reached[frontier] = True
    return reached


def prob0_states(transitions: object, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """States whose probability of ``lhs U rhs`` is exactly zero.

    These are the states that cannot reach an *rhs* state along *lhs* states.
    """
    can_reach = backward_reachable(transitions, rhs, lhs & ~rhs)
    return ~can_reach


def prob1_states(transitions: object, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """States whose probability of ``lhs U rhs`` is exactly one.

    For a DTMC the characterisation is direct: ``P(lhs U rhs)(s) < 1`` iff
    ``s`` can reach a prob0 state along ``lhs ∧ ¬rhs`` states (any recurrent
    class trapped inside ``lhs ∧ ¬rhs`` is itself prob0, so "looping
    forever" is subsumed by reaching prob0).
    """
    zero = prob0_states(transitions, lhs, rhs)
    below_one = backward_reachable(transitions, zero, lhs & ~rhs)
    return ~below_one
