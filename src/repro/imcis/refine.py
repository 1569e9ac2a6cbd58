"""Local refinement of the random-search extremes (an extension).

Algorithm 2 samples every candidate from Dirichlet distributions centred on
the *learnt* chain ``Â``. In high dimension (the repair benchmarks optimise
100+ rows jointly) the incumbent extreme quickly becomes better than the
best of any feasible number of fresh centre-based draws, and the search
stalls short of the polytope's true extremes.

This module adds the natural local step the paper's conclusion asks about
("compare the current algorithm with other optimisation schemes"): continue
the search with candidates **recentred on the incumbent extreme**, one
direction at a time, resampling a random subset of rows per round. Accepted
moves keep walking towards the corner; the same Dirichlet machinery,
feasibility guarantees and stopping rule apply. Disabled by default —
enable via :attr:`RandomSearchConfig.refine_rounds` (or call
:func:`refine_extreme` directly) to reproduce interval widths closer to the
paper's Table II on the large case studies.
"""

from __future__ import annotations

import numpy as np

from repro.imcis.candidates import CandidateSpace
from repro.imcis.dirichlet import BlockSampler, DirichletConfig, DirichletRowSampler
from repro.imcis.objective import ISObjective
from repro.util.rng import ensure_rng

#: Rows one block draws for a recentred row; those not used before the
#: row is recentred again are dropped.
ROWS_PER_DRAW = 8


class _RecentredRow:
    """A row sampler recentred on *center* (kept inside the bounds).

    Rows are drawn :data:`ROWS_PER_DRAW` at a time and handed out in order,
    so a row chosen every few rounds costs one block draw, not one per round.
    """

    def __init__(self, plan, center: np.ndarray, config: DirichletConfig):
        # Nudge the centre off the exact bounds so concentrations stay finite.
        width = plan.upper - plan.lower
        safe = np.clip(center, plan.lower + 1e-12 * width, plan.upper - 1e-12 * width)
        safe = safe / safe.sum()
        sampler = DirichletRowSampler(plan.support, safe, plan.lower, plan.upper, config)
        self._block = BlockSampler([sampler])
        self._drawn = iter(())

    def next_row(self, rng: np.random.Generator) -> np.ndarray:
        """The next unused draw, drawing a new block when none is left."""
        row = next(self._drawn, None)
        if row is None:
            self._drawn = iter(self._block.sample(rng, ROWS_PER_DRAW)[0])
            row = next(self._drawn)
        return row


def refine_extreme(
    objective: ISObjective,
    space: CandidateSpace,
    rows: dict[int, np.ndarray],
    direction: str,
    rounds: int,
    rng: np.random.Generator | int | None = None,
    rows_per_round: int = 4,
    stall_limit: int | None = None,
) -> tuple[dict[int, np.ndarray], int]:
    """Greedy local search from an incumbent extreme.

    Parameters
    ----------
    rows:
        The incumbent sampled-state rows (e.g. ``RandomSearchResult.rows_min``).
    direction:
        ``"min"`` or ``"max"``.
    rounds:
        Maximum refinement rounds.
    rows_per_round:
        How many randomly chosen state rows are resampled per round
        (small subsets give a higher acceptance rate in high dimension).
    stall_limit:
        Stop early after this many consecutive non-improving rounds
        (default: ``rounds``, i.e. never early).

    Returns the refined rows and the number of accepted improvements.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    generator = ensure_rng(rng)
    plans = space.sampled_plans
    if not plans or rounds <= 0:
        return {s: r.copy() for s, r in rows.items()}, 0
    stall_limit = rounds if stall_limit is None else stall_limit

    current = {s: r.copy() for s, r in rows.items()}
    config = space.sampled_plans[0].sampler.config if plans[0].sampler else DirichletConfig()
    samplers = [_RecentredRow(p, current[p.state], config) for p in plans]

    def value(candidate_rows) -> float:
        log_min, log_max = space.log_vectors(candidate_rows)
        vec = log_min if direction == "min" else log_max
        return objective.log_f(vec)

    sign = 1.0 if direction == "max" else -1.0
    best = sign * value(current)
    improvements = 0
    stall = 0
    states = [p.state for p in plans]
    for _ in range(rounds):
        chosen = generator.choice(
            len(states), size=min(rows_per_round, len(states)), replace=False
        )
        candidate = {s: r for s, r in current.items()}
        for idx in chosen:
            candidate[states[int(idx)]] = samplers[int(idx)].next_row(generator)
        score = sign * value(candidate)
        if score > best:
            best = score
            for idx in chosen:
                state = states[int(idx)]
                current[state] = candidate[state]
                # Re-centre the sampler on the accepted row.
                samplers[int(idx)] = _RecentredRow(plans[int(idx)], current[state], config)
            improvements += 1
            stall = 0
        else:
            stall += 1
            if stall >= stall_limit:
                break
    return current, improvements
