"""Monte Carlo random-search optimisation (Algorithm 2).

Starting from ``A_min = A_max = Â``, independent candidates are drawn from
the interval polytope via the Dirichlet samplers; a candidate improving the
running minimum (resp. maximum) of ``f`` replaces it. The search stops when
no candidate has improved either extreme for ``R`` consecutive rounds, or
after ``R_max`` rounds. The paper (§IV-A): the probability that the true
minimum lies below the reported one is then at most ``1/R``, and the method
converges almost surely (Spall 2003, Thm. 2.1).

Rounds are drawn and scored in blocks of ``B`` (at most :data:`BLOCK_ROUNDS`,
``R − undefeated`` and ``R_max − rounds``, and what fits the sampler's
memory cap): one :meth:`CandidateSpace.sample_rows` call draws the block,
one :meth:`ISObjective.log_f` call scores both directions from one product
(they differ by a constant per distinct count row), and the block is then
replayed round by round. Since ``B ≤ R − undefeated``, the stopping rule can only
fire on a block's last round, so every drawn candidate is a real round and
``rounds_to_min``/``rounds_to_max``/``stopped_by`` mean what they mean for
a one-round-at-a-time search.

The per-round improvement history is recorded so the evolution of the
confidence-interval bounds can be plotted (the paper's Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import OptimizationError
from repro.imcis.candidates import CandidateSpace
from repro.imcis.dirichlet import DirichletConfig
from repro.imcis.objective import ISObjective, Moments
from repro.obs import trace as _obs_trace
from repro.util.rng import ensure_rng

#: Most rounds drawn and scored per block.
BLOCK_ROUNDS = 64


@dataclass(frozen=True)
class RandomSearchConfig:
    """Stopping and sampling parameters of Algorithm 2.

    Attributes
    ----------
    r_undefeated:
        ``R`` — consecutive unsuccessful rounds before stopping (the paper's
        experiments use 1000).
    max_rounds:
        ``R_max`` — hard cap on total rounds.
    dirichlet:
        Candidate-row generation tuning (Sections IV-B/C).
    closed_form_single:
        Resolve single-observation rows by the paper's closed form instead
        of sampling them.
    record_history:
        Keep an entry per improvement for Figure-3-style plots.
    refine_rounds:
        Extra *local* search rounds per direction after the global phase,
        recentred on the incumbent extreme (see :mod:`repro.imcis.refine`).
        0 (default) keeps the paper's plain Algorithm 2.
    refine_rows_per_round:
        Rows resampled per refinement round.
    """

    r_undefeated: int = 1000
    max_rounds: int = 100_000
    dirichlet: DirichletConfig = field(default_factory=DirichletConfig)
    closed_form_single: bool = True
    record_history: bool = True
    refine_rounds: int = 0
    refine_rows_per_round: int = 4

    def __post_init__(self) -> None:
        if self.r_undefeated <= 0:
            raise OptimizationError("r_undefeated must be positive")
        if self.max_rounds < self.r_undefeated:
            raise OptimizationError("max_rounds must be at least r_undefeated")
        if self.refine_rounds < 0:
            raise OptimizationError("refine_rounds must be non-negative")


@dataclass(frozen=True)
class HistoryEntry:
    """State of the search after an improving round."""

    round: int
    gamma_min: float
    sigma_min: float
    gamma_max: float
    sigma_max: float


@dataclass
class RandomSearchResult:
    """Outcome of Algorithm 2.

    ``rounds_to_min``/``rounds_to_max`` are the rounds of the last
    improvement of each extreme — the ``nr`` statistics of Table I.
    """

    moments_min: Moments
    moments_max: Moments
    rows_min: dict[int, np.ndarray]
    rows_max: dict[int, np.ndarray]
    log_a_min: np.ndarray
    log_a_max: np.ndarray
    rounds_total: int
    rounds_to_min: int
    rounds_to_max: int
    stopped_by: str
    history: list[HistoryEntry] = field(default_factory=list)

    @property
    def rounds_to_converge(self) -> int:
        """Last round at which either extreme improved (``nr``)."""
        return max(self.rounds_to_min, self.rounds_to_max)


def random_search(
    objective: ISObjective,
    space: CandidateSpace,
    rng: np.random.Generator | int | None = None,
    config: RandomSearchConfig = RandomSearchConfig(),
) -> RandomSearchResult:
    """Run Algorithm 2 over *space*, optimising *objective* both ways."""
    generator = ensure_rng(rng)

    center_rows = space.center_rows()
    log_min_vec, log_max_vec = space.log_vectors(center_rows)
    best_min = objective.log_f(log_min_vec)
    best_max = objective.log_f(log_max_vec)
    rows_min = {s: r.copy() for s, r in center_rows.items()}
    rows_max = {s: r.copy() for s, r in center_rows.items()}
    best_min_vec = log_min_vec
    best_max_vec = log_max_vec

    history: list[HistoryEntry] = []

    def record(round_index: int) -> None:
        if not config.record_history:
            return
        m_min = objective.moments(best_min_vec)
        m_max = objective.moments(best_max_vec)
        history.append(
            HistoryEntry(round_index, m_min.gamma, m_min.sigma, m_max.gamma, m_max.sigma)
        )

    record(0)

    undefeated = 0
    rounds = 0
    rounds_to_min = 0
    rounds_to_max = 0
    stopped_by = "r_undefeated"
    if space.n_sampled_states == 0:
        # Nothing to search: constants and pinned rows fully determine the
        # extremes (e.g. every visited state saw a single transition).
        stopped_by = "no-free-rows"
    else:
        # Both directions from one product: the min- and max-vectors differ
        # only on pinned columns, whose terms are a constant per distinct
        # count row of each direction (−inf for a row through a pinned 0).
        pinned, pinned_min, pinned_max = space.pinned_logs()
        offsets = np.stack([objective.log_ratio_shift(v) for v in (pinned_min, pinned_max)])
        while undefeated < config.r_undefeated:
            if rounds >= config.max_rounds:
                stopped_by = "max_rounds"
                break
            block = min(
                BLOCK_ROUNDS,
                config.r_undefeated - undefeated,
                config.max_rounds - rounds,
                space.max_block_rounds,
            )
            with _obs_trace.span("candidate-sample", rounds=block) as span:
                drawn, variates = space.vectors_drawn, space.variates_drawn
                candidates = space.sample_rows(generator, block)
                cand_min, cand_max = space.log_vectors(candidates)
                span.annotate(
                    vectors=space.vectors_drawn - drawn,
                    variates=space.variates_drawn - variates,
                )
            with _obs_trace.span("objective", rounds=block):
                shared = cand_min.copy()
                shared[:, pinned] = 0.0
                values_min, values_max = objective.log_f(shared, offsets)
            for i in range(block):
                rounds += 1
                improved = False
                if values_min[i] < best_min:
                    best_min = values_min[i]
                    best_min_vec = cand_min[i]
                    rows_min = {s: r[i].copy() for s, r in candidates.items()}
                    rounds_to_min = rounds
                    improved = True
                if values_max[i] > best_max:
                    best_max = values_max[i]
                    best_max_vec = cand_max[i]
                    rows_max = {s: r[i].copy() for s, r in candidates.items()}
                    rounds_to_max = rounds
                    improved = True
                if improved:
                    undefeated = 0
                    record(rounds)
                else:
                    undefeated += 1

    if config.refine_rounds > 0 and space.n_sampled_states > 0:
        from repro.imcis.refine import refine_extreme

        rows_min, accepted_min = refine_extreme(
            objective,
            space,
            rows_min,
            "min",
            config.refine_rounds,
            generator,
            rows_per_round=config.refine_rows_per_round,
        )
        rows_max, accepted_max = refine_extreme(
            objective,
            space,
            rows_max,
            "max",
            config.refine_rounds,
            generator,
            rows_per_round=config.refine_rows_per_round,
        )
        base_min, _ = space.log_vectors(rows_min)
        _, base_max = space.log_vectors(rows_max)
        best_min_vec, best_max_vec = base_min, base_max
        rounds += config.refine_rounds
        if accepted_min or accepted_max:
            record(rounds)

    moments_min = objective.moments(best_min_vec)
    moments_max = objective.moments(best_max_vec)
    if config.record_history and (not history or history[-1].round != rounds):
        history.append(
            HistoryEntry(
                rounds, moments_min.gamma, moments_min.sigma, moments_max.gamma, moments_max.sigma
            )
        )
    return RandomSearchResult(
        moments_min=moments_min,
        moments_max=moments_max,
        rows_min=rows_min,
        rows_max=rows_max,
        log_a_min=best_min_vec,
        log_a_max=best_max_vec,
        rounds_total=rounds,
        rounds_to_min=rounds_to_min,
        rounds_to_max=rounds_to_max,
        stopped_by=stopped_by,
        history=history,
    )
