"""Candidate space: which rows the random search actually optimises.

The minimisation problem (Equation 10) only involves states visited by
successful traces, and its structure lets several row classes be resolved
without search (Section III-C):

* **constant rows** — every interval in the row is degenerate (e.g. Dirac
  transitions like the absorbing states of Fig. 1): their contribution to
  ``f`` is a fixed offset;
* **pinned rows** — exactly one transition of the row was observed: the
  paper's closed form applies, ``a_ij = max(a⁻_ij, 1 − Σ_{j'≠j} a⁺_ij')``
  for the minimisation (and symmetrically ``min(a⁺_ij, 1 − Σ_{j'≠j}
  a⁻_ij')`` for the maximisation) — no sampling needed;
* **sampled rows** — two or more observed transitions: these are the
  dimensions the Dirichlet random search explores.

A *candidate* is a mapping from sampled states to feasible rows; this module
assembles the corresponding ``log_a`` vectors for the objective (one per
optimisation direction, since pinned values differ between min and max;
the random search scores a block from one shared vector per candidate,
pinned columns zeroed, and forms the directions' vectors only for the
rounds that improve).
A *block* of candidates maps each state to a ``(B, support size)`` array,
one row per round, drawn by one :class:`~repro.imcis.dirichlet.BlockSampler`
call; its ``log_a`` vectors are the rows of ``(B, n_columns)`` matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.imc import IMC
from repro.errors import EstimationError, OptimizationError
from repro.imcis.dirichlet import BlockSampler, DirichletConfig, DirichletRowSampler
from repro.imcis.tables import ObservationTables

#: Row classification tags.
CONSTANT, PINNED, SAMPLED = "constant", "pinned", "sampled"


def _safe_log(value: float) -> float:
    return math.log(value) if value > 0.0 else float("-inf")


@dataclass
class StatePlan:
    """Per-state optimisation plan."""

    state: int
    kind: str
    support: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    center: np.ndarray
    #: Objective columns for this state's observed transitions.
    obs_columns: np.ndarray
    #: Positions of the observed transitions within ``support``.
    obs_positions: np.ndarray
    sampler: DirichletRowSampler | None = None
    #: Pinned per-direction log values (PINNED rows only), aligned with
    #: ``obs_columns``.
    pinned_log_min: np.ndarray | None = None
    pinned_log_max: np.ndarray | None = None


class CandidateSpace:
    """Feasible-candidate generator over an IMC, tied to observation tables.

    Parameters
    ----------
    imc:
        The interval chain ``[Â]``; its ``center`` is the round-0 candidate.
    tables:
        Observed transitions/counts from the IS run.
    dirichlet:
        Row-sampler configuration.
    closed_form_single:
        Apply the paper's closed form to single-observation rows (default).
        When disabled those rows are Dirichlet-sampled like any other.
    """

    def __init__(
        self,
        imc: IMC,
        tables: ObservationTables,
        dirichlet: DirichletConfig = DirichletConfig(),
        closed_form_single: bool = True,
    ):
        self._imc = imc
        self._tables = tables
        self._config = dirichlet
        center_chain = imc.center
        columns_by_state = tables.columns_by_state()

        self.plans: list[StatePlan] = []
        n_cols = tables.n_transitions
        self._base_min = np.zeros(n_cols)
        self._base_max = np.zeros(n_cols)

        for state, cols in sorted(columns_by_state.items()):
            support, lower, upper = imc.row_bounds(state)
            position_of = {int(j): pos for pos, j in enumerate(support)}
            obs_targets = [tables.transitions[c][1] for c in cols]
            missing = [j for j in obs_targets if j not in position_of]
            if missing:
                raise EstimationError(
                    f"transition ({state}, {missing[0]}) was observed in a "
                    "successful trace but is structurally impossible in the IMC"
                )
            obs_positions = np.array([position_of[j] for j in obs_targets], dtype=int)
            obs_columns = np.array(cols, dtype=int)
            center = np.array(
                [center_chain.probability(state, int(j)) for j in support], dtype=float
            )
            widths = upper - lower
            plan = StatePlan(
                state=state,
                kind=CONSTANT,
                support=support,
                lower=lower,
                upper=upper,
                center=center,
                obs_columns=obs_columns,
                obs_positions=obs_positions,
            )
            if support.size < 2 or float(widths.max()) <= dirichlet.width_tolerance:
                # Whole row fixed: contributions are constants (log of the
                # unique feasible value).
                values = center if support.size >= 2 else np.ones(1)
                logs = np.array([_safe_log(float(values[p])) for p in obs_positions])
                self._base_min[obs_columns] = logs
                self._base_max[obs_columns] = logs
            elif closed_form_single and obs_columns.size == 1:
                plan.kind = PINNED
                pos = int(obs_positions[0])
                others = np.arange(support.size) != pos
                a_min = max(float(lower[pos]), 1.0 - float(upper[others].sum()))
                a_max = min(float(upper[pos]), 1.0 - float(lower[others].sum()))
                if a_min > a_max + 1e-12:
                    raise OptimizationError(
                        f"state {state}: closed-form bounds are empty "
                        f"({a_min} > {a_max}); the IMC row is inconsistent"
                    )
                plan.pinned_log_min = np.array([_safe_log(a_min)])
                plan.pinned_log_max = np.array([_safe_log(a_max)])
                self._base_min[obs_columns] = plan.pinned_log_min
                self._base_max[obs_columns] = plan.pinned_log_max
            else:
                plan.kind = SAMPLED
                plan.sampler = DirichletRowSampler(support, center, lower, upper, dirichlet)
            self.plans.append(plan)

        self.sampled_plans = [p for p in self.plans if p.kind == SAMPLED]
        self._pinned_columns = np.concatenate(
            [p.obs_columns for p in self.plans if p.kind == PINNED] + [[]]
        ).astype(int)
        # Constant and pinned logs; the pinned columns, where the two
        # directions differ, zeroed.
        self._base_shared = self._base_min.copy()
        self._base_shared[self._pinned_columns] = 0.0
        self._block = (
            BlockSampler([p.sampler for p in self.sampled_plans]) if self.sampled_plans else None
        )
        # Observed positions within the sampled rows laid end to end, and
        # their objective columns: shared_log_vectors gathers them in one step.
        starts = np.cumsum([0] + [p.support.size for p in self.sampled_plans])
        self._obs_positions = np.concatenate(
            [start + p.obs_positions for start, p in zip(starts, self.sampled_plans)] + [[]]
        ).astype(int)
        self._obs_columns = np.concatenate(
            [p.obs_columns for p in self.sampled_plans] + [[]]
        ).astype(int)

    @property
    def imc(self) -> IMC:
        """The interval chain candidates are drawn from."""
        return self._imc

    @property
    def tables(self) -> ObservationTables:
        """The observation tables the space is tied to."""
        return self._tables

    @property
    def n_sampled_states(self) -> int:
        """Number of states the random search actually explores."""
        return len(self.sampled_plans)

    def center_rows(self) -> dict[int, np.ndarray]:
        """The round-0 candidate: the centre ``Â`` rows of sampled states."""
        return {p.state: p.center.copy() for p in self.sampled_plans}

    @property
    def max_block_rounds(self) -> int:
        """Most rounds one :meth:`sample_rows` block may hold (memory cap)."""
        return self._block.max_rounds if self._block is not None else 1

    @property
    def vectors_drawn(self) -> int:
        """Dirichlet vectors the sampled rows have drawn so far."""
        return sum(p.sampler.stats.drawn for p in self.sampled_plans)

    @property
    def variates_drawn(self) -> int:
        """Gamma variates the sampled rows' Dirichlet vectors have cost so far."""
        return sum(p.sampler.stats.variates for p in self.sampled_plans)

    def sample_rows(self, rng: np.random.Generator, rounds: int) -> dict[int, np.ndarray]:
        """Draw a block of *rounds* candidates.

        Each sampled state maps to a ``(rounds, support size)`` array whose
        rows are the block's rounds.
        """
        if self._block is None:
            return {}
        block = self._block.sample(rng, rounds)
        return {plan.state: rows for plan, rows in zip(self.sampled_plans, block)}

    def shared_log_vectors(self, rows: dict[int, np.ndarray]) -> np.ndarray:
        """The objective vector of a candidate with its pinned columns zeroed.

        Both directions' vectors are this one with their own pinned logs
        filled in (:meth:`directed`). For a block of candidates it is a
        ``(B, n_columns)`` matrix, one row per round.
        """
        if not self.sampled_plans:
            return self._base_shared.copy()
        stacked = np.concatenate([rows[p.state] for p in self.sampled_plans], axis=-1)
        shape = stacked.shape[:-1] + self._base_shared.shape
        shared = np.broadcast_to(self._base_shared, shape).copy()
        with np.errstate(divide="ignore"):
            shared[..., self._obs_columns] = np.log(stacked[..., self._obs_positions])
        return shared

    def directed(self, shared: np.ndarray, direction: str) -> np.ndarray:
        """*shared* (see :meth:`shared_log_vectors`) with the pinned logs of
        *direction* (``"min"`` or ``"max"``) filled in, as a new array."""
        if direction not in ("min", "max"):
            raise OptimizationError("direction must be 'min' or 'max'")
        base = self._base_min if direction == "min" else self._base_max
        vector = shared.copy()
        vector[..., self._pinned_columns] = base[self._pinned_columns]
        return vector

    def log_vectors(self, rows: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the ``(min-variant, max-variant)`` objective vectors.

        The two vectors share the sampled/constant entries and differ only
        on pinned columns. For a block of candidates they are
        ``(B, n_columns)`` matrices, one row per round.
        """
        shared = self.shared_log_vectors(rows)
        return self.directed(shared, "min"), self.directed(shared, "max")

    def pinned_logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(columns, log_min, log_max)`` of the pinned transitions.

        *log_min*/*log_max* are full-length vectors, zero off *columns*: a
        candidate's min- (max-) vector is its shared vector plus *log_min*
        (*log_max*), −inf entries included.
        """
        columns = self._pinned_columns
        log_min = np.zeros_like(self._base_min)
        log_max = np.zeros_like(self._base_max)
        log_min[columns] = self._base_min[columns]
        log_max[columns] = self._base_max[columns]
        return columns, log_min, log_max

    def row_summary(
        self, rows: dict[int, np.ndarray], direction: str
    ) -> dict[tuple[int, int], float]:
        """Transition-probability assignment of a candidate, for reporting.

        Includes sampled rows and the pinned values of *direction*
        (``"min"`` or ``"max"``). Used by the Table I statistics to read
        off ``a_min``/``c_min`` etc.
        """
        if direction not in ("min", "max"):
            raise OptimizationError("direction must be 'min' or 'max'")
        summary: dict[tuple[int, int], float] = {}
        for plan in self.plans:
            if plan.kind == SAMPLED:
                row = rows[plan.state]
                for pos, j in enumerate(plan.support):
                    summary[(plan.state, int(j))] = float(row[pos])
            elif plan.kind == PINNED:
                logs = plan.pinned_log_min if direction == "min" else plan.pinned_log_max
                target = self._tables.transitions[int(plan.obs_columns[0])][1]
                value = math.exp(float(logs[0])) if logs[0] != float("-inf") else 0.0
                summary[(plan.state, target)] = value
        return summary
