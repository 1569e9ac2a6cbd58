"""Dirichlet generation of candidate DTMCs inside the IMC (Sections IV-B/C).

A candidate row for state ``s_i`` must be a probability distribution lying
entrywise in ``[â_i − ε_i, â_i + ε_i]``. Uniform per-coordinate sampling
followed by normalisation would almost never satisfy the constraints; the
paper instead draws the whole row from a Dirichlet distribution centred on
``â_i`` whose concentration ``K_i`` is tuned so every coordinate's standard
deviation is slightly *above* its margin ``ε_ij``:

    K_ij = â_ij (1 − â_ij) / ε_ij² − 1,      K_i = min_j K_ij,

then rejects rows falling outside the box (Algorithm 2, lines 5–11). Two
§IV-C refinements are implemented:

* ``λ``-inflation — after a run of rejections, multiply ``K_i`` by
  ``λ = 1.1``: shrinks all coordinate variances while preserving relative
  means, raising the acceptance rate on wide rows (§IV-C-1). The inflation
  state is *persistent across calls* (and decays slowly on success), so a
  row that needs inflation learns it once instead of rediscovering it for
  every candidate;
* two-scale split — coordinates whose ``K_ij`` is orders of magnitude above
  the row minimum would get far too much variance under ``K_i = min``;
  they are sampled *uniformly* on their consistent interval first, and the
  remaining coordinates conditionally via a rescaled Dirichlet with

    K_i = min_j' ( m_j'(β − m_j') / ε_j'² − 1 ) / β,

  where ``β`` is the leftover mass and ``m_j'`` the conditional means
  (§IV-C-2 — note the paper's displayed formula drops the leading ``m_j'``
  factor; the version here is the one its own derivation (Eq. 12) gives).

Block draws
-----------
Every draw goes through one kernel, :class:`BlockSampler`, which samples
a *block* of ``B`` rounds for a fixed list of rows at once; a single row
(:meth:`DirichletRowSampler.sample`) is a block of one round of one row.
The candidate law is the per-row one above: each ``(round, row)`` pair is
``budget · Dirichlet(K·k_scale·â)`` truncated to the box, the budget left
by the fixed and (two-scale) uniform coordinates. The RNG contract of a
block, which fixes every result given the generator's state:

* rows are grouped by the size ``k`` of their Dirichlet group, groups in
  ascending ``k``; rows whose group is a single coordinate are determined
  by their bounds and consume no randomness;
* a group draws in *passes*. Pass 0 covers every ``(row, round)`` pair,
  each later pass only the pairs with no candidate yet, in row-major
  order. A pass makes one ``rng.random`` call per uniform-coordinate
  position that some pending row has (two-scale rows only), then its
  Dirichlet vectors: in an unscreened group one ``rng.standard_gamma``
  call whose shape array is laid out ``(k, vectors)``, pool after pool,
  normalised like ``rng.dirichlet``; in a screened group two calls;
* a group of ``k ≥ 4`` is *screened* when that saves at least one gamma
  variate per vector. Once per group, each row's coordinates are ordered
  by their exact Beta marginal chance of lying in the box at the nominal
  ``K``, least likely first, and the screen size ``t`` is the one that
  minimises the group's expected variates per vector. Stage 1 draws,
  for every vector of the pass, the ``t`` first coordinates and the
  rest's total (shapes ``α_1 … α_t, Σα_rest``, laid out ``(t + 1,
  vectors)``), normalises them to the budget, and tests the ``t``
  coordinates against their box and the total against the sum of the
  rest's bounds, widened by ``(k − t)`` box tolerances and a rounding
  margin, so that no vector inside the box fails. Stage 2 splits the
  rest of the survivors, in draw order (shapes ``α_rest``, laid out
  ``(k − t, survivors)``), and tests those coordinates against the box.
  By the aggregation property of the Dirichlet law a survivor is an
  unscreened draw, and a vector rejected in stage 1 costs ``t + 1``
  variates instead of ``k``;
* a *pool* is the pending pairs of one non-split row (every pass charges
  them alike, so they share one escalation level), or one pending pair
  of a two-scale row (its box depends on its own uniform-stage budget).
  A non-split pool of ``m`` pairs draws ``min(⌈1.25·m/p̂⌉,
  batch_size·m)`` vectors (:data:`_DRAW_MARGIN`), where ``p̂ = (in_box +
  1)/(drawn + batch_size)`` over the row's earlier passes
  (:class:`RowSampleStats`; a row with no history draws a full batch per
  pair). A two-scale pool always draws ``batch_size`` vectors: its
  uniform coordinates are redrawn every pass and accepted with the
  chance that one of the pass's vectors lands in the box, so a count
  that followed the row's history would change their law. A pool draws
  nothing when its uniform stage left an empty interval;
* the pool's vectors inside the box (``±1e-12``), in draw order, are the
  candidates of its pending rounds in round order. Each pair left
  unserved is charged ``vectors/m`` rejections. After every
  ``inflate_after × batch_size`` rejections of a pair its concentration
  is multiplied by ``λ`` for its later passes; once a pending pair has
  ``max_attempts`` rejections the block gives up;
* a pool serves its early rounds first, so its late rounds are the ones
  that wait for escalated concentrations. When some pair of the group
  escalated, one ``rng.random((rows, B))`` call shuffles each row's
  rounds (argsort of the keys), which gives every round position the
  same law;
* ``k_scale`` is per-row state, updated once per block: ``×λ`` for each
  ``inflate_after × batch_size`` rejections of each pair and ``×decay``
  per accepted pair, but rising no more than ``×λ`` per escalation of
  the block's most-escalated pair; floored at 1. A block of one round is
  exactly the per-draw rule.

At a fixed concentration a pool's in-box vectors are i.i.d. draws of the
truncated law, so pooling changes the RNG stream, not the law. A pass
draws at most ``batch_size`` vectors per pending pair, so a block's draw
array is capped at :data:`BLOCK_BYTES`; callers ask
:attr:`BlockSampler.max_rounds` how many rounds fit. A pass also expands
the Dirichlet shapes and one box bound at a time to the draw array's
size, so its peak memory is about 2.5 times the draw array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betainc

from repro.errors import OptimizationError
from repro.obs import metrics as _obs_metrics

#: Largest Dirichlet draw array of one block; ``B`` shrinks to fit. A pass's
#: peak memory is about 2.5 times this (the expanded shapes, then one expanded
#: box bound, next to the draws).
BLOCK_BYTES = 2 << 20
#: Box tolerance of the feasibility test.
_BOX_TOLERANCE = 1e-12
#: Machine epsilon, the unit of the screen's rounding margin.
_EPS = float(np.finfo(float).eps)
#: A pool of ``m`` pending pairs draws ``⌈margin·m/p̂⌉`` vectors (capped at
#: ``batch_size`` per pair), ``p̂`` its row's acceptance estimate.
_DRAW_MARGIN = 1.25
#: Slack on the fractional per-pair vector charges of pooled passes.
_CHARGE_TOLERANCE = 1e-9

# Always on, one add per row group and block (never touches the RNG).
_METRIC_VECTORS = _obs_metrics.registry().counter(
    "repro_dirichlet_vectors_total",
    "Dirichlet vectors drawn by the IMCIS candidate sampler.",
)
_METRIC_ACCEPTED = _obs_metrics.registry().counter(
    "repro_dirichlet_accepted_total",
    "Dirichlet vectors accepted as IMCIS candidate rows.",
)
_METRIC_VARIATES = _obs_metrics.registry().counter(
    "repro_dirichlet_variates_total",
    "Gamma variates drawn by the IMCIS candidate sampler.",
)


@dataclass(frozen=True)
class DirichletConfig:
    """Tuning knobs for candidate-row generation.

    Attributes
    ----------
    k_strategy:
        How ``K_i`` aggregates the per-coordinate ``K_ij``: ``"min"``
        (the paper's choice), ``"mean"`` or ``"median"`` (§IV-C-2 mentions
        both as alternatives).
    outlier_ratio:
        Coordinates with ``K_ij > outlier_ratio × min K_ij`` are handled by
        the two-scale split. ``inf`` disables the split.
    inflation:
        The ``λ`` of §IV-C-1.
    inflate_after:
        Rejected *batches* before ``K`` is inflated: a round's
        concentration rises by ``λ`` after every ``inflate_after ×
        batch_size`` vectors its passes drew without serving it.
    decay:
        Multiplicative decay of the learnt inflation after each accepted
        row (drifts back towards the paper's nominal ``K_i``).
    batch_size:
        Most Dirichlet vectors a pass draws per pending round; a row with
        no acceptance history draws exactly this, later passes draw what
        the row's acceptance rate needs. Also the unit of
        ``inflate_after`` and of the :data:`BLOCK_BYTES` bound.
    max_attempts:
        Hard cap on the vectors drawn for one round without serving it.
    width_tolerance:
        Interval half-widths at or below this are treated as exact values.
    min_k:
        Lower clamp on ``K_i`` (guards against huge margins).
    alpha_floor:
        Floor on Dirichlet parameters (guards against zero centre values).
    """

    k_strategy: str = "min"
    outlier_ratio: float = 100.0
    inflation: float = 1.1
    inflate_after: int = 4
    decay: float = 0.995
    batch_size: int = 16
    max_attempts: int = 1_000_000
    width_tolerance: float = 1e-12
    min_k: float = 1.0
    alpha_floor: float = 1e-8

    def __post_init__(self) -> None:
        if self.k_strategy not in ("min", "mean", "median"):
            raise OptimizationError(f"unknown k_strategy {self.k_strategy!r}")
        if self.inflation <= 1.0:
            raise OptimizationError("inflation must exceed 1")
        if self.outlier_ratio <= 1.0:
            raise OptimizationError("outlier_ratio must exceed 1")
        if not 0.0 < self.decay <= 1.0:
            raise OptimizationError("decay must be in (0, 1]")
        if self.batch_size <= 0:
            raise OptimizationError("batch_size must be positive")


def aggregate_k(values: np.ndarray, strategy: str, axis: int | None = None):
    """Combine per-coordinate concentrations into ``K_i`` (along *axis*)."""
    if strategy == "min":
        result = np.min(values, axis=axis)
    elif strategy == "mean":
        result = np.mean(values, axis=axis)
    else:
        result = np.median(values, axis=axis)
    return float(result) if axis is None else result


@dataclass
class RowSampleStats:
    """Diagnostics accumulated across draws of one row.

    ``drawn`` and ``in_box`` (Dirichlet vectors drawn, and of those inside
    the box) also give the acceptance estimate that sizes the row's passes.
    ``rejections`` are the vectors charged to rounds by passes that did
    not serve them, ``variates`` the gamma variates the row's vectors cost.
    """

    samples: int = 0
    rejections: int = 0
    inflations: int = 0
    drawn: int = 0
    in_box: int = 0
    variates: int = 0


class DirichletRowSampler:
    """Samples one state's candidate row within its interval constraints.

    Parameters
    ----------
    support:
        Indices of the structurally possible successors (for reporting).
    center:
        The row of ``Â`` restricted to the support (``â_i``); must sum to 1.
    lower, upper:
        Interval bounds aligned with *support*.
    config:
        Tuning knobs; see :class:`DirichletConfig`.
    """

    def __init__(
        self,
        support: np.ndarray,
        center: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        config: DirichletConfig = DirichletConfig(),
    ):
        self.support = np.asarray(support, dtype=int)
        self.center = np.asarray(center, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.config = config
        self.stats = RowSampleStats()
        size = self.support.size
        if not (self.center.size == self.lower.size == self.upper.size == size):
            raise OptimizationError("support/center/bound sizes differ")
        if size < 2:
            raise OptimizationError(
                "rows with fewer than two possible successors are constants — "
                "handle them outside the sampler"
            )
        if abs(float(self.center.sum()) - 1.0) > 1e-6:
            raise OptimizationError("the centre row must be a probability distribution")

        widths = (self.upper - self.lower) / 2.0
        self._fixed = widths <= config.width_tolerance
        free = ~self._fixed
        if not np.any(free):
            raise OptimizationError("all coordinates are fixed — row is a constant")
        free_idx = np.flatnonzero(free)
        eps_free = np.maximum(widths[free_idx], config.width_tolerance)
        centre_free = self.center[free_idx]
        k_values = centre_free * (1.0 - centre_free) / eps_free**2 - 1.0
        k_values = np.maximum(k_values, config.min_k)
        k_min = float(k_values.min())
        outlier = k_values > config.outlier_ratio * k_min
        if np.count_nonzero(~outlier) < 2:
            # The split needs at least two Dirichlet coordinates left over.
            outlier = np.zeros_like(outlier)
        self._uniform_idx = free_idx[outlier]
        if self._uniform_idx.size:
            order = np.argsort(-k_values[outlier])
            self._uniform_idx = self._uniform_idx[order]
        self._group = free_idx[~outlier]
        self._group_eps = eps_free[~outlier]
        self._group_centre = centre_free[~outlier]
        if float(self._group_centre.sum()) <= 0.0:
            self._group_centre = np.full(self._group.size, 1.0 / self._group.size)
        self._base_k = aggregate_k(k_values[~outlier], config.k_strategy)
        self._fixed_mass = float(self.center[self._fixed].sum())
        # Bounds on the mass of everything after each uniform coordinate
        # (the later uniform coordinates, then the Dirichlet group).
        lower_u, upper_u = self.lower[self._uniform_idx], self.upper[self._uniform_idx]
        self._rest_lo = lower_u[::-1].cumsum()[::-1] - lower_u + self.lower[self._group].sum()
        self._rest_up = upper_u[::-1].cumsum()[::-1] - upper_u + self.upper[self._group].sum()
        #: Learnt inflation multiplier (persists across calls, decays back).
        self._k_scale = 1.0
        self._block: BlockSampler | None = None

    @property
    def uses_two_scale_split(self) -> bool:
        """True when some coordinates are uniform-sampled (§IV-C-2)."""
        return self._uniform_idx.size > 0

    @property
    def concentration(self) -> float:
        """The (unconditional) aggregate ``K_i`` of the Dirichlet group."""
        return self._base_k

    @property
    def k_scale(self) -> float:
        """Current learnt λ-inflation multiplier."""
        return self._k_scale

    def center_row(self) -> np.ndarray:
        """The centre row ``â_i`` (the round-0 candidate of Algorithm 2)."""
        return self.center.copy()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one feasible candidate row (aligned with ``support``): a block of one."""
        if self._block is None:
            self._block = BlockSampler([self])
        return self._block.sample(rng, 1)[0][0]


class _RowGroup:
    """Rows whose Dirichlet group has the same size ``k``, stacked.

    In a screened group (``screen = t > 0``) each row's coordinates are
    permuted so that its ``t`` least-likely-in-box ones come first; the
    ``columns`` scatter of :meth:`draw` puts them back.
    """

    def __init__(self, samplers: "list[DirichletRowSampler]", offsets: np.ndarray):
        self.samplers = samplers
        first = samplers[0]
        self.k = first._group.size
        self.config = first.config
        self.centre = np.array([s._group_centre for s in samplers])
        self.total = self.centre.sum(axis=1)
        self.eps2 = np.array([s._group_eps for s in samplers]) ** 2
        self.lower = np.array([s.lower[s._group] for s in samplers])
        self.upper = np.array([s.upper[s._group] for s in samplers])
        self.base_k = np.array([s._base_k for s in samplers])
        self.columns = np.array([o + s._group for s, o in zip(samplers, offsets)])
        self.screen, order = self._plan_screen()
        if self.screen:
            for name in ("centre", "eps2", "lower", "upper", "columns"):
                setattr(self, name, np.take_along_axis(getattr(self, name), order, axis=1))
        # Box bounds laid out (k, rows), like a pass's draws.
        self.box_lower_t = np.ascontiguousarray((self.lower - _BOX_TOLERANCE).T)
        self.box_upper_t = np.ascontiguousarray((self.upper + _BOX_TOLERANCE).T)
        if self.screen:
            # The screen: the first t coordinates' own bounds, then the rest's
            # total widened by its coordinates' tolerances and a rounding margin,
            # so that no vector inside the box fails it.
            t, rest = self.screen, self.k - self.screen
            up_sum = self.upper[:, t:].sum(axis=1)
            margin = rest * _BOX_TOLERANCE + 4.0 * (self.k + 2) * _EPS * (1.0 + up_sum)
            self.screen_lower_t = np.vstack(
                [self.box_lower_t[:t], self.lower[:, t:].sum(axis=1) - margin]
            )
            self.screen_upper_t = np.vstack([self.box_upper_t[:t], up_sum + margin])
        self.budget = np.array([1.0 - s._fixed_mass for s in samplers])
        self.split = np.array([s.uses_two_scale_split for s in samplers])
        self.any_split = bool(self.split.any())
        # Uniform coordinates, padded to the widest row of the group.
        self.n_uniform = np.array([s._uniform_idx.size for s in samplers])
        width = int(self.n_uniform.max())

        def pad(values):
            padded = np.zeros((len(samplers), width))
            for row, v in zip(padded, values):
                row[: v.size] = v
            return padded

        self.uni_lo = pad([s.lower[s._uniform_idx] for s in samplers])
        self.uni_up = pad([s.upper[s._uniform_idx] for s in samplers])
        self.rest_lo = pad([s._rest_lo for s in samplers])
        self.rest_up = pad([s._rest_up for s in samplers])
        self.uni_valid = np.arange(width) < self.n_uniform[:, None]
        uni_cols = [o + s._uniform_idx for s, o in zip(samplers, offsets)]
        self.uni_columns = np.concatenate(uni_cols) if width else np.empty(0, dtype=int)

    def _plan_screen(self) -> "tuple[int, np.ndarray | None]":
        """The screen size ``t`` and each row's coordinate order (least likely
        in the box first), or ``(0, None)`` when no ``t`` saves a variate
        per vector.

        A coordinate's chance of lying in its box is its exact Beta marginal
        under ``Dirichlet(K·â)`` at the nominal ``K``; a vector passes a
        screen of ``t`` with roughly the product of the ``t`` first
        coordinates' chances and the rest's, so it costs ``t + 1 + (k −
        t)·q(t)`` variates against ``k`` unscreened. ``t`` minimises the
        group's mean cost.
        """
        k = self.k
        if k < 4:  # a screen costs t + 1 variates: only k ≥ 4 can save one
            return 0, None
        alpha = np.maximum(self.base_k[:, None] * self.centre, self.config.alpha_floor)
        total = alpha.sum(axis=1, keepdims=True)
        mass = self.total[:, None]  # a row's Dirichlet budget without uniform coordinates

        def in_box(shape, lower, upper):
            # A sum of coordinates with Dirichlet weight *shape* is Beta(shape, total − shape).
            beta = np.maximum(total - shape, self.config.alpha_floor)
            low, high = (
                betainc(shape, beta, np.clip(bound / mass, 0.0, 1.0))
                for bound in (lower, upper)
            )
            return high - low

        chance = in_box(alpha, self.lower, self.upper)
        order = np.argsort(chance, axis=1, kind="stable")
        alpha, lower, upper, chance = (
            np.take_along_axis(v, order, axis=1) for v in (alpha, self.lower, self.upper, chance)
        )

        def rest(values):
            # Each row's sum of its coordinates from position t on, t = 1, …, k − 2.
            return values[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1 : k - 1]

        head = np.cumprod(chance, axis=1)[:, : k - 2]
        passes = head * in_box(rest(alpha), rest(lower), rest(upper))
        screens = np.arange(1, k - 1)
        cost = screens + 1 + (k - screens) * passes.mean(axis=0)
        best = int(np.argmin(cost))
        if k - cost[best] < 1.0:
            return 0, None
        return int(screens[best]), order

    def draw(self, rng: np.random.Generator, rounds: int, out: np.ndarray) -> None:
        """Fill this group's columns of the ``(rounds, ·)`` block *out*."""
        cfg = self.config
        n, k = len(self.samplers), self.k
        pairs = n * rounds
        values = np.empty((pairs, k))
        uniform = np.zeros((pairs, self.uni_lo.shape[1]))
        # Vectors charged to each pair by the passes that did not serve it.
        rejected = np.zeros(pairs)
        k_scale = np.array([s._k_scale for s in self.samplers])
        # Each row's vectors drawn, vectors in the box and gamma variates,
        # this block included.
        tally = np.array(
            [[s.stats.drawn, s.stats.in_box, s.stats.variates] for s in self.samplers], dtype=float
        ).T
        pending = np.arange(pairs)
        give_up = False
        while pending.size:
            if give_up or rejected[pending].max() >= cfg.max_attempts - _CHARGE_TOLERANCE:
                self._record(rejected.reshape(n, rounds), tally, pairs - pending.size)
                raise OptimizationError(
                    f"could not sample a feasible row after {cfg.max_attempts} attempts "
                    f"(Dirichlet group size {k}); the interval constraints may be "
                    "nearly degenerate — consider raising max_attempts"
                )
            rows = pending // rounds
            budget, ok = self._uniform_stage(rng, rows, pending, uniform)
            if k == 1:
                # One free coordinate and no split: the leftover mass is the
                # value, so a miss now misses on every attempt.
                lo, up = self.lower[rows, 0], self.upper[rows, 0]
                hit = (budget >= lo - _BOX_TOLERANCE) & (budget <= up + _BOX_TOLERANCE)
                values[pending, 0] = np.minimum(np.maximum(budget, lo), up)
                charge = np.full(rows.size, float(cfg.batch_size))
                give_up = not hit.all()
            else:
                hit, charge = self._dirichlet_stage(
                    rng, rows, budget, ok, k_scale, rejected[pending], values, pending, tally
                )
            rejected[pending[~hit]] += charge[~hit]
            pending = pending[~hit]
        if self._levels(rejected).any():
            # A pool serves its early rounds first, so its late rounds wait
            # for the escalated concentrations: shuffle each row's rounds so
            # that every round position has the same law.
            order = np.argsort(rng.random((n, rounds)), axis=1)
            pick = (order + rounds * np.arange(n)[:, None]).ravel()
            values, uniform = values[pick], uniform[pick]
        self._record(rejected.reshape(n, rounds), tally, pairs, k_scale)
        # Scatter back: pair (row r, round b) fills out[b, columns[r]].
        out[:, self.columns.ravel()] = values.reshape(n, rounds, k).transpose(1, 0, 2).reshape(
            rounds, n * k
        )
        if self.uni_columns.size:
            per_round = uniform.reshape(n, rounds, -1).transpose(1, 0, 2)
            out[:, self.uni_columns] = per_round[:, self.uni_valid]

    def _levels(self, rejected: np.ndarray) -> np.ndarray:
        """Escalations of pairs charged *rejected* vectors, one per
        ``inflate_after × batch_size``."""
        cfg = self.config
        return np.floor(rejected / (cfg.inflate_after * cfg.batch_size) + _CHARGE_TOLERANCE)

    def _uniform_stage(self, rng, rows, pending, uniform):
        """Two-scale uniform coordinates of the pending pairs; (budget, ok)."""
        budget = self.budget[rows]
        ok = np.ones(rows.size, dtype=bool)
        for position in range(uniform.shape[1]):
            active = np.flatnonzero(self.n_uniform[rows] > position)
            if not active.size:
                break
            r = rows[active]
            left = budget[active]
            low = np.maximum(self.uni_lo[r, position], left - self.rest_up[r, position])
            high = np.minimum(self.uni_up[r, position], left - self.rest_lo[r, position])
            ok[active] &= low <= high
            value = low + (high - low) * rng.random(active.size)
            uniform[pending[active], position] = value
            budget[active] = left - value
        return budget, ok

    def _dirichlet_stage(self, rng, rows, budget, ok, k_scale, rejected, values, pending, tally):
        """One pooled pass over the pending pairs; (served mask, vectors charged)."""
        cfg = self.config
        # Pools: the pending pairs of one non-split row (charged alike on
        # every pass, so at one escalation level), or one pair of a
        # two-scale row (its own budget). Pairs are row-major, so a pool is
        # a run of them in round order.
        starts = np.ones(rows.size, dtype=bool)
        starts[1:] = (rows[1:] != rows[:-1]) | self.split[rows[1:]]
        first = np.flatnonzero(starts)
        size = np.diff(np.append(first, rows.size))
        pool_rows = rows[first]
        left = budget[first]
        pool_ok = ok[first] & (left > 0.0)
        k_nominal = self.base_k[pool_rows]
        if self.any_split:
            s = np.flatnonzero(self.split[pool_rows] & pool_ok)
            r = pool_rows[s]
            means = left[s, None] * self.centre[r] / self.total[r, None]
            k_values = (
                means * np.maximum(left[s, None] - means, 1e-15) / self.eps2[r] - 1.0
            ) / left[s, None]
            k_split = aggregate_k(np.maximum(k_values, cfg.min_k), cfg.k_strategy, axis=1)
            k_nominal = k_nominal.copy()
            k_nominal[s] = np.maximum(k_split, cfg.min_k)
        concentration = k_nominal * k_scale[pool_rows] * cfg.inflation ** self._levels(
            rejected[first]
        )
        # Size each pool by its row's acceptance rate, a full batch per pair
        # at most. A two-scale pair redraws its uniform coordinates each
        # pass, so it draws a full batch: a pass sized by the row's history
        # would change their law.
        drawn, in_box, variates = tally
        rate = (in_box[pool_rows] + 1.0) / (drawn[pool_rows] + cfg.batch_size)
        count = np.minimum(np.ceil(_DRAW_MARGIN * size / rate), cfg.batch_size * size)
        count[self.split[pool_rows]] = cfg.batch_size
        charge = np.repeat(count / size, size)
        count = np.where(pool_ok, count, 0.0).astype(np.intp)
        alpha = np.maximum(concentration * self.centre[pool_rows].T, cfg.alpha_floor)
        pool_of = np.repeat(np.arange(first.size), count)
        hits, in_box_draws, cost = self._in_box_vectors(rng, alpha, count, left, pool_of, pool_rows)
        # A pool's in-box vectors, in draw order, serve its rounds in order.
        hit_pool = pool_of[hits]
        found = np.bincount(hit_pool, minlength=first.size)
        rank = np.arange(hits.size) - (np.cumsum(found) - found)[hit_pool]
        use = rank < size[hit_pool]
        served = first[hit_pool[use]] + rank[use]
        values[pending[served]] = in_box_draws[:, use].T
        hit = np.zeros(rows.size, dtype=bool)
        hit[served] = True
        drawn += np.bincount(pool_rows, weights=count, minlength=drawn.size)
        in_box += np.bincount(pool_rows, weights=found, minlength=in_box.size)
        variates += np.bincount(pool_rows, weights=cost, minlength=variates.size)
        return hit, charge

    def _in_box_vectors(self, rng, alpha, count, left, pool_of, pool_rows):
        """Draw one pass's vectors, ``count[p]`` of pool ``p`` (shapes
        ``alpha[:, p]``, budget ``left[p]``, row ``pool_rows[p]``); *pool_of*
        is each vector's pool.

        Returns the in-box vectors' indices in draw order, those vectors laid
        out ``(k, hits)``, and each pool's gamma variates. Draws are laid out
        ``(coordinates, vectors)``, so each coordinate's box test reads one
        contiguous row.
        """
        vector_rows = pool_rows[pool_of]
        t = self.screen
        if t:
            # Stage 1: the t screened coordinates and the rest's total (the
            # Dirichlet aggregation property), tested against the screen.
            lead = rng.standard_gamma(
                np.repeat(np.vstack([alpha[:t], alpha[t:].sum(axis=0)]), count, axis=1)
            )
            lead *= np.repeat(left, count) / lead.sum(axis=0)
            candidates = np.flatnonzero(self._screened(lead, vector_rows))
            # Stage 2: each survivor splits its rest by Dirichlet(α_rest); the
            # screen already tested the first t coordinates.
            tail = rng.standard_gamma(np.take(alpha[t:], pool_of[candidates], axis=1))
            tail *= lead[t, candidates] / tail.sum(axis=0)
            box_rows = vector_rows[candidates]
            inside = tail >= np.take(self.box_lower_t[t:], box_rows, axis=1)
            inside &= tail <= np.take(self.box_upper_t[t:], box_rows, axis=1)
            keep = np.flatnonzero(inside.all(axis=0))
            hits = candidates[keep]
            in_box_draws = np.concatenate(
                [np.take(lead[:t], hits, axis=1), np.take(tail, keep, axis=1)]
            )
            cost = (t + 1) * count + (self.k - t) * np.bincount(
                pool_of[candidates], minlength=count.size
            )
        else:
            draws = rng.standard_gamma(np.repeat(alpha, count, axis=1))
            # inf/nan where the gammas underflowed: never inside the box.
            draws *= np.repeat(left, count) / draws.sum(axis=0)
            # Expand one bound at a time: the pass's peak stays near 2.5x the draws.
            inside = draws >= np.take(self.box_lower_t, vector_rows, axis=1)
            inside &= draws <= np.take(self.box_upper_t, vector_rows, axis=1)
            hits = np.flatnonzero(inside.all(axis=0))
            in_box_draws = np.take(draws, hits, axis=1)
            cost = self.k * count
        return hits, in_box_draws, cost

    def _screened(self, lead: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Which stage-1 vectors pass the screen.

        *lead* is ``(t + 1, vectors)``: the ``t`` screened coordinates, then
        the rest's total; *rows* is each vector's row. A vector inside the
        box always passes.
        """
        passed = lead >= np.take(self.screen_lower_t, rows, axis=1)
        passed &= lead <= np.take(self.screen_upper_t, rows, axis=1)
        return passed.all(axis=0)

    def _record(
        self,
        rejected: np.ndarray,
        tally: np.ndarray,
        served: int,
        k_scale: np.ndarray | None = None,
    ) -> None:
        """Diagnostics of each row and, for a completed block, its ``k_scale``.

        *rejected* is ``(rows, rounds)``, the vectors charged to each pair
        by the passes that did not serve it; a pair escalated ``e`` times,
        once per ``inflate_after × batch_size`` of them. *tally* holds
        each row's totals of vectors drawn, vectors in the box and gamma
        variates, *served* the block's pairs
        that got a candidate. The row's ``k_scale`` takes
        ``×λ^Σe·decay^B``, the per-draw rule summed over the block, but
        rises no further than ``×λ^max e``: every pair of a block escalated
        from the same start, so their sum would compound (``k_scale`` went
        past 1e15 within three blocks on swat's 12-successor rows). A block
        given up on (no *k_scale*) counts its rejections, vectors and variates only.
        """
        cfg = self.config
        escalations = self._levels(rejected).astype(np.int64)
        rounds = rejected.shape[1]
        if k_scale is not None:
            log_lambda = math.log(cfg.inflation)
            drift = escalations.sum(axis=1) * log_lambda + rounds * math.log(cfg.decay)
            gain = np.minimum(drift, escalations.max(axis=1) * log_lambda)
            for sampler, scale in zip(self.samplers, np.maximum(1.0, k_scale * np.exp(gain))):
                sampler._k_scale = float(scale)
                sampler.stats.samples += rounds
        vectors = variates = 0
        for sampler, charged, inflated, (total, fits, cost) in zip(
            self.samplers, rejected.sum(axis=1), escalations.sum(axis=1), tally.T.astype(np.int64)
        ):
            stats = sampler.stats
            stats.rejections += round(charged)
            stats.inflations += int(inflated)
            vectors += int(total) - stats.drawn
            variates += int(cost) - stats.variates
            stats.drawn, stats.in_box, stats.variates = int(total), int(fits), int(cost)
        if self.k > 1:
            _METRIC_VECTORS.inc(vectors)
            _METRIC_ACCEPTED.inc(served)
            _METRIC_VARIATES.inc(variates)


class BlockSampler:
    """The block kernel: draws ``B`` rounds of every row of a fixed list.

    Parameters
    ----------
    samplers:
        The rows, sharing one :class:`DirichletConfig`. Their ``k_scale``
        and :class:`RowSampleStats` are updated by every block.
    """

    def __init__(self, samplers: Sequence[DirichletRowSampler]):
        self.samplers = list(samplers)
        if not self.samplers:
            raise OptimizationError("a block needs at least one row")
        config = self.samplers[0].config
        sizes = [s.support.size for s in self.samplers]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])
        by_k: "dict[int, list[int]]" = {}
        for index, sampler in enumerate(self.samplers):
            by_k.setdefault(sampler._group.size, []).append(index)
        self._groups = [
            _RowGroup([self.samplers[i] for i in members], self._offsets[members])
            for _, members in sorted(by_k.items())
        ]
        self._fixed_columns = np.concatenate(
            [o + np.flatnonzero(s._fixed) for s, o in zip(self.samplers, self._offsets)]
        )
        self._fixed_values = np.concatenate([s.center[s._fixed] for s in self.samplers])
        per_round = sum(len(g.samplers) * g.k for g in self._groups if g.k > 1)
        self.max_rounds = max(1, BLOCK_BYTES // (8 * config.batch_size * max(per_round, 1)))

    def sample(self, rng: np.random.Generator, rounds: int) -> "list[np.ndarray]":
        """Draw *rounds* candidates; one ``(rounds, support size)`` array per row.

        The arrays are column slices of one block matrix.
        """
        if rounds <= 0:
            raise OptimizationError("a block needs at least one round")
        out = np.empty((rounds, int(self._offsets[-1])))
        out[:, self._fixed_columns] = self._fixed_values
        # A vector whose gammas underflow divides by a zero or subnormal
        # sum (0/0, x/0 or an overflowing scale): its inf/nan coordinates
        # never pass the box test, so the warnings carry nothing.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for group in self._groups:
                group.draw(rng, rounds, out)
        return [out[:, a:b] for a, b in zip(self._offsets[:-1], self._offsets[1:])]
