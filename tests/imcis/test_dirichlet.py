"""Unit + property tests for Dirichlet candidate-row generation (§IV-B/C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.imcis import DirichletConfig, DirichletRowSampler
from repro.imcis.dirichlet import BlockSampler


#: A six-successor centre: tight boxes around it are screened.
SIX = [0.3, 0.2, 0.15, 0.15, 0.1, 0.1]


def sampler_for(center, eps, config=DirichletConfig()):
    center = np.asarray(center, dtype=float)
    eps = np.asarray(eps, dtype=float)
    lower = np.clip(center - eps, 0.0, 1.0)
    upper = np.clip(center + eps, 0.0, 1.0)
    support = np.arange(center.size)
    return DirichletRowSampler(support, center, lower, upper, config)


class TestConfig:
    def test_strategy_validated(self):
        with pytest.raises(OptimizationError):
            DirichletConfig(k_strategy="geometric")

    def test_inflation_validated(self):
        with pytest.raises(OptimizationError):
            DirichletConfig(inflation=0.9)

    def test_aggregate_strategies(self):
        from repro.imcis.dirichlet import aggregate_k

        values = np.array([1.0, 4.0, 10.0])
        assert aggregate_k(values, "min") == 1.0
        assert aggregate_k(values, "mean") == pytest.approx(5.0)
        assert aggregate_k(values, "median") == 4.0


class TestConcentration:
    def test_paper_formula(self):
        """K = â(1-â)/ε² − 1 for the illustrative a-transition."""
        sampler = sampler_for([3e-4, 1 - 3e-4], [2.5e-4, 2.5e-4])
        expected = 3e-4 * (1 - 3e-4) / (2.5e-4) ** 2 - 1
        assert sampler.concentration == pytest.approx(expected, rel=1e-9)
        assert not sampler.uses_two_scale_split

    def test_two_scale_triggered_by_heterogeneous_k(self):
        # Three coordinates, one with far tighter relative margin.
        center = [0.5, 0.3, 0.2]
        eps = [1e-4, 0.1, 0.1]
        sampler = sampler_for(center, eps, DirichletConfig(outlier_ratio=50.0))
        assert sampler.uses_two_scale_split

    def test_split_disabled_by_ratio(self):
        center = [0.5, 0.3, 0.2]
        eps = [1e-4, 0.1, 0.1]
        sampler = sampler_for(center, eps, DirichletConfig(outlier_ratio=1e12))
        assert not sampler.uses_two_scale_split

    def test_too_small_support_rejected(self):
        with pytest.raises(OptimizationError, match="fewer than two"):
            sampler_for([1.0], [0.0])

    def test_all_fixed_rejected(self):
        with pytest.raises(OptimizationError, match="constant"):
            sampler_for([0.5, 0.5], [0.0, 0.0])

    def test_center_must_be_distribution(self):
        with pytest.raises(OptimizationError, match="probability"):
            DirichletRowSampler(
                np.array([0, 1]),
                np.array([0.5, 0.1]),
                np.array([0.0, 0.0]),
                np.array([1.0, 1.0]),
            )


class TestSampling:
    def test_rows_feasible(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05])
        for _ in range(200):
            row = sampler.sample(rng)
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(row >= sampler.lower - 1e-9)
            assert np.all(row <= sampler.upper + 1e-9)

    def test_mean_near_center(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05])
        rows = np.array([sampler.sample(rng) for _ in range(800)])
        assert np.allclose(rows.mean(axis=0), sampler.center, atol=0.02)

    def test_spread_covers_interval(self, rng):
        """Coordinates should visit the outer thirds of their interval —
        the 'well-spread around the mean' goal of §IV-B."""
        sampler = sampler_for([0.3, 0.7], [0.05, 0.05])
        rows = np.array([sampler.sample(rng) for _ in range(800)])
        a = rows[:, 0]
        assert (a < 0.27).mean() > 0.05
        assert (a > 0.33).mean() > 0.05

    def test_fixed_coordinates_pinned(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.0, 0.05, 0.05])
        for _ in range(50):
            row = sampler.sample(rng)
            assert row[0] == pytest.approx(0.3)

    def test_single_free_coordinate_is_determined(self, rng):
        sampler = sampler_for([0.3, 0.5, 0.2], [0.0, 0.05, 0.0])
        state = rng.bit_generator.state
        rows = BlockSampler([sampler]).sample(rng, 5)[0]
        assert np.allclose(rows, [0.3, 0.5, 0.2])
        assert rng.bit_generator.state == state  # no randomness consumed

    def test_two_scale_rows_feasible(self, rng):
        sampler = sampler_for(
            [0.5, 0.3, 0.2], [1e-3, 0.08, 0.08], DirichletConfig(outlier_ratio=50.0)
        )
        assert sampler.uses_two_scale_split
        for _ in range(200):
            row = sampler.sample(rng)
            assert row.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(row >= sampler.lower - 1e-9)
            assert np.all(row <= sampler.upper + 1e-9)

    def test_inflation_learned_and_persisted(self, rng):
        # A very tight box around an off-centre point forces rejections.
        center = np.array([0.5, 0.5])
        lower = np.array([0.47, 0.47])
        upper = np.array([0.53, 0.53])
        config = DirichletConfig(inflate_after=2)
        sampler = DirichletRowSampler(np.array([0, 1]), center, lower, upper, config)
        sampler.sample(rng)
        assert sampler.k_scale >= 1.0
        stats_before = sampler.stats.rejections
        sampler.sample(rng)
        # Second call reuses the learnt scale: far fewer new rejections.
        assert sampler.stats.rejections - stats_before <= stats_before + 64
        # Per-block rule: one update per block, ×λ per escalation of each
        # pair and ×decay per round, rising at most by the most-escalated
        # pair's own ×λ^e — so a block never compounds its escalations.
        start, inflations = sampler.k_scale, sampler.stats.inflations
        rows = BlockSampler([sampler]).sample(rng, 64)[0]
        assert rows.shape == (64, 2)
        escalations = sampler.stats.inflations - inflations
        drift = config.inflation**escalations * config.decay**64
        assert sampler.k_scale <= max(1.0, start * drift) * (1 + 1e-12)
        assert sampler.k_scale >= 1.0

    def test_block_of_one_is_the_per_draw_rule(self, rng):
        """One round: ×λ per ``inflate_after`` rejected batches, then ×decay."""
        config = DirichletConfig(inflate_after=1, batch_size=1)
        sampler = sampler_for([0.5, 0.5], [0.4, 0.4], config)
        sampler._k_scale = 3.0
        before = sampler.stats.inflations
        sampler.sample(rng)
        escalations = sampler.stats.inflations - before
        expected = max(1.0, 3.0 * config.inflation**escalations * config.decay)
        assert sampler.k_scale == pytest.approx(expected, rel=1e-12)

    def test_block_rows_feasible(self, rng):
        sampler = sampler_for(
            [0.5, 0.3, 0.2], [1e-3, 0.08, 0.08], DirichletConfig(outlier_ratio=50.0)
        )
        rows = BlockSampler([sampler]).sample(rng, 300)[0]
        assert rows.shape == (300, 3)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(rows >= sampler.lower - 1e-9)
        assert np.all(rows <= sampler.upper + 1e-9)
        assert sampler.stats.samples == 300

    def test_failed_uniform_stage_counts_and_gives_up(self, rng):
        """An empty uniform interval is a rejected batch, capped like any other."""
        # Σ upper < 1: the uniform coordinate's interval is always empty.
        center = np.array([0.5, 0.3, 0.2])
        lower = np.array([0.499, 0.1, 0.1])
        upper = np.array([0.501, 0.2, 0.2])
        config = DirichletConfig(outlier_ratio=50.0, max_attempts=160)
        sampler = DirichletRowSampler(np.arange(3), center, lower, upper, config)
        assert sampler.uses_two_scale_split
        with pytest.raises(OptimizationError, match="160 attempts"):
            sampler.sample(rng)
        assert sampler.stats.rejections == 160
        assert sampler.stats.samples == 0

    def test_infeasible_dirichlet_row_gives_up(self, rng):
        config = DirichletConfig(max_attempts=64)
        sampler = DirichletRowSampler(
            np.arange(2), np.array([0.5, 0.5]), np.array([0.1, 0.1]), np.array([0.4, 0.4]), config
        )
        with pytest.raises(OptimizationError, match="64 attempts"):
            BlockSampler([sampler]).sample(rng, 3)[0]
        assert sampler.stats.rejections == 3 * 64

    def test_rare_transition_row(self, rng):
        """The illustrative s0 row: a ∈ [0.5e-4, 5.5e-4]."""
        sampler = sampler_for([3e-4, 1 - 3e-4], [2.5e-4, 2.5e-4])
        rows = np.array([sampler.sample(rng) for _ in range(500)])
        a = rows[:, 0]
        assert np.all(a >= 0.5e-4 - 1e-12)
        assert np.all(a <= 5.5e-4 + 1e-12)
        assert a.std() > 0.5e-4  # genuinely spread, not collapsed


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(2, 6))
def test_sampled_rows_always_feasible(seed, size):
    gen = np.random.default_rng(seed)
    center = gen.dirichlet(np.ones(size) * 2.0)
    eps = gen.uniform(0.01, 0.2, size)
    lower = np.clip(center - eps, 0.0, 1.0)
    upper = np.clip(center + eps, 0.0, 1.0)
    sampler = DirichletRowSampler(np.arange(size), center, lower, upper)
    for _ in range(20):
        row = sampler.sample(gen)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(row >= lower - 1e-9)
        assert np.all(row <= upper + 1e-9)


class RecordingGenerator(np.random.Generator):
    """A generator that keeps each ``standard_gamma`` call's shapes and draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.passes = []

    def standard_gamma(self, shape, *args, **kwargs):
        draws = super().standard_gamma(shape, *args, **kwargs)
        self.passes.append((np.array(shape), draws.copy()))
        return draws


def replay_pools(block, passes, rounds):
    """Replay the pooled passes of one block of non-split rows without fixed coordinates.

    A pass of an unscreened group is one ``standard_gamma`` call of whole
    vectors. A pass of a screened group is two: its stage-1 call draws
    each vector's ``t`` screened coordinates and the rest's total, and
    its stage-2 call splits the rest of the vectors that pass the screen,
    in draw order. Each call's vectors are attributed to rows by their
    Dirichlet mean (``alpha`` normalised is the row's centre, in the
    group's coordinate order). A row's pool must draw at most
    ``batch_size`` vectors per pending round, and its in-box vectors, in
    draw order, must serve its pending rounds until none is left.
    Returns, per row, the vectors that served it and the vector counts of
    its passes.
    """
    samplers = block.samplers
    # Per row: its group, its index in the group, and its draw order.
    layout = {}
    for group in block._groups:
        for index, sampler in enumerate(group.samplers):
            position = samplers.index(sampler)
            order = group.columns[index] - block._offsets[position]
            layout[position] = (group, index, order)
    pending = [rounds] * len(samplers)
    served = [[] for _ in samplers]
    counts = [[] for _ in samplers]
    calls = iter(passes)
    for alpha, gammas in calls:
        means = (alpha / alpha.sum(axis=0)).T
        owner = np.full(means.shape[0], -1)
        for position, (group, _, order) in layout.items():
            t, centre = group.screen, samplers[position].center[order]
            if t:
                centre = np.append(centre[:t], centre[t:].sum())
            if centre.size == means.shape[1]:
                owner[np.all(np.abs(means - centre) < 1e-9, axis=1)] = position
        assert np.all(owner >= 0), "a vector matches no row"
        group = layout[owner[0]][0] if owner.size else None
        if group is not None and group.screen:
            t = group.screen
            lead = gammas * (1.0 / gammas.sum(axis=0))
            rows = [layout[position][1] for position in owner]
            survive = np.all(
                (lead >= group.screen_lower_t[:, rows]) & (lead <= group.screen_upper_t[:, rows]),
                axis=0,
            )
            _, tail = next(calls)
            assert tail.shape[1] == survive.sum(), "stage 2 must split exactly the survivors"
            vectors = np.full((owner.size, group.k), np.nan)
            vectors[:, :t] = lead[:t].T
            vectors[survive, t:] = (tail * (lead[t, survive] / tail.sum(axis=0))).T
        else:
            vectors = (gammas / gammas.sum(axis=0)).T
        for index, sampler in enumerate(samplers):
            mine = owner == index
            if not mine.any():
                continue
            assert pending[index] > 0, "a row drew after all its rounds were served"
            drawn = np.empty((mine.sum(), sampler.center.size))
            drawn[:, layout[index][2]] = vectors[mine]
            assert drawn.shape[0] <= sampler.config.batch_size * pending[index]
            counts[index].append(drawn.shape[0])
            inside = np.all(
                (drawn >= sampler.lower - 1e-12) & (drawn <= sampler.upper + 1e-12), axis=1
            )
            use = drawn[inside][: pending[index]]
            served[index].extend(use)
            pending[index] -= len(use)
    assert pending == [0] * len(samplers)
    return [np.array(rows) for rows in served], counts


def sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


class TestPooledPasses:
    """A pass pools a row's pending rounds and sizes its draw by acceptance."""

    def rows(self):
        return [
            sampler_for([0.3, 0.5, 0.2], [0.05, 0.05, 0.05]),  # accepts ~1 in 4
            sampler_for([0.25, 0.25, 0.5], [0.2, 0.2, 0.2]),  # accepts nearly all
            sampler_for(SIX, [0.03] * 6),  # accepts ~1 in 15, screened
        ]

    def test_pass_draws_at_most_a_batch_per_pending_pair(self):
        rng = RecordingGenerator(11)
        samplers = self.rows()
        block = BlockSampler(samplers)
        assert [group.screen > 0 for group in block._groups] == [False, True]
        for _ in range(3):
            rng.passes.clear()
            block.sample(rng, 40)
            _, counts = replay_pools(block, rng.passes, 40)
        batch = DirichletConfig().batch_size
        # With an acceptance history, the wide row draws far less than a batch.
        assert sum(counts[1]) < batch * 40 / 4
        for sampler, row_counts in zip(samplers, counts):
            assert sampler.stats.drawn >= sum(row_counts)

    def test_no_in_box_vector_discarded_while_a_round_is_pending(self):
        rng = RecordingGenerator(12)
        samplers = self.rows()
        block = BlockSampler(samplers)
        blocks = block.sample(rng, 50)
        served, _ = replay_pools(block, rng.passes, 50)
        for sampler, rows, vectors in zip(samplers, blocks, served):
            assert sampler.stats.in_box >= len(vectors) == 50
            # Rounds may be shuffled after escalation; the candidates are
            # exactly the in-box vectors the pools handed out.
            np.testing.assert_allclose(sorted_rows(rows), sorted_rows(vectors), atol=1e-12)

    def test_escalated_block_keeps_the_pooled_vectors(self):
        """A tight row escalates; its rounds are shuffled, never redrawn."""
        rng = RecordingGenerator(13)
        config = DirichletConfig(batch_size=1, inflate_after=1)
        sampler = sampler_for(SIX, [0.03] * 6, config)
        block = BlockSampler([sampler])
        assert block._groups[0].screen > 0
        rows = block.sample(rng, 30)[0]
        assert sampler.stats.inflations > 0
        (served,), _ = replay_pools(block, rng.passes, 30)
        np.testing.assert_allclose(sorted_rows(rows), sorted_rows(served), atol=1e-12)

    def test_two_scale_row_draws_a_full_batch_every_pass(self):
        """Its uniform coordinate is redrawn each pass, so the pass size must
        not follow the row's (here high) acceptance rate."""
        rng = RecordingGenerator(15)
        sampler = sampler_for([0.3, 0.3, 0.3, 0.1], [0.2, 0.2, 0.2, 0.001])
        assert sampler.uses_two_scale_split
        block = BlockSampler([sampler])
        for _ in range(3):
            rng.passes.clear()
            block.sample(rng, 20)
            assert rng.passes[0][1].shape[1] == DirichletConfig().batch_size * 20
        # It accepts about 1 vector in 3: a sized pass would draw ~4 per pair.
        assert sampler.stats.in_box > sampler.stats.drawn / 4

    def test_gives_up_after_the_same_vectors_as_a_batch_per_pass(self):
        """``max_attempts = 100`` with ``batch_size = 16``: seven passes, 112 vectors."""
        rng = RecordingGenerator(14)
        config = DirichletConfig(max_attempts=100)
        sampler = DirichletRowSampler(
            np.arange(2), np.array([0.5, 0.5]), np.array([0.1, 0.1]), np.array([0.4, 0.4]), config
        )
        with pytest.raises(OptimizationError, match="100 attempts"):
            BlockSampler([sampler]).sample(rng, 5)
        assert [gammas.shape[1] for _, gammas in rng.passes] == [5 * 16] * 7
        assert sampler.stats.rejections == 5 * 112
        assert sampler.stats.drawn == 5 * 112
        assert sampler.stats.in_box == 0

    def test_counters_count_vectors_and_acceptances(self):
        """And the gamma variates, of which the screened group draws fewer
        than its vectors' coordinates."""
        from repro.obs import metrics

        names = ("vectors", "accepted", "variates")
        counters = [metrics.registry().counter(f"repro_dirichlet_{n}_total") for n in names]
        before = [counter.value() for counter in counters]
        rng = RecordingGenerator(16)
        samplers = self.rows()
        BlockSampler(samplers).sample(rng, 20)
        vectors, accepted, variates = (c.value() - b for c, b in zip(counters, before))
        assert vectors == sum(s.stats.drawn for s in samplers)
        assert accepted == len(samplers) * 20
        assert variates == sum(s.stats.variates for s in samplers)
        assert variates == sum(gammas.size for _, gammas in rng.passes)
        assert variates < sum(s.stats.drawn * s.center.size for s in samplers)


class TestScreenedPasses:
    """A screened group draws each vector's least-likely-in-box coordinates
    and the rest's total first, and splits the rest only for survivors."""

    def block(self):
        twelve = np.array([0.3, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.04, 0.03, 0.02, 0.01])
        return BlockSampler(
            [
                sampler_for(SIX, [0.03] * 6),
                sampler_for(SIX[::-1], [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]),
                sampler_for(twelve, twelve / 2),  # lower bounds reach zero
                sampler_for(twelve[::-1], [0.01] * 12),
            ]
        )

    def test_small_and_wide_groups_are_not_screened(self):
        block = BlockSampler(
            [sampler_for([0.3, 0.5, 0.2], [0.01] * 3), sampler_for(SIX, [0.3] * 6)]
        )
        assert [group.screen for group in block._groups] == [0, 0]

    def test_screen_never_rejects_a_vector_in_the_box(self):
        rng = np.random.default_rng(17)
        block = self.block()
        for group in block._groups:
            t, rows = group.screen, np.arange(len(group.samplers))
            assert 0 < t < group.k - 1
            # Random vectors around each row's centre, about half in the box,
            # then each row's box corners: every rest coordinate at the lower
            # (upper) edge of its tolerance, the first t at the centre.
            alpha = np.repeat(group.centre * 400.0, 4000, axis=0)
            random = rng.standard_gamma(alpha)
            random /= random.sum(axis=1, keepdims=True)
            owner = np.concatenate([np.repeat(rows, 4000), rows, rows])
            edges = [np.hstack([group.centre[:, :t], b.T[:, t:]])
                     for b in (group.box_lower_t, group.box_upper_t)]
            values = np.vstack([random, *edges]).T
            inside = np.all(
                (values >= group.box_lower_t[:, owner]) & (values <= group.box_upper_t[:, owner]),
                axis=0,
            )
            assert inside.sum() > 2 * rows.size and not inside.all()
            assert inside[-2 * rows.size :].all()
            lead = np.vstack([values[:t], values[t:].sum(axis=0)])
            assert group._screened(lead, owner)[inside].all()


def test_underflowing_tail_gammas_do_not_warn():
    """swat's quick ``imcis`` cell at matrix seed 16 draws screened tails
    whose gammas underflow, so scaling them by ``lead / tail.sum()``
    overflows; those inf/nan vectors never pass the box test, and the
    draw raises no floating-point warning."""
    import warnings

    from repro.experiments.matrix import MatrixConfig, run_matrix

    config = MatrixConfig(
        studies=("swat",),
        estimators=("imcis",),
        repetitions=1,
        n_samples=1000,
        search_rounds=1000,
        quick=True,
        seed=16,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_matrix(config)
    assert len(result.records()) == 1
