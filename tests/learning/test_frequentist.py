"""Unit tests for frequentist DTMC/IMC learning (Section II-B)."""

import numpy as np
import pytest

from repro.core import DTMC, TransitionCounts
from repro.errors import LearningError
from repro.learning import (
    learn_dtmc,
    learn_imc,
    observe_traces_batch,
    okamoto_margins,
)
from repro.models import swat

from tests.conftest import random_dtmc
from tests.learning.oracle import dense_counts, observe_traces

#: The largest double below 1: the largest uniform draw.
BELOW_ONE = float(np.nextafter(1.0, 0.0))


class EdgeDraws(np.random.Generator):
    """A generator whose draws at fixed stream positions are forced to
    ``0.0`` and to :data:`BELOW_ONE`, however the stream is split into
    calls."""

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size)
        flat = u.reshape(-1)
        position = self.drawn + np.arange(flat.size)
        flat[position % 5 == 0] = 0.0
        flat[position % 5 == 3] = BELOW_ONE
        self.drawn += flat.size
        return u


def _edge_chain() -> DTMC:
    """Columns 0 and n − 1 of zero probability; row 1's running sum stops
    one ULP short of the draw :data:`BELOW_ONE`, so that draw walks into
    zero-probability column n − 1, as the dense walk's does."""
    matrix = np.array(
        [
            [0.0, 0.2, 0.3, 0.5, 0.0],
            [0.0, 0.5, 0.5 - 2.0**-52, 0.0, 0.0],
            [0.0, 0.0, 0.6, 0.4, 0.0],
            [0.0, 0.25, 0.25, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    return DTMC(matrix, 1)


class TestObservation:
    def test_counts_total(self, small_chain, rng):
        counts = observe_traces_batch(small_chain, 500, 1, rng)
        assert counts.total == 500

    def test_multiple_traces(self, small_chain, rng):
        counts = observe_traces_batch(small_chain, 100, 3, rng)
        assert counts.total == 300

    def test_batch_matches_loop_statistically(self):
        # Ergodic chain: both observers see the same stationary statistics.
        chain = random_dtmc(np.random.default_rng(5), 4, sparsity=1.0)
        loop = observe_traces(chain, 4000, np.random.default_rng(1))
        batch = observe_traces_batch(chain, 2000, 2, np.random.default_rng(2))
        m_loop = loop.to_matrix(4) / 4000
        m_batch = batch.to_matrix(4) / 4000
        assert np.allclose(m_loop, m_batch, atol=0.05)

    @pytest.mark.parametrize("seed", [1, 7, 2018])
    def test_batch_equals_dense_walk_on_swat(self, seed):
        truth = swat.ground_truth()
        batch = observe_traces_batch(truth, 300, 200, np.random.default_rng(seed))
        expected = dense_counts(truth, 300, 200, np.random.default_rng(seed))
        assert np.array_equal(batch.to_matrix(truth.n_states), expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_equals_dense_walk_at_edge_draws(self, seed):
        chain = _edge_chain()
        batch = observe_traces_batch(chain, 50, 40, EdgeDraws(seed))
        expected = dense_counts(chain, 50, 40, EdgeDraws(seed))
        assert expected[:, 0].sum() > 0  # u = 0.0 takes column 0
        assert expected[1, 4] > 0  # the short row's largest draw takes column n − 1
        assert np.array_equal(batch.to_matrix(chain.n_states), expected)

    def test_batch_draws_in_blocks(self, monkeypatch):
        """Drawing the stream in blocks of steps changes nothing."""
        from repro.learning import frequentist

        truth = swat.ground_truth()
        whole = observe_traces_batch(truth, 40, 30, np.random.default_rng(3))
        monkeypatch.setattr(frequentist, "_DRAW_BLOCK", 7 * 30)
        blocked = observe_traces_batch(truth, 40, 30, np.random.default_rng(3))
        assert dict(blocked.counts) == dict(whole.counts)

    def test_batch_requires_dense(self, small_chain):
        from scipy import sparse

        from repro.core import DTMC

        chain = DTMC(sparse.csr_matrix(small_chain.dense()), 0)
        with pytest.raises(LearningError, match="dense"):
            observe_traces_batch(chain, 10, 10)

    def test_invalid_steps(self, small_chain):
        with pytest.raises(LearningError):
            observe_traces_batch(small_chain, 0, 1)
        with pytest.raises(LearningError):
            observe_traces_batch(small_chain, 1, 0)


class TestLearnDtmc:
    def test_recovers_frequencies(self, small_chain):
        counts = TransitionCounts.from_pairs(
            [((0, 1), 30), ((0, 3), 70), ((1, 2), 40), ((1, 0), 60),
             ((2, 2), 10), ((3, 3), 10)]
        )
        learnt = learn_dtmc(counts, 4, template=small_chain)
        assert learnt.probability(0, 1) == pytest.approx(0.3)
        assert learnt.probability(1, 2) == pytest.approx(0.4)

    def test_unvisited_self_loop(self):
        counts = TransitionCounts.from_pairs([((0, 1), 5), ((1, 0), 5)])
        learnt = learn_dtmc(counts, 3)
        assert learnt.is_absorbing(2)

    def test_unvisited_uniform(self):
        counts = TransitionCounts.from_pairs([((0, 1), 5), ((1, 0), 5)])
        learnt = learn_dtmc(counts, 3, unvisited="uniform")
        assert learnt.probability(2, 0) == pytest.approx(1 / 3)

    def test_unvisited_error(self):
        counts = TransitionCounts.from_pairs([((0, 1), 5), ((1, 0), 5)])
        with pytest.raises(LearningError, match="never observed"):
            learn_dtmc(counts, 3, unvisited="error")

    def test_template_metadata_carried(self, small_chain, rng):
        counts = observe_traces(small_chain, 300, rng)
        learnt = learn_dtmc(counts, 4, template=small_chain)
        assert learnt.initial_state == small_chain.initial_state
        assert set(learnt.labels) == set(small_chain.labels)

    def test_consistency_with_long_logs(self):
        # An ergodic chain: every state is revisited, so all rows converge.
        chain = random_dtmc(np.random.default_rng(0), 4, sparsity=1.0)
        counts = observe_traces_batch(chain, 3000, 20, np.random.default_rng(3))
        learnt = learn_dtmc(counts, 4, template=chain)
        assert np.allclose(learnt.dense(), chain.dense(), atol=0.02)


class TestMargins:
    def test_okamoto_scaling(self):
        counts = TransitionCounts.from_pairs([((0, 0), 100), ((0, 1), 300)])
        margins = okamoto_margins(counts, 2, delta=1e-5)
        from repro.smc import okamoto_epsilon

        assert margins[0, 0] == pytest.approx(okamoto_epsilon(400, 1e-5))
        assert margins[1, 0] == 0.0  # never observed

    def test_learn_imc_contains_truth_with_high_probability(self):
        truth = random_dtmc(np.random.default_rng(17), 4, sparsity=1.0)
        hits = 0
        for seed in range(10):
            counts = observe_traces_batch(truth, 1500, 4, np.random.default_rng(seed))
            imc = learn_imc(counts, 4, delta=1e-4, template=truth)
            hits += imc.contains(truth)
        assert hits == 10  # Okamoto margins are conservative

    def test_learned_imc_centered_on_estimate(self, small_chain, rng):
        counts = observe_traces(small_chain, 2000, rng)
        imc = learn_imc(counts, 4, delta=1e-3, template=small_chain)
        learnt = learn_dtmc(counts, 4, template=small_chain)
        assert imc.center.close_to(learnt)
