"""Unit tests for the CTMC class and its embedded jump chain."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import CTMC
from repro.errors import ModelError


@pytest.fixture
def simple_ctmc() -> CTMC:
    rates = np.array(
        [
            [0.0, 2.0, 0.0],
            [1.0, 0.0, 3.0],
            [0.0, 0.0, 0.0],  # absorbing
        ]
    )
    return CTMC(rates, 0, labels={"end": [2]})


class TestConstruction:
    def test_negative_rates_rejected(self):
        with pytest.raises(ModelError, match="negative"):
            CTMC(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ModelError, match="diagonal"):
            CTMC(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_exit_rates(self, simple_ctmc):
        assert np.allclose(simple_ctmc.exit_rates(), [2.0, 4.0, 0.0])

    def test_labels_carried(self, simple_ctmc):
        assert list(simple_ctmc.label_mask("end")) == [False, False, True]


class TestEmbedding:
    def test_jump_probabilities(self, simple_ctmc):
        emb = simple_ctmc.embedded_dtmc()
        assert emb.probability(1, 0) == pytest.approx(0.25)
        assert emb.probability(1, 2) == pytest.approx(0.75)

    def test_zero_exit_becomes_absorbing(self, simple_ctmc):
        emb = simple_ctmc.embedded_dtmc()
        assert emb.is_absorbing(2)

    def test_labels_preserved(self, simple_ctmc):
        emb = simple_ctmc.embedded_dtmc()
        assert emb.has_label(2, "end")

    def test_sparse_embedding(self, simple_ctmc):
        sp = CTMC(sparse.csr_matrix(np.asarray(simple_ctmc.rates)), 0)
        emb = sp.embedded_dtmc()
        assert emb.is_sparse
        assert emb.probability(1, 2) == pytest.approx(0.75)
