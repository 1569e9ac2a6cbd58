"""Tests of the Table I experiment runner (scaled down)."""

import hashlib

import pytest

from repro.experiments import run_table1, transition_value
from repro.models import illustrative


@pytest.fixture(scope="module")
def result():
    return run_table1(repetitions=3, n_samples=1500, r_undefeated=150, rng=5)


class TestTable1:
    def test_collects_all_columns(self, result):
        assert len(result.n_rounds) == 3
        assert len(result.a_min) == len(result.c_min) == 3
        assert len(result.a_max) == len(result.c_max) == 3

    def test_extremes_inside_intervals(self, result):
        for a in result.a_min + result.a_max:
            assert 0.5e-4 - 1e-12 <= a <= 5.5e-4 + 1e-12
        for c in result.c_min + result.c_max:
            assert 0.0493 - 1e-12 <= c <= 0.0503 + 1e-12

    def test_extremes_ordered(self, result):
        """a_min approaches the lower bound, a_max the upper (Table I)."""
        assert max(result.a_min) < 1e-4
        assert min(result.a_max) > 4.5e-4

    def test_summaries_and_render(self, result):
        cols = result.summaries()
        assert set(cols) == {"nr", "amin", "cmin", "amax", "cmax"}
        text = result.render()
        assert "Table I" in text
        assert "st. dev." in text


class TestTransitionValue:
    def test_reads_row(self, rng):
        study = illustrative.make_study()
        support, _, _ = study.imc.row_bounds(0)
        rows = {0: [0.25, 0.75]}
        import numpy as np

        rows = {0: np.array([0.25, 0.75])}
        assert transition_value(study, rows, 0, int(support[0])) == pytest.approx(0.25)

    def test_missing_state(self):
        study = illustrative.make_study()
        assert transition_value(study, {}, 0, 1) is None

    def test_missing_target(self, rng):
        import numpy as np

        study = illustrative.make_study()
        assert transition_value(study, {0: np.array([0.5, 0.5])}, 0, 2) is None


#: SHA-256 (see :func:`_table1_digest`) of the Table I run of
#: :class:`TestGoldenDigest`, pinned at version 0.17.0. It covers the IMCIS
#: search's rounds and the extreme ``a``/``c`` values it reaches.
GOLDEN_TABLE1_DIGEST = "8d14c64eacfaad5328841623aee9ae393e281b67055ebef640058ed7b708d081"


def _table1_digest():
    """Hash ``repr`` of every Table I record: 4 repetitions x 1000 traces, R = 100, seed 31."""
    digest = hashlib.sha256()
    result = run_table1(repetitions=4, n_samples=1000, r_undefeated=100, rng=31)
    for record in result.records:
        digest.update(repr(record).encode())
    return digest.hexdigest()


class TestGoldenDigest:
    def test_table1_matches_golden_digest(self):
        """Table I's rounds and extremes do not drift, bit for bit.

        Regenerate the digest only together with a results-version bump.
        """
        assert _table1_digest() == GOLDEN_TABLE1_DIGEST
