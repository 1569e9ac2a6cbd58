"""Unit tests for utility helpers: stats, tables, RNG plumbing."""

import math

import numpy as np
import pytest
from scipy import special

from repro.util import child_rngs, describe, ensure_rng, format_table, spawn_seeds
from repro.util.stats import logsumexp
from repro.util.tables import format_number


class TestStats:
    def test_describe(self):
        stats = describe([1.0, 2.0, 3.0])
        assert stats.average == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.st_dev == pytest.approx(1.0)
        assert stats.count == 3

    def test_single_value(self):
        stats = describe([5.0])
        assert stats.st_dev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe([])

    def test_as_dict_layout(self):
        keys = set(describe([1.0, 2.0]).as_dict())
        assert keys == {"average", "min", "max", "st. dev."}


def assert_bitwise(values: np.ndarray) -> None:
    expected = float(special.logsumexp(values))
    got = logsumexp(values)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (values, got, expected)


class TestLogSumExp:
    """:func:`logsumexp` is scipy's algorithm, bit for bit."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [-np.inf],
            [-np.inf, -np.inf, -np.inf],
            [np.inf, 1.0],
            [np.inf, -np.inf],
            [np.nan, 0.0],
            [2.0, 2.0, 2.0],
            [-745.3, -745.3, -12.5],
            [1e308, 1e308],
            [-1e308, 0.0],
            [0.0],
        ],
    )
    def test_edge_cases(self, values):
        assert_bitwise(np.array(values, dtype=float))

    def test_empty_and_all_neg_inf(self):
        assert logsumexp(np.empty(0)) == -math.inf
        assert logsumexp(np.full(4, -np.inf)) == -math.inf

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_matches_scipy(self, seed):
        # Lengths 1–3000, −inf entries, ties at the maximum, all −inf, and
        # the ×2 scaling the second moment applies.
        gen = np.random.default_rng(seed)
        for _ in range(300):
            n = int(gen.integers(1, 3001)) if gen.random() < 0.8 else int(gen.integers(1, 8))
            values = gen.normal(scale=gen.choice([1.0, 10.0, 300.0]), size=n)
            values += gen.choice([0.0, -700.0, 500.0])
            kind = gen.random()
            if kind < 0.3:
                values[gen.random(n) < 0.3] = -np.inf
            elif kind < 0.5:
                values[gen.integers(0, n, size=3)] = values.max()
            elif kind < 0.55:
                values[:] = -np.inf
            assert_bitwise(values)
            assert_bitwise(2.0 * values)


class TestTables:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["yyyy", 2]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all("|" in line for line in lines if "-+-" not in line)

    def test_title(self):
        text = format_table(["h"], [["v"]], title="My Table")
        assert text.startswith("My Table")

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_number(self):
        assert format_number(0) == "0"
        assert "e" in format_number(1.5e-7)
        assert format_number(0.25) == "0.25"
        assert "e" in format_number(123456.0)


class TestRng:
    def test_ensure_rng_idempotent(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_from_seed(self):
        a = ensure_rng(42).random()
        b = ensure_rng(42).random()
        assert a == b

    def test_spawn_seeds_independent(self):
        seeds = spawn_seeds(7, 4)
        values = [np.random.default_rng(s).random() for s in seeds]
        assert len(set(values)) == 4

    def test_child_rngs_reproducible(self):
        first = [g.random() for g in child_rngs(9, 3)]
        second = [g.random() for g in child_rngs(9, 3)]
        assert first == second

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(3)
        seeds = spawn_seeds(gen, 2)
        assert len(seeds) == 2
