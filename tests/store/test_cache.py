"""Tests of the cache-aware repetition fan-out and the result codecs."""

import json

import numpy as np
import pytest

from repro.imcis import RandomSearchConfig
from repro.imcis.algorithm import IMCISConfig, imcis_estimate
from repro.importance import CrossEntropyEstimate
from repro.models.registry import REGISTRY
from repro.smc.results import ConfidenceInterval, EstimationResult
from repro.store.cache import map_repetitions_cached
from repro.store.codecs import (
    decode_estimation_result,
    decode_interval,
    decode_search_summary,
    encode_ce_estimate,
    encode_estimation_result,
    encode_interval,
    encode_search_summary,
)
from repro.store.keys import canonical_json
from repro.store.store import ArtifactStore

KEY = "ab" + "1" * 30


def _toy_repetition(context, seeds):
    """Module-level repetition fn (pure function of context and each seed)."""
    return [
        {"draw": float(np.random.default_rng(seed).random()), "scale": context}
        for seed in seeds
    ]


def _encode(value):
    return value


def _decode(payload):
    return payload


class TestMapRepetitionsCached:
    def test_without_store_is_passthrough(self):
        seeds = np.random.SeedSequence(3).spawn(4)
        plain = map_repetitions_cached(_toy_repetition, 1.0, seeds)
        assert len(plain) == 4

    def test_store_requires_codec_and_key(self, tmp_path):
        seeds = np.random.SeedSequence(3).spawn(2)
        with pytest.raises(ValueError, match="key"):
            map_repetitions_cached(_toy_repetition, 1.0, seeds, store=ArtifactStore(tmp_path))

    def test_hit_miss_accounting(self, tmp_path):
        store = ArtifactStore(tmp_path)
        seeds = np.random.SeedSequence(3).spawn(4)
        kwargs = dict(store=store, key=KEY, encode=_encode, decode=_decode)
        first = map_repetitions_cached(_toy_repetition, 1.0, seeds, **kwargs)
        assert (store.stats.hits, store.stats.misses) == (0, 4)
        second = map_repetitions_cached(_toy_repetition, 1.0, seeds, **kwargs)
        assert (store.stats.hits, store.stats.misses) == (4, 4)
        assert second == first
        assert store.touched_keys == {KEY}

    def test_extending_repetitions_reuses_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        kwargs = dict(store=store, key=KEY, encode=_encode, decode=_decode)
        short = map_repetitions_cached(
            _toy_repetition, 1.0, np.random.SeedSequence(3).spawn(3), **kwargs
        )
        longer = map_repetitions_cached(
            _toy_repetition, 1.0, np.random.SeedSequence(3).spawn(6), **kwargs
        )
        assert longer[:3] == short
        assert (store.stats.hits, store.stats.misses) == (3, 6)

    def test_corrupt_record_is_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        seeds = np.random.SeedSequence(3).spawn(2)
        kwargs = dict(key=KEY, encode=_encode, decode=_decode)
        first = map_repetitions_cached(_toy_repetition, 1.0, seeds, store=store, **kwargs)
        store.close()
        segment = sorted((tmp_path / "segments").glob("*.seg"))[0]
        blob = bytearray(segment.read_bytes())
        blob[-3] ^= 0xFF  # flip a payload byte in the last frame (index 1)
        segment.write_bytes(bytes(blob))
        fresh_store = ArtifactStore(tmp_path)
        second = map_repetitions_cached(_toy_repetition, 1.0, seeds, store=fresh_store, **kwargs)
        assert second == first
        assert fresh_store.stats.corrupt == 1
        assert (fresh_store.stats.hits, fresh_store.stats.misses) == (1, 1)


class TestCodecs:
    def test_interval_round_trip_is_exact(self):
        interval = ConfidenceInterval(low=0.1 + 0.2, high=0.7000000000000001, confidence=0.95)
        decoded = decode_interval(encode_interval(interval))
        assert decoded == interval

    def test_estimation_result_round_trip(self):
        result = EstimationResult(
            estimate=3.3e-5,
            std_dev=1.2e-3,
            n_samples=1000,
            interval=ConfidenceInterval(1e-5, 5e-5, 0.95),
            n_satisfied=12,
            n_undecided=1,
            method="importance-sampling",
            ess=float("nan"),
        )
        decoded = decode_estimation_result(encode_estimation_result(result))
        assert decoded.estimate == result.estimate
        assert decoded.interval == result.interval
        assert np.isnan(decoded.ess)
        assert decoded.method == result.method

    def test_ce_estimate_encoding_drops_proposal(self):
        result = EstimationResult(
            estimate=1.1770000000000001e-7,
            std_dev=2.3e-8,
            n_samples=500,
            interval=ConfidenceInterval(1.0e-7, 1.4e-7, 0.95),
            n_satisfied=210,
            method="cross-entropy",
            ess=190.25,
        )
        ce = CrossEntropyEstimate(
            result=result,
            proposal=object(),  # any chain; the codec must not serialise it
            rounds=2,
            refine_samples=250,
            final_samples=250,
            n_satisfied_per_round=(98, 112),
        )
        payload = encode_ce_estimate(ce)
        assert "proposal" not in payload
        assert payload == {
            "result": encode_estimation_result(result),
            "rounds": 2,
            "refine_samples": 250,
            "final_samples": 250,
            "n_satisfied_per_round": [98, 112],
        }
        assert decode_estimation_result(payload["result"]) == result

    @pytest.mark.parametrize("name", ["group-repair", "swat"])
    def test_search_summary_round_trip_is_bitwise(self, name):
        """Rows and scalars survive the store's JSON encoding bit for bit."""
        study = REGISTRY.make_study(name, rng=2018, quick=True)
        config = IMCISConfig(
            study.confidence, RandomSearchConfig(r_undefeated=50, record_history=False)
        )
        search = imcis_estimate(
            study.imc, study.proposal, study.formula, 500, np.random.default_rng(3), config
        ).search
        assert search is not None
        payload = json.loads(canonical_json(encode_search_summary(search)))
        decoded = decode_search_summary(payload)
        for field in ("rounds_total", "rounds_to_min", "rounds_to_max", "stopped_by"):
            assert decoded[field] == getattr(search, field)
        for side in ("min", "max"):
            moments = getattr(search, f"moments_{side}")
            assert decoded[f"gamma_{side}"] == moments.gamma
            assert decoded[f"sigma_{side}"] == moments.sigma
            rows = getattr(search, f"rows_{side}")
            assert rows and decoded[f"rows_{side}"].keys() == rows.keys()
            for state, row in rows.items():
                assert np.asarray(decoded[f"rows_{side}"][state]).tobytes() == row.tobytes()

    def test_search_summary_of_no_search_is_none(self):
        assert encode_search_summary(None) is None
        assert decode_search_summary(None) is None
