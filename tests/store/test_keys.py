"""Tests of the content-addressing layer: canonical JSON, config keys,
study fingerprints and seed-state identity."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import StoreError
from repro.models.registry import REGISTRY
from repro.store.keys import (
    canonical_json,
    code_versions,
    config_key,
    describe_study,
    fingerprint_array,
    fingerprint_chain,
    fingerprint_matrix,
    seed_entropy,
)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_floats_survive_exactly(self):
        import json

        value = 0.1 + 0.2  # not representable prettily; must round-trip
        assert json.loads(canonical_json({"x": value}))["x"] == value

    def test_unserialisable_payload_rejected(self):
        with pytest.raises(StoreError, match="serialisable"):
            canonical_json({"x": object()})


class TestVersionSync:
    def test_package_version_matches_pyproject(self):
        """The cache key embeds ``repro.__version__``; a release that only
        bumped pyproject would silently keep serving stale records."""
        import repro

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE)
        assert match is not None, "pyproject.toml declares no version"
        assert repro.__version__ == match.group(1)


class TestConfigKey:
    def test_stable_within_process(self):
        payload = {"kind": "test", "n": 3, "versions": code_versions()}
        assert config_key(payload) == config_key(dict(payload))

    def test_differs_on_any_field(self):
        payload = {"kind": "test", "n": 3}
        assert config_key(payload) != config_key({"kind": "test", "n": 4})

    def test_stable_across_processes(self):
        """The key of a registry study is identical in a fresh interpreter."""
        study = REGISTRY.make_study("illustrative")
        payload = {"study": describe_study(study), "seed": seed_entropy(11)}
        script = (
            "from repro.models.registry import REGISTRY\n"
            "from repro.store.keys import config_key, describe_study, seed_entropy\n"
            "study = REGISTRY.make_study('illustrative')\n"
            "payload = {'study': describe_study(study), 'seed': seed_entropy(11)}\n"
            "print(config_key(payload), end='')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        other = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert other.returncode == 0, other.stderr
        assert other.stdout == config_key(payload)


class TestFingerprints:
    def test_array_fingerprint_sees_dtype_and_shape(self):
        a = np.array([1.0, 2.0, 3.0])
        assert fingerprint_array(a) == fingerprint_array(a.copy())
        assert fingerprint_array(a) != fingerprint_array(a.astype(np.float32))
        assert fingerprint_array(a) != fingerprint_array(a.reshape(3, 1))

    def test_sparse_and_dense_are_distinct_spaces(self):
        from scipy import sparse

        dense = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert fingerprint_matrix(dense) != fingerprint_matrix(sparse.csr_matrix(dense))

    def test_chain_fingerprint_sees_labels(self):
        from repro.core.dtmc import DTMC

        matrix = np.array([[0.5, 0.5], [0.0, 1.0]])
        plain = DTMC(matrix)
        labelled = DTMC(matrix, labels={"goal": [1]})
        assert fingerprint_chain(plain) != fingerprint_chain(labelled)

    def test_study_description_is_reproducible(self):
        first = describe_study(REGISTRY.make_study("knuth-yao"))
        second = describe_study(REGISTRY.make_study("knuth-yao"))
        assert first == second

    @pytest.mark.parametrize("name", ["group-repair", "swat"])
    def test_study_description_hashes_once(self, name, monkeypatch):
        """A second description of the same study object equals the first
        and hashes no matrix; its payload is a copy the caller may edit."""
        from repro.store import keys

        study = REGISTRY.get(name).build(quick=True)  # a fresh object
        hashed = []
        real = keys.fingerprint_array
        monkeypatch.setattr(
            keys, "fingerprint_array", lambda a: hashed.append(a.shape) or real(a)
        )
        first = describe_study(study)
        key = config_key(first)
        assert hashed
        hashed.clear()
        second = describe_study(study)
        assert hashed == []
        assert second == first
        second["imc"]["lower"] = "edited"
        assert config_key(describe_study(study)) == key

    def test_study_description_follows_a_replaced_field(self):
        """The memo is tied to the objects it hashed: a study whose
        proposal is swapped describes the new one."""
        study = REGISTRY.get("knuth-yao").build(quick=True)
        before = describe_study(study)
        study.proposal = study.center
        after = describe_study(study)
        assert after["proposal"] == fingerprint_chain(study.center)
        assert after["proposal"] != before["proposal"]
        assert after["imc"] == before["imc"]

    def test_study_description_sees_parameters(self):
        base = describe_study(REGISTRY.make_study("knuth-yao"))
        changed = describe_study(REGISTRY.make_study("knuth-yao", p_epsilon=0.004))
        assert base != changed


#: ``config_key(describe_study(...))`` of the quick studies, built with
#: ``rng=2018``. Their store cells, and so their cached records, stay
#: valid as long as these hold. swat's key covers its whole learning
#: pipeline: the simulated logs, the learnt IMC and the unrolled
#: time-dependent proposal.
STUDY_KEYS = {
    "illustrative": "b6d496ff0658acef1a605b1f0a9c77a6",
    "group-repair": "8e737f7a35778426a2d31575ca05d1c6",
    "birth-death": "9ae35ab33e78c799a0e95a328d348840",
    "gamblers-ruin": "8639e4a2abfcfbf05e94274d9bc1d4ef",
    "knuth-yao": "ad08535c58cce7f8577a66e49e2d385d",
    "tandem-repair": "c130ccac61f19a760789e0c768db26c1",
    "swat": "9f5dad4ece709b5664eb278657729905",
}


class TestStudyKeys:
    @pytest.mark.parametrize("name", sorted(STUDY_KEYS))
    def test_quick_study_key_is_pinned(self, name):
        study = REGISTRY.make_study(name, rng=2018, quick=True)
        assert config_key(describe_study(study)) == STUDY_KEYS[name]


class TestSeedEntropy:
    def test_int_and_seedsequence_agree(self):
        assert seed_entropy(7) == seed_entropy(np.random.SeedSequence(7))

    def test_generator_carries_spawn_position(self):
        fresh = np.random.default_rng(7)
        assert seed_entropy(fresh) == seed_entropy(7)
        spawned = np.random.default_rng(7)
        spawned.bit_generator.seed_seq.spawn(3)
        assert seed_entropy(spawned) != seed_entropy(7)

    def test_unseeded_rejected(self):
        with pytest.raises(StoreError, match="unseeded"):
            seed_entropy(None)
