"""Tests of the case-study registry, its study cache and its default catalogue."""

import threading

import numpy as np
import pytest

from repro.errors import ModelError
from repro.importance.bounded import UnrolledProposal
from repro.experiments.matrix import ESTIMATORS, MatrixConfig, run_matrix
from repro.models import CaseStudy, birth_death, illustrative
from repro.models.registry import (
    BUILT_STUDIES,
    REGISTRY,
    SLOW_TAG,
    StudyRegistry,
    register_default_studies,
)
from repro.obs import metrics
from repro.store.keys import config_key, describe_study

#: The paper's studies plus the parametric families, in registration order.
EXPECTED_NAMES = [
    "illustrative",
    "group-repair",
    "large-repair",
    "swat",
    "birth-death",
    "gamblers-ruin",
    "knuth-yao",
    "tandem-repair",
]


class TestStudyRegistry:
    def test_register_and_get(self):
        registry = StudyRegistry()
        spec = registry.register("demo", illustrative.make_study, description="d")
        assert registry.get("demo") is spec
        assert "demo" in registry
        assert registry.list_studies() == ["demo"]

    def test_duplicate_name_rejected(self):
        registry = StudyRegistry()
        registry.register("demo", illustrative.make_study)
        with pytest.raises(ModelError, match="already registered"):
            registry.register("demo", birth_death.make_study)

    def test_unknown_name_lists_known(self):
        registry = StudyRegistry()
        registry.register("demo", illustrative.make_study)
        with pytest.raises(ModelError, match="demo"):
            registry.get("nope")

    def test_make_study_returns_prepared_study(self):
        """The prepared study is the factory's one ``CaseStudy``."""
        registry = StudyRegistry()
        registry.register("demo", illustrative.make_study)
        study = registry.make_study("demo")
        assert isinstance(study, CaseStudy)
        assert study.name == "illustrative"

    def test_parametric_factory_forwards_params(self):
        registry = StudyRegistry()
        registry.register("bd", birth_death.make_study)
        study = registry.make_study("bd", capacity=6, n_samples=77)
        assert study.true_chain.n_states == 7
        assert study.n_samples == 77

    def test_quick_params_apply_under_explicit_override(self):
        registry = StudyRegistry()
        registry.register(
            "bd", birth_death.make_study, quick_params={"capacity": 4, "n_samples": 5}
        )
        quick = registry.make_study("bd", quick=True, n_samples=9)
        assert quick.true_chain.n_states == 5  # quick parameter applied
        assert quick.n_samples == 9  # explicit override wins
        full = registry.make_study("bd")
        assert full.true_chain.n_states == birth_death.CAPACITY + 1

    def test_bad_factory_return_rejected(self):
        registry = StudyRegistry()
        registry.register("broken", lambda: "not a study")
        with pytest.raises(ModelError, match="expected a CaseStudy"):
            registry.make_study("broken")

    def test_tag_filtering(self):
        registry = StudyRegistry()
        registry.register("fast", illustrative.make_study)
        registry.register("heavy", birth_death.make_study, tags=(SLOW_TAG,))
        assert registry.list_studies() == ["fast", "heavy"]
        assert registry.list_studies(tag=SLOW_TAG) == ["heavy"]
        assert registry.quick_studies() == ["fast"]


class TestDefaultCatalogue:
    def test_expected_names_in_order(self):
        assert REGISTRY.list_studies() == EXPECTED_NAMES
        assert len(REGISTRY) == len(EXPECTED_NAMES)

    def test_quick_set_excludes_slow(self):
        quick = REGISTRY.quick_studies()
        assert "large-repair" not in quick
        assert len(quick) == len(EXPECTED_NAMES) - 1

    def test_register_default_studies_is_reproducible(self):
        fresh = register_default_studies(StudyRegistry())
        assert fresh.list_studies() == REGISTRY.list_studies()

    @pytest.mark.parametrize("name", [n for n in EXPECTED_NAMES if n != "large-repair"])
    def test_every_study_yields_valid_case_study(self, name):
        """Each registered family builds a coherent CaseStudy.

        The CaseStudy ``__post_init__`` already enforces probability
        ranges and proposal row-stochasticity, so a successful build is
        itself the validity check; the assertions below pin the registry
        contract on top. ``large-repair`` (40 320 states, tagged slow) is
        exercised by its own benchmark instead.
        """
        spec = REGISTRY.get(name)
        study = REGISTRY.make_study(name, rng=7, quick=True, n_samples=64)
        assert study.name == name
        assert isinstance(study, CaseStudy)
        assert 0.0 < study.gamma_center <= 1.0
        assert study.gamma_true is not None and 0.0 < study.gamma_true <= 1.0
        if name == "swat":
            assert spec.seeded
            assert isinstance(study.proposal, UnrolledProposal)
            assert study.proposal.n_original == study.imc.center.n_states
        else:
            assert study.proposal.n_states == study.imc.center.n_states


class _CountingFactory:
    """A cheap factory that counts its calls (accepts an ``rng`` when seeded)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, rng=None, **params):
        self.calls += 1
        return illustrative.make_study()


def _counting_registry(seeded=False):
    factory = _CountingFactory()
    registry = StudyRegistry()
    registry.register("demo", factory, seeded=seeded)
    return registry, factory


class TestStudyCache:
    def test_unseeded_study_shares_one_entry_across_seeds(self):
        registry, factory = _counting_registry()
        first = registry.make_study("demo", rng=1)
        assert registry.make_study("demo", rng=2) is first
        assert registry.make_study("demo", rng=np.random.default_rng(3)) is first
        assert registry.make_study("demo") is first
        assert factory.calls == 1

    def test_quick_and_params_are_part_of_the_key(self):
        registry, factory = _counting_registry()
        plain = registry.make_study("demo")
        assert registry.make_study("demo", quick=True) is not plain
        assert registry.make_study("demo", n_samples=5) is not plain
        assert registry.make_study("demo", n_samples=5) is registry.make_study("demo", n_samples=5)
        assert factory.calls == 3

    def test_seeded_study_keys_on_its_int_seed(self):
        registry, factory = _counting_registry(seeded=True)
        first = registry.make_study("demo", rng=1)
        assert registry.make_study("demo", rng=1) is first
        assert registry.make_study("demo", rng=2) is not first
        assert factory.calls == 2

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(1)], ids=["none", "generator"])
    def test_seeded_study_without_int_seed_is_never_cached(self, rng):
        registry, factory = _counting_registry(seeded=True)
        registry.make_study("demo", rng=rng)
        registry.make_study("demo", rng=rng)
        assert factory.calls == 2

    def test_unhashable_params_bypass_the_cache(self):
        registry, factory = _counting_registry()
        registry.make_study("demo", weights=[1, 2])
        registry.make_study("demo", weights=[1, 2])
        assert factory.calls == 2

    def test_lru_holds_at_most_built_studies(self):
        registry, factory = _counting_registry(seeded=True)
        for seed in range(BUILT_STUDIES + 2):
            registry.make_study("demo", rng=seed)
        assert factory.calls == BUILT_STUDIES + 2
        registry.make_study("demo", rng=BUILT_STUDIES + 1)  # most recent: cached
        assert factory.calls == BUILT_STUDIES + 2
        registry.make_study("demo", rng=0)  # evicted: rebuilt, evicting seed 2
        assert factory.calls == BUILT_STUDIES + 3
        registry.make_study("demo", rng=3)  # still held
        assert factory.calls == BUILT_STUDIES + 3
        assert len(registry._built) == BUILT_STUDIES

    def test_concurrent_callers_both_get_a_valid_study(self):
        registry = register_default_studies(StudyRegistry())
        barrier = threading.Barrier(2)
        built = []

        def build():
            barrier.wait()
            built.append(registry.make_study("group-repair", quick=True))

        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(built) == 2
        for study in built:
            assert isinstance(study, CaseStudy)
            assert study.name == "group-repair"
        cached = registry.make_study("group-repair", quick=True)
        assert any(study is cached for study in built)

    def test_builds_are_counted_by_cache_outcome(self):
        registry, _ = _counting_registry()
        counter = metrics.registry().counter(
            "repro_study_builds_total", labelnames=("study", "cached")
        )
        built = counter.value(study="demo", cached="false")
        cached = counter.value(study="demo", cached="true")
        registry.make_study("demo")
        registry.make_study("demo")
        registry.make_study("demo")
        assert counter.value(study="demo", cached="false") == built + 1
        assert counter.value(study="demo", cached="true") == cached + 2

    @pytest.mark.parametrize("name", ["group-repair", "swat"])
    def test_estimators_leave_a_cached_study_unchanged(self, name):
        """Every estimator runs on the cached object without mutating it."""
        registry = register_default_studies(StudyRegistry())
        config = MatrixConfig(
            studies=(name,),
            estimators=tuple(ESTIMATORS),
            repetitions=2,
            n_samples=200,
            search_rounds=30,
            quick=True,
            seed=5,
            workers=1,
        )
        study = registry.make_study(name, rng=config.seed, quick=True)
        digest = config_key(describe_study(study))
        first = run_matrix(config, registry=registry).to_csv_text()
        assert registry.make_study(name, rng=config.seed, quick=True) is study
        assert config_key(describe_study(study)) == digest
        assert run_matrix(config, registry=registry).to_csv_text() == first
