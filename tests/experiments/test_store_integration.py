"""Store-backed experiments: cached and fresh artifacts are bitwise
identical at every worker count, and interrupted runs resume exactly.

These are the acceptance tests of the artifact store's core guarantee:
consulting the store can never change a single byte of any deterministic
artifact — not across cold/warm runs, not across worker counts, not
across a simulated interrupt-plus-resume.
"""

from dataclasses import replace

import pytest

from repro.errors import StoreError
from repro.experiments.matrix import MatrixConfig, run_matrix
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import render_table2, run_table2
from repro.imcis import RandomSearchConfig
from repro.models.registry import REGISTRY
from repro.store import ArtifactStore

#: Small, fast cell set shared by the matrix tests below.
QUICK_CONFIG = MatrixConfig(
    studies=("illustrative", "knuth-yao"),
    repetitions=4,
    n_samples=200,
    search_rounds=60,
    quick=True,
    seed=11,
)


class TestMatrixStoreParity:
    def test_cold_warm_and_plain_agree_bitwise(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = run_matrix(QUICK_CONFIG, store=store)
        assert (store.stats.hits, store.stats.misses) == (0, 16)
        warm = run_matrix(QUICK_CONFIG, store=store)
        assert store.stats.hits == 16
        plain = run_matrix(QUICK_CONFIG)
        assert cold.to_csv_text() == warm.to_csv_text() == plain.to_csv_text()
        assert cold.to_json_text() == warm.to_json_text() == plain.to_json_text()
        assert cold.render_markdown() == warm.render_markdown() == plain.render_markdown()

    def test_warm_cache_parity_across_worker_counts(self, tmp_path):
        plain = run_matrix(QUICK_CONFIG)
        run_matrix(QUICK_CONFIG, store=ArtifactStore(tmp_path))  # populate
        warm1 = run_matrix(replace(QUICK_CONFIG, workers=1), store=ArtifactStore(tmp_path))
        warm4 = run_matrix(replace(QUICK_CONFIG, workers=4), store=ArtifactStore(tmp_path))
        assert warm1.to_csv_text() == warm4.to_csv_text() == plain.to_csv_text()

    def test_cold_cache_written_by_pool_matches_serial(self, tmp_path):
        pooled_store = ArtifactStore(tmp_path / "pooled")
        run_matrix(replace(QUICK_CONFIG, workers=4), store=pooled_store)
        warm = run_matrix(QUICK_CONFIG, store=ArtifactStore(tmp_path / "pooled"))
        assert warm.to_csv_text() == run_matrix(QUICK_CONFIG).to_csv_text()

    def test_repetition_extension_only_computes_the_suffix(self, tmp_path):
        run_matrix(QUICK_CONFIG, store=ArtifactStore(tmp_path))
        extended_store = ArtifactStore(tmp_path)
        extended = run_matrix(replace(QUICK_CONFIG, repetitions=6), store=extended_store)
        assert (extended_store.stats.hits, extended_store.stats.misses) == (16, 8)
        assert extended.to_csv_text() == run_matrix(
            replace(QUICK_CONFIG, repetitions=6)
        ).to_csv_text()

    def test_resume_after_simulated_interrupt_is_bitwise(self, tmp_path):
        """Kill a run halfway (drop half the records) and resume via its manifest."""
        from repro.store.store import RunManifest

        store = ArtifactStore(tmp_path)
        complete = run_matrix(QUICK_CONFIG, store=store)
        manifest = RunManifest(
            run_id="matrix-test0001",
            command="matrix",
            config=QUICK_CONFIG.to_payload(),
            status="running",
        )
        store.save_manifest(manifest)
        # Simulate the interrupt: half the cells never made it to disk.
        keys = list(store.iter_keys())
        assert len(keys) == 4
        for key in keys[2:]:
            store.drop(key)
        resumed_store = ArtifactStore(tmp_path)
        loaded = resumed_store.load_manifest("matrix-test0001")
        resumed = run_matrix(MatrixConfig.from_payload(loaded.config), store=resumed_store)
        assert resumed_store.stats.hits == 8
        assert resumed_store.stats.misses == 8
        assert resumed.to_csv_text() == complete.to_csv_text()
        assert resumed.to_json_text() == complete.to_json_text()

    def test_parallel_manifest_resumes_onto_auto_cells(self, tmp_path):
        """A manifest saved with the removed "parallel" backend resumes,
        with a warning, onto the cells and records of backend "auto"."""
        store = ArtifactStore(tmp_path)
        auto = run_matrix(QUICK_CONFIG, store=store)
        keys = sorted(store.iter_keys())
        with pytest.warns(DeprecationWarning, match="parallel"):
            config = MatrixConfig.from_payload({**QUICK_CONFIG.to_payload(), "backend": "parallel"})
        assert config == replace(QUICK_CONFIG, backend="auto")
        resumed_store = ArtifactStore(tmp_path)
        resumed = run_matrix(config, store=resumed_store)
        assert (resumed_store.stats.hits, resumed_store.stats.misses) == (16, 0)
        assert sorted(resumed_store.iter_keys()) == keys
        assert resumed.to_csv_text() == auto.to_csv_text()
        assert resumed.to_json_text() == auto.to_json_text()

    def test_config_payload_round_trip(self):
        config = replace(QUICK_CONFIG, workers="auto", backend=None)
        assert MatrixConfig.from_payload(config.to_payload()) == config

    def test_config_payload_with_unknown_field_rejected(self):
        payload = QUICK_CONFIG.to_payload()
        payload["from_the_future"] = 1
        with pytest.raises(StoreError, match="from_the_future"):
            MatrixConfig.from_payload(payload)

    def test_older_manifest_with_removed_knobs_resumes(self):
        """Manifests written before the ce/imc knobs left MatrixConfig
        (every CLI run stored their defaults) still load; a knob at a
        value this version cannot honour stays an unknown field."""
        payload = {
            **QUICK_CONFIG.to_payload(),
            "backend": "vectorized",
            "ce_rounds": 2,
            "ce_refine_fraction": 0.5,
            "ce_smoothing": 0.5,
            "ce_support_floor": 0.05,
            "imc_batches": 4,
            "imc_ess_target": None,
            "imc_replica_budget": None,
        }
        assert MatrixConfig.from_payload(payload) == replace(QUICK_CONFIG, backend="vectorized")
        with pytest.raises(StoreError, match="ce_rounds"):
            MatrixConfig.from_payload({**payload, "ce_rounds": 5})


class TestCoverageStoreParity:
    def test_table2_cold_warm_plain_agree(self, tmp_path):
        study = REGISTRY.make_study("illustrative")
        store = ArtifactStore(tmp_path)
        cold = run_table2([study], 4, rng=7, n_samples=300, store=store)
        warm = run_table2([study], 4, rng=7, n_samples=300, store=store)
        plain = run_table2([study], 4, rng=7, n_samples=300)
        assert render_table2(cold) == render_table2(warm) == render_table2(plain)
        assert store.stats.hits == 4 and store.stats.misses == 4

    def test_cached_coverage_counts_match(self, tmp_path):
        study = REGISTRY.make_study("knuth-yao")
        cold = run_table2([study], 4, rng=7, n_samples=300, store=ArtifactStore(tmp_path))[0]
        warm = run_table2([study], 4, rng=7, n_samples=300, store=ArtifactStore(tmp_path))[0]
        assert warm.is_coverage_of_true() == cold.is_coverage_of_true()
        assert warm.imcis_coverage_of_true() == cold.imcis_coverage_of_true()
        assert warm.mean_is_interval() == cold.mean_is_interval()
        assert warm.mean_imcis_interval() == cold.mean_imcis_interval()

    def test_different_study_or_seed_does_not_collide(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_table2(
            [REGISTRY.make_study("illustrative")],
            2,
            rng=7,
            n_samples=200,
            store=store,
        )
        run_table2(
            [REGISTRY.make_study("knuth-yao")], 2, rng=7, n_samples=200, store=store
        )
        run_table2(
            [REGISTRY.make_study("knuth-yao")], 2, rng=8, n_samples=200, store=store
        )
        assert len(list(store.iter_keys())) == 3
        assert store.stats.hits == 0

    def test_table2_reuses_matrix_imcis_records(self, tmp_path):
        """A Table II run is the matrix's imcis cell: it reads its records."""
        config = MatrixConfig(
            studies=("illustrative",),
            estimators=("imcis",),
            repetitions=8,
            n_samples=2000,
            search_rounds=150,
            seed=31,
        )
        run_matrix(config, store=ArtifactStore(tmp_path))
        store = ArtifactStore(tmp_path)
        run_table2(
            [REGISTRY.make_study("illustrative", rng=31)],
            8,
            rng=31,
            search=RandomSearchConfig(r_undefeated=150, record_history=False),
            n_samples=2000,
            store=store,
        )
        assert (store.stats.hits, store.stats.misses) == (8, 0)


class TestTable1StoreParity:
    def test_cold_warm_plain_agree(self, tmp_path):
        kwargs = dict(repetitions=3, n_samples=400, r_undefeated=60, rng=5)
        cold = run_table1(**kwargs, store=tmp_path)
        warm = run_table1(**kwargs, store=tmp_path)
        plain = run_table1(**kwargs)
        assert cold.render() == warm.render() == plain.render()
        assert cold.records == warm.records == plain.records
