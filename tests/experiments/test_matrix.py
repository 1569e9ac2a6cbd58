"""Tests of the cross-study experiment matrix and its determinism contract.

The acceptance bar: the quick matrix's rendered artifacts (CSV, JSON,
markdown) are bitwise identical for ``workers=1`` and ``workers=4`` under
the same seed.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import EstimationError, ModelError
from repro.experiments import matrix as matrix_module
from repro.experiments.matrix import (
    DEFAULT_ESTIMATORS,
    ESTIMATOR_NAMES,
    RECORD_FIELDS,
    MatrixConfig,
    _cell_key,
    _CellContext,
    resolve_studies,
    run_cell_repetitions,
    run_matrix,
)
from repro.imcis import RandomSearchConfig
from repro.importance import estimate_from_sample, run_importance_sampling
from repro.models.registry import REGISTRY
from repro.store import ArtifactStore
from repro.util.rng import spawn_seeds

#: Small, fast cell set shared by the tests below.
QUICK_CONFIG = MatrixConfig(
    studies=("illustrative", "knuth-yao"),
    repetitions=4,
    n_samples=200,
    search_rounds=60,
    quick=True,
    seed=11,
)


class TestResolveStudies:
    def test_explicit_selection(self):
        assert resolve_studies(QUICK_CONFIG) == ["illustrative", "knuth-yao"]

    def test_default_quick_set(self):
        config = MatrixConfig(quick=True)
        assert resolve_studies(config) == REGISTRY.quick_studies()

    def test_default_full_set(self):
        config = MatrixConfig()
        assert resolve_studies(config) == REGISTRY.list_studies()

    def test_unknown_study_rejected(self):
        config = MatrixConfig(studies=("no-such-study",))
        with pytest.raises(ModelError, match="no-such-study"):
            resolve_studies(config)


class TestRunMatrix:
    def test_unknown_estimator_rejected(self):
        config = MatrixConfig(studies=("illustrative",), estimators=("magic",))
        with pytest.raises(EstimationError, match="magic"):
            run_matrix(config)

    def test_nonpositive_repetitions_rejected(self):
        config = MatrixConfig(studies=("illustrative",), repetitions=0)
        with pytest.raises(EstimationError, match="repetitions"):
            run_matrix(config)

    def test_cell_records(self):
        result = run_matrix(QUICK_CONFIG)
        assert [(c.study, c.estimator) for c in result.cells] == [
            ("illustrative", "is"),
            ("illustrative", "imcis"),
            ("knuth-yao", "is"),
            ("knuth-yao", "imcis"),
        ]
        for cell in result.cells:
            assert cell.repetitions == 4
            assert cell.n_samples == 200
            assert cell.ci_low <= cell.ci_high
            assert 0.0 <= cell.coverage <= 1.0
            assert isinstance(cell.within_ci, bool)
            assert cell.ess_mean is not None
            assert cell.wall_time > 0.0
        records = result.records()
        assert set(records[0]) == set(RECORD_FIELDS)
        # The column outlives the removed engine selector, as in every
        # record written before it went.
        assert {record["backend"] for record in records} == {"auto"}
        assert "wall_time" not in records[0]
        assert "wall_time" in result.records(include_timing=True)[0]

    def test_crude_estimators_run(self):
        config = MatrixConfig(
            studies=("knuth-yao",),
            estimators=("mc", "bayes"),
            repetitions=2,
            n_samples=400,
            seed=11,
        )
        result = run_matrix(config)
        mc, bayes = result.cells
        assert mc.estimator == "mc" and bayes.estimator == "bayes"
        assert bayes.ess_mean is None
        assert 0.0 <= mc.estimate_mean <= 1.0

    def test_default_estimators_are_known(self):
        assert set(DEFAULT_ESTIMATORS) <= set(ESTIMATOR_NAMES)

    def test_adaptive_estimators_run(self):
        """The registry's adaptive ce estimator produces complete cells."""
        config = replace(QUICK_CONFIG, estimators=("ce",), n_samples=400)
        result = run_matrix(config)
        assert [(c.study, c.estimator) for c in result.cells] == [
            ("illustrative", "ce"),
            ("knuth-yao", "ce"),
        ]
        for cell in result.cells:
            assert cell.ess_mean is not None
            assert cell.ci_low <= cell.ci_high
            assert cell.estimate_mean > 0.0

    def test_adaptive_workers_bitwise_parity(self):
        config = replace(QUICK_CONFIG, estimators=("ce",), n_samples=400)
        serial = run_matrix(replace(config, workers=1))
        pooled = run_matrix(replace(config, workers=4))
        assert serial.to_csv_text() == pooled.to_csv_text()
        assert serial.to_json_text() == pooled.to_json_text()

    def test_ce_config_knobs_change_cells(self, monkeypatch):
        """The ce entry's constants actually reach the estimator."""
        config = replace(QUICK_CONFIG, estimators=("ce",), n_samples=400)
        base = run_matrix(config)
        monkeypatch.setattr(matrix_module, "CE_ROUNDS", 1)
        monkeypatch.setattr(matrix_module, "CE_SMOOTHING", 1.0)
        tuned = run_matrix(config)
        assert base.to_csv_text() != tuned.to_csv_text()


class TestCellKeys:
    """Store keys isolate each estimator's private tuning knobs."""

    def make_context(self, estimator: str, **overrides) -> _CellContext:
        fields = dict(
            study=REGISTRY.make_study("illustrative", rng=0, quick=True),
            estimator=estimator,
            n_samples=200,
            confidence=0.95,
            search=RandomSearchConfig(r_undefeated=60, record_history=False),
        )
        fields.update(overrides)
        return _CellContext(**fields)

    def test_ce_knobs_only_key_ce_cells(self, monkeypatch):
        before = {name: _cell_key(self.make_context(name), 11) for name in ("is", "ce")}
        monkeypatch.setattr(matrix_module, "CE_ROUNDS", 5)
        assert _cell_key(self.make_context("is"), 11) == before["is"]
        assert _cell_key(self.make_context("ce"), 11) != before["ce"]

    def test_search_rounds_only_key_imcis_cells(self):
        for name in ESTIMATOR_NAMES:
            base = _cell_key(self.make_context(name), 11)
            tuned = _cell_key(
                self.make_context(
                    name, search=RandomSearchConfig(r_undefeated=500, record_history=False)
                ),
                11,
            )
            assert (base != tuned) == (name == "imcis"), name

    def test_estimators_never_collide(self):
        keys = {_cell_key(self.make_context(name), 11) for name in ESTIMATOR_NAMES}
        assert len(keys) == len(ESTIMATOR_NAMES)

    def test_key_keeps_the_removed_selector_default(self, monkeypatch):
        """Keys still carry ``"backend": "auto"``, the removed engine
        selector's default, so cells stored before it went stay warm."""
        documents = []
        monkeypatch.setattr(matrix_module, "config_key", documents.append)
        _cell_key(self.make_context("is"), 11)
        assert documents[0]["backend"] == "auto"


class TestDeterminism:
    def test_workers_bitwise_parity(self, tmp_path):
        serial = run_matrix(replace(QUICK_CONFIG, workers=1))
        pooled = run_matrix(replace(QUICK_CONFIG, workers=4))
        assert serial.to_csv_text() == pooled.to_csv_text()
        assert serial.to_json_text() == pooled.to_json_text()
        assert serial.render_markdown() == pooled.render_markdown()
        serial_paths = serial.write(tmp_path / "serial")
        pooled_paths = pooled.write(tmp_path / "pooled")
        for kind in ("csv", "json", "markdown"):
            assert serial_paths[kind].read_bytes() == pooled_paths[kind].read_bytes()

    def test_single_study_reproduces_sweep_rows(self):
        sweep = run_matrix(QUICK_CONFIG)
        single = run_matrix(replace(QUICK_CONFIG, studies=("knuth-yao",)))
        sweep_rows = [r for r in sweep.records() if r["study"] == "knuth-yao"]
        assert sweep_rows == single.records()


class TestRendering:
    def test_write_emits_all_artifacts(self, tmp_path):
        result = run_matrix(QUICK_CONFIG)
        paths = result.write(tmp_path)
        assert sorted(p.name for p in paths.values()) == [
            "matrix.csv",
            "matrix.json",
            "matrix.md",
            "matrix_timing.csv",
        ]
        csv_text = paths["csv"].read_text()
        assert csv_text.splitlines()[0] == ",".join(RECORD_FIELDS)
        assert len(csv_text.splitlines()) == 1 + len(result.cells)
        markdown = paths["markdown"].read_text()
        assert markdown.startswith("| study | estimator |")
        timing = [line.split(",") for line in paths["timing"].read_text().splitlines()]
        assert timing[0] == ["study", "estimator", "backend", "wall_time", "traces_per_sec"]
        assert {row[2] for row in timing[1:]} == {"auto"}

    def test_render_ascii(self):
        result = run_matrix(QUICK_CONFIG)
        text = result.render()
        assert "Cross-study experiment matrix" in text
        assert "knuth-yao" in text


def _outcome_fields(outcomes):
    return [(o.estimate, o.interval, o.ess) for o in outcomes]


class TestJointIsCell:
    """An ``is`` cell runs its missing repetitions in one lockstep loop,
    each bitwise the repetition run alone."""

    SEED = 2018

    @pytest.fixture(scope="class")
    def context(self):
        return _CellContext(
            study=REGISTRY.make_study("group-repair", rng=0, quick=True),
            estimator="is",
            n_samples=500,
            confidence=0.95,
            search=None,
        )

    def lone(self, context, repetitions):
        """The cell's outcomes one ``run_importance_sampling`` call per seed."""
        study = context.study
        target = study.true_chain if study.true_chain is not None else study.center
        fields = []
        for seed in spawn_seeds(self.SEED, repetitions):
            sample = run_importance_sampling(
                study.proposal, study.formula, context.n_samples,
                np.random.default_rng(seed), original=target, keep_counts=False,
            )
            result = estimate_from_sample(target, sample, context.confidence)
            fields.append((result.estimate, result.interval, result.ess))
        return fields

    @pytest.fixture
    def generators_per_call(self, monkeypatch):
        """How many generators each simulation call of the matrix takes."""
        calls = []
        simulate = matrix_module.run_importance_sampling

        def counting(proposal, formula, n_samples, rngs, **kwargs):
            calls.append(len(rngs))
            return simulate(proposal, formula, n_samples, rngs, **kwargs)

        monkeypatch.setattr(matrix_module, "run_importance_sampling", counting)
        return calls

    def test_worker_invariant(self, context, generators_per_call):
        serial = run_cell_repetitions(context, 4, self.SEED, workers=1)
        assert generators_per_call == [4]
        pooled = run_cell_repetitions(context, 4, self.SEED, workers=2)
        lone = self.lone(context, 4)
        assert _outcome_fields(serial) == _outcome_fields(pooled) == lone

    def test_store_holding_two_of_four(self, context, generators_per_call, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_cell_repetitions(context, 2, self.SEED, store=store)
        cells = run_cell_repetitions(context, 4, self.SEED, store=store)
        # Only the two misses ran, jointly.
        assert generators_per_call == [2, 2]
        assert (store.stats.hits, store.stats.misses) == (2, 4)
        assert cells[:2] == first
        assert _outcome_fields(cells) == self.lone(context, 4)
