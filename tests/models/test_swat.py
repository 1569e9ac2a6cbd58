"""Tests of the SWaT surrogate pipeline (Section VI-D substitution)."""

import numpy as np
import pytest

from repro.analysis import probability
from repro.models import swat


@pytest.fixture(scope="module")
def truth():
    return swat.ground_truth()


@pytest.fixture(scope="module")
def pipeline():
    # Small logs keep the test quick; margins are wider than the default.
    return swat.learn_pipeline(rng=7, log_traces=200, log_steps=1000)


class TestGroundTruth:
    def test_state_count(self, truth):
        """The paper's learnt model has 70 states."""
        assert truth.n_states == 70

    def test_rows_stochastic(self, truth):
        assert np.allclose(truth.dense().sum(axis=1), 1.0)

    def test_gamma_in_paper_range(self, truth):
        """γ(Â) reported in [5e-3, 2.5e-2]; the surrogate is calibrated to
        the Table II mid value ≈ 1.45e-2."""
        gamma = probability(truth, swat.overflow_formula())
        assert gamma == pytest.approx(1.45e-2, rel=0.1)

    def test_initial_state_is_under_repair(self, truth):
        mode, level = swat.state_of(truth.initial_state)
        assert mode == swat.REPAIRING
        assert level == swat.INITIAL_LEVEL

    def test_overflow_label(self, truth):
        mask = truth.label_mask("overflow")
        assert mask.sum() == swat.MODES  # one top bucket per mode

    def test_state_index_round_trip(self):
        for mode in range(swat.MODES):
            for level in range(swat.LEVELS):
                assert swat.state_of(swat.state_index(mode, level)) == (mode, level)

    def test_state_index_validation(self):
        with pytest.raises(ValueError):
            swat.state_index(9, 0)


class TestPipeline:
    def test_learned_bounds_contain_truth_on_observed_rows(self, pipeline):
        """Rows with solid observation counts must bracket the true rows
        (global containment can fail on barely-visited corner states —
        exactly the uncertainty IMCIS is built to carry)."""
        counts_matrix = pipeline.log_counts.to_matrix(70)
        row_totals = counts_matrix.sum(axis=1)
        checked = 0
        for state in np.flatnonzero(row_totals >= 500):
            support, lower, upper = pipeline.learned_imc.row_bounds(state)
            true_row = pipeline.truth.row(state)
            observed = counts_matrix[state] > 0
            for j in np.flatnonzero(observed):
                pos = np.flatnonzero(support == j)
                assert pos.size == 1
                assert lower[pos[0]] - 1e-9 <= true_row[j] <= upper[pos[0]] + 1e-9
                checked += 1
        assert checked > 50

    def test_gamma_center_close_to_truth(self, pipeline):
        assert pipeline.gamma_center == pytest.approx(pipeline.gamma_true, rel=0.5)

    def test_proposal_is_unrolled(self, pipeline):
        assert pipeline.proposal.bound == swat.BOUND
        assert pipeline.proposal.n_original == 70

    def test_is_estimation_consistent(self, pipeline, rng):
        from repro.importance import estimate_from_sample
        from repro.importance import run_importance_sampling

        sample = run_importance_sampling(pipeline.proposal, swat.overflow_formula(), 3000, rng)
        result = estimate_from_sample(pipeline.learned_imc.center, sample, 0.99)
        assert result.estimate == pytest.approx(pipeline.gamma_center, rel=0.2)

    def test_make_study(self):
        study = swat.make_study(rng=3, log_traces=100, log_steps=500)
        assert study.name == "swat"
        assert study.confidence == 0.99
        assert study.proposal.bound == 30
