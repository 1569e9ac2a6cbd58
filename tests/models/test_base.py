"""Tests for the CaseStudy bundle."""

import dataclasses

import numpy as np
import pytest

from repro.core.dtmc import DTMC
from repro.errors import ModelError
from repro.importance.bounded import time_dependent_zero_variance
from repro.models import CaseStudy, illustrative
from repro.properties import parse_property


class TestCaseStudy:
    def test_center_property(self):
        study = illustrative.make_study()
        assert study.center is study.imc.center

    def test_fields_roundtrip(self):
        study = illustrative.make_study(n_samples=123, confidence=0.9)
        assert study.n_samples == 123
        assert study.confidence == 0.9
        assert isinstance(study, CaseStudy)

    def test_gamma_true_out_of_range_rejected(self):
        study = illustrative.make_study()
        with pytest.raises(ModelError, match="gamma_true"):
            dataclasses.replace(study, gamma_true=1.5)
        with pytest.raises(ModelError, match="gamma_true"):
            dataclasses.replace(study, gamma_true=-1e-9)

    def test_gamma_center_out_of_range_rejected(self):
        study = illustrative.make_study()
        with pytest.raises(ModelError, match="gamma_center"):
            dataclasses.replace(study, gamma_center=2.0)

    def test_gamma_true_none_allowed(self):
        study = illustrative.make_study()
        assert dataclasses.replace(study, gamma_true=None).gamma_true is None

    def test_non_stochastic_proposal_rejected(self):
        study = illustrative.make_study()
        # Reach the constructor through the validation-skipping path the
        # check exists for (with_labels-style construction).
        broken = np.array([[0.5, 0.3], [0.0, 1.0]])
        proposal = DTMC(broken, 0, {"goal": [1]}, _validate=False)
        with pytest.raises(ModelError, match="proposal row 0"):
            dataclasses.replace(study, proposal=proposal)

    def test_non_stochastic_unrolled_chain_rejected(self):
        """An unrolled proposal is validated on the chain it samples."""
        study = illustrative.make_study()
        proposal = time_dependent_zero_variance(study.center, parse_property('F<=3 "goal"'))
        matrix = proposal.chain.transitions.tolil()
        matrix[0, matrix.rows[0][0]] *= 0.5
        broken = DTMC(matrix.tocsr(), 0, proposal.chain.labels, _validate=False)
        with pytest.raises(ModelError, match="proposal row 0"):
            dataclasses.replace(study, proposal=dataclasses.replace(proposal, chain=broken))

    def test_imcis_summary_renders(self, rng):
        from repro.imcis import IMCISConfig, RandomSearchConfig, imcis_estimate

        study = illustrative.make_study()
        result = imcis_estimate(
            study.imc, study.proposal, study.formula, 400, rng,
            IMCISConfig(search=RandomSearchConfig(r_undefeated=60, record_history=False)),
        )
        text = result.summary()
        assert "IMCIS interval" in text
        assert "gamma range" in text
        assert str(result.n_total) in text
