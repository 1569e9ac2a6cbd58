"""Single source of truth for estimator names.

``repro.experiments.matrix.ESTIMATORS`` is the one registry: the matrix
runner, the CLI parser and the service request validator must read it at
use time — never a frozen copy — so registering a new estimator updates
every surface at once. The drift test below proves it by *injecting* an
estimator into the table and observing all three surfaces move.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.errors import ServiceError
from repro.experiments import matrix as matrix_experiments
from repro.service.jobs import JobRequest
from repro.smc.results import ConfidenceInterval


def _run_shiny(context, rng):
    """A fake estimator: a fixed, deliberately vague answer."""
    return matrix_experiments._CellOutcome(0.5, ConfidenceInterval(0.0, 1.0, 0.95), None)


@pytest.fixture
def extended_registry(monkeypatch):
    """The estimator table with a fake ``shiny`` estimator added."""
    shiny = matrix_experiments.Estimator(_run_shiny)
    monkeypatch.setitem(matrix_experiments.ESTIMATORS, "shiny", shiny)
    return tuple(matrix_experiments.ESTIMATORS)


class TestSingleSource:
    def test_cli_matrix_help_lists_all_names(self):
        parser = build_parser()
        matrix_help = parser.format_help()
        # Drill into the matrix subparser's --estimators help text.
        text = _matrix_estimators_help()
        for name in matrix_experiments.ESTIMATOR_NAMES:
            assert name in text, f"{name} missing from --estimators help"
        assert matrix_help  # the top-level parser builds cleanly

    def test_cli_submit_choices_match_registry(self):
        action = _submit_estimator_action()
        assert tuple(action.choices) == matrix_experiments.ESTIMATOR_NAMES

    def test_service_error_lists_registry(self):
        with pytest.raises(ServiceError) as err:
            JobRequest.from_payload({"study": "illustrative", "estimator": "vibes"})
        for name in matrix_experiments.ESTIMATOR_NAMES:
            assert name in str(err.value)


class TestDrift:
    """Registering a new estimator updates all three surfaces."""

    def test_matrix_validation_accepts_new_name(self, extended_registry):
        # Validation passes and the cell dispatches through the table.
        config = matrix_experiments.MatrixConfig(
            studies=("illustrative",), estimators=("shiny",), repetitions=2, n_samples=50
        )
        (cell,) = matrix_experiments.run_matrix(config).cells
        assert cell.estimator == "shiny"
        assert cell.estimate_mean == 0.5

    def test_service_accepts_new_name_and_lists_it(self, extended_registry):
        request = JobRequest.from_payload(
            {"study": "illustrative", "estimator": "shiny"}
        )
        assert request.estimator == "shiny"
        with pytest.raises(ServiceError, match="shiny"):
            JobRequest.from_payload({"study": "illustrative", "estimator": "vibes"})

    def test_cli_surfaces_new_name(self, extended_registry):
        assert "shiny" in _matrix_estimators_help()
        assert "shiny" in _submit_estimator_action().choices


def _subparser(parser, name):
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            if name in action.choices:
                return action.choices[name]
    raise AssertionError(f"no {name} subcommand")


def _matrix_estimators_help() -> str:
    matrix = _subparser(build_parser(), "matrix")
    for action in matrix._actions:
        if "--estimators" in getattr(action, "option_strings", ()):
            return action.help or ""
    raise AssertionError("matrix has no --estimators option")


def _submit_estimator_action():
    submit = _subparser(build_parser(), "submit")
    for action in submit._actions:
        if "--estimator" in getattr(action, "option_strings", ()):
            return action
    raise AssertionError("submit has no --estimator option")
