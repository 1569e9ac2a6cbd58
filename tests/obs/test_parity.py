"""The no-perturbation invariant, held bitwise.

Observability observes — it must never consume RNG draws, change store
keys or alter a single result byte. These tests run the same estimators
with tracing fully off and fully on (ring + JSONL sink) and compare
every numeric output field with ``==`` on floats, i.e. bitwise.
"""

import numpy as np
import pytest

from repro.core import DTMC
from repro.obs import metrics, trace
from repro.properties import parse_property

from tests.conftest import fused_is_estimate, illustrative_matrix


@pytest.fixture()
def setup():
    original = DTMC(illustrative_matrix(0.05, 0.3), 0, labels={"goal": [2], "init": [0]})
    proposal = DTMC(illustrative_matrix(0.5, 0.6), 0, labels={"goal": [2], "init": [0]})
    formula = parse_property('F "goal"')
    return original, proposal, formula


@pytest.fixture()
def traced(tmp_path):
    """Turn tracing (ring + sink) on for the duration of the context."""
    prior = trace.status()

    class _Toggle:
        def on(self):
            trace.reset()
            trace.configure(enabled=True, trace_file=str(tmp_path / "trace.jsonl"))

        def off(self):
            trace.configure(enabled=False, trace_file="")
            trace.reset()

    toggle = _Toggle()
    yield toggle
    trace.configure(
        enabled=bool(prior["enabled"]), trace_file=str(prior["trace_file"] or "")
    )
    trace.reset()


def result_fields(result):
    return (
        result.estimate,
        result.std_dev,
        result.n_samples,
        result.n_satisfied,
        result.interval.low,
        result.interval.high,
        result.ess,
    )


def test_is_estimate_bitwise_invariant_to_tracing(setup, traced):
    original, proposal, formula = setup
    traced.off()
    baseline = fused_is_estimate(original, proposal, formula, 1500, np.random.default_rng(7))
    traced.on()
    traced_run = fused_is_estimate(original, proposal, formula, 1500, np.random.default_rng(7))
    assert len(trace.events()) > 0  # tracing demonstrably captured the run
    traced.off()
    assert result_fields(baseline) == result_fields(traced_run)


def test_cross_entropy_bitwise_invariant_to_tracing(setup, traced):
    """CE estimates and refined proposals ignore tracing; each ``ce-round``
    event reports the largest weight's share of the round's weight sum."""
    from repro.importance import cross_entropy_estimate

    original, proposal, formula = setup

    def run():
        ce = cross_entropy_estimate(
            original, formula, 2000, np.random.default_rng(9), rounds=2,
            smoothing=0.5, initial_proposal=proposal,
        )
        return result_fields(ce.result), ce.proposal.dense().tobytes()

    traced.off()
    baseline = run()
    traced.on()
    traced_run = run()
    rounds = [e["fields"] for e in trace.events() if e["name"] == "ce-round"]
    traced.off()
    assert baseline == traced_run
    assert [fields["round"] for fields in rounds] == [1, 2]
    for fields in rounds:
        # max w / Σ w lies between 1/ESS and 1/√ESS, ESS = (Σ w)² / Σ w².
        share, ess = fields["max_weight_share"], fields["ess"]
        assert 1.0 / ess <= share * (1 + 1e-12)
        assert share <= 1.0 / np.sqrt(ess) * (1 + 1e-12) < 1.0


def test_parallel_fanout_bitwise_invariant_to_tracing(traced):
    """The repetition pool, traced in parent and workers, changes no byte."""
    from repro.experiments.matrix import MatrixConfig, run_matrix

    config = MatrixConfig(
        studies=("illustrative",),
        estimators=("is", "imcis"),
        repetitions=4,
        n_samples=300,
        search_rounds=60,
        quick=True,
        seed=3,
        workers=2,
    )
    traced.off()
    baseline = run_matrix(config)
    traced.on()
    traced_run = run_matrix(config)
    traced.off()
    assert baseline.to_csv_text() == traced_run.to_csv_text()


def test_imcis_search_bitwise_invariant_to_tracing(setup, traced):
    """The per-block ``candidate-sample``/``objective`` spans perturb nothing,
    and each ``candidate-sample`` span counts the Dirichlet vectors and gamma
    variates it drew."""
    from repro.core import IMC
    from repro.imcis import IMCISConfig, RandomSearchConfig, imcis_estimate

    original, proposal, formula = setup
    eps = np.zeros((4, 4))
    eps[0, 1] = eps[0, 3] = 0.02
    eps[1, 2] = eps[1, 0] = 0.05
    imc = IMC.from_center(original, eps)
    config = IMCISConfig(search=RandomSearchConfig(r_undefeated=150))

    def run():
        result = imcis_estimate(imc, proposal, formula, 800, np.random.default_rng(5), config)
        search = result.search
        return (
            result.interval.low,
            result.interval.high,
            search.rounds_total,
            search.rounds_to_min,
            search.rounds_to_max,
            search.log_a_min.tolist(),
            search.log_a_max.tolist(),
        )

    vectors = metrics.registry().counter("repro_dirichlet_vectors_total")
    variates = metrics.registry().counter("repro_dirichlet_variates_total")
    traced.off()
    baseline = run()
    traced.on()
    before = vectors.value(), variates.value()
    traced_run = run()
    events = trace.events()
    traced.off()
    assert {"optimize", "candidate-sample", "objective"} <= {e["name"] for e in events}
    assert baseline == traced_run
    # Each block's span carries the Dirichlet vectors and gamma variates it drew.
    spans = [e["fields"] for e in events if e["name"] == "candidate-sample"]
    per_block = [fields["vectors"] for fields in spans]
    assert min(per_block) > 0
    assert sum(per_block) == vectors.value() - before[0]
    per_block = [fields["variates"] for fields in spans]
    assert min(per_block) > 0
    assert sum(per_block) == variates.value() - before[1]
