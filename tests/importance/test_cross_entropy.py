"""Unit tests for the cross-entropy proposal optimiser."""

import hashlib

import numpy as np
import pytest
from scipy import sparse

from repro.analysis import probability
from repro.core import DTMC
from repro.errors import EstimationError
from repro.importance import (
    CrossEntropyEstimate,
    cross_entropy_estimate,
    cross_entropy_proposal,
    cross_entropy_update,
    importance_sampling_estimate,
    log_weights,
    run_importance_sampling,
    zero_variance_proposal,
)
from repro.models.registry import REGISTRY
from repro.properties import parse_property

from tests.conftest import illustrative_matrix, trace_counts


@pytest.fixture
def chain():
    return DTMC(illustrative_matrix(0.2, 0.3), 0, labels={"goal": [2], "init": [0]})


class TestIteration:
    def test_success_rate_increases(self, chain, rng):
        formula = parse_property('F "goal"')
        result = cross_entropy_proposal(
            chain, formula, n_iterations=4, samples_per_iteration=1500, rng=rng
        )
        successes = result.n_satisfied_per_iteration
        assert result.converged
        assert successes[-1] > successes[0]

    def test_estimator_variance_shrinks(self, chain, rng):
        formula = parse_property('F "goal"')
        result = cross_entropy_proposal(
            chain, formula, n_iterations=4, samples_per_iteration=1500, rng=rng
        )
        crude = importance_sampling_estimate(chain, chain, formula, 2000, rng)
        tuned = importance_sampling_estimate(chain, result.proposal, formula, 2000, rng)
        assert tuned.std_dev < crude.std_dev

    def test_estimates_stay_unbiased(self, chain, rng):
        formula = parse_property('F "goal"')
        result = cross_entropy_proposal(
            chain, formula, n_iterations=3, samples_per_iteration=1500, rng=rng
        )
        exact = probability(chain, formula)
        tuned = importance_sampling_estimate(chain, result.proposal, formula, 4000, rng)
        assert tuned.estimate == pytest.approx(exact, rel=0.1)

    def test_converges_towards_zero_variance(self, chain, rng):
        """The CE fixpoint is the zero-variance measure; after a few
        iterations the proposal's success rows should be close to it."""
        formula = parse_property('F "goal"')
        zv = zero_variance_proposal(chain, formula)
        result = cross_entropy_proposal(
            chain,
            formula,
            n_iterations=6,
            samples_per_iteration=3000,
            rng=rng,
            support_floor=0.0,
        )
        assert abs(result.proposal.probability(1, 2) - zv.probability(1, 2)) < 0.12

    def test_initial_proposal_seeding(self, chain, rng):
        formula = parse_property('F "goal"')
        zv = zero_variance_proposal(chain, formula)
        result = cross_entropy_proposal(
            chain, formula, n_iterations=1, samples_per_iteration=400,
            rng=rng, initial_proposal=zv,
        )
        assert result.n_satisfied_per_iteration[0] == 400

    def test_invalid_iterations(self, chain):
        with pytest.raises(EstimationError):
            cross_entropy_proposal(chain, parse_property('F "goal"'), n_iterations=0)


class TestUpdate:
    def test_no_successes_keeps_proposal(self, chain, rng):
        formula = parse_property('F<=1 "goal"')  # impossible
        sample = run_importance_sampling(chain, formula, 50, rng)
        updated = cross_entropy_update(chain, chain, sample.count_arrays, np.empty(0))
        assert updated.close_to(chain)

    def test_support_floor_preserves_transitions(self, chain, rng):
        formula = parse_property('F "goal"')
        sample = run_importance_sampling(chain, formula, 800, rng)
        log_w = log_weights(chain, sample)
        updated = cross_entropy_update(
            chain, chain, sample.count_arrays, log_w, support_floor=0.1
        )
        # Every original transition of updated rows keeps positive mass.
        for state in range(4):
            orig_support = set(int(j) for j in chain.successors(state))
            new_support = set(int(j) for j in updated.successors(state))
            assert orig_support <= new_support

    def test_rows_stochastic_after_update(self, chain, rng):
        formula = parse_property('F "goal"')
        sample = run_importance_sampling(chain, formula, 800, rng)
        log_w = log_weights(chain, sample)
        updated = cross_entropy_update(chain, chain, sample.count_arrays, log_w)
        assert np.allclose(updated.dense().sum(axis=1), 1.0)

    def test_smoothing_bounds(self, chain):
        with pytest.raises(EstimationError):
            cross_entropy_update(
                chain, chain, trace_counts([]), np.empty(0), smoothing=0.0
            )


class TestSafeguards:
    """Edge cases of the CE safeguards: support floor and smoothing."""

    def test_floor_keeps_never_observed_transition(self, chain):
        """A transition no successful trace ever takes keeps positive mass.

        The hand-crafted count tables only ever leave state 0 via state 1 —
        the 0→3 failure edge is *never observed* — yet with a positive
        support floor the updated proposal must keep sampling it, or the
        likelihood ratio against the original chain becomes unbounded.
        """
        counts = [{(0, 1): 1, (1, 2): 1}, {(0, 1): 2, (1, 0): 1, (1, 2): 1}]
        log_w = np.zeros(2)
        updated = cross_entropy_update(
            chain, chain, trace_counts(counts), log_w, support_floor=0.1
        )
        assert updated.probability(0, 3) > 0.0
        assert updated.probability(0, 3) == pytest.approx(0.1 * chain.probability(0, 3))

    def test_zero_floor_starves_unobserved_transition(self, chain):
        """Without the floor the same update drops the unobserved edge."""
        counts = [{(0, 1): 1, (1, 2): 1}]
        updated = cross_entropy_update(
            chain, chain, trace_counts(counts), np.zeros(1), support_floor=0.0
        )
        assert updated.probability(0, 3) == 0.0

    def test_smoothing_zero_rejected(self, chain):
        """λ=0 would ignore every sample — a misconfiguration, not a run."""
        with pytest.raises(EstimationError, match="smoothing"):
            cross_entropy_update(
                chain, chain, trace_counts([]), np.empty(0), smoothing=0.0
            )
        with pytest.raises(EstimationError, match="smoothing"):
            cross_entropy_estimate(
                chain, parse_property('F "goal"'), 100, rng=0, smoothing=0.0
            )

    def test_smoothing_one_replaces_row(self, chain):
        """λ=1 is full replacement: the current proposal leaves no trace."""
        counts = [{(1, 2): 3, (1, 0): 1}]
        current = zero_variance_proposal(chain, parse_property('F "goal"'), mixing=0.5)
        updated = cross_entropy_update(
            chain, current, trace_counts(counts), np.zeros(1), smoothing=1.0,
            support_floor=0.0,
        )
        assert updated.probability(1, 2) == pytest.approx(0.75)
        assert updated.probability(1, 0) == pytest.approx(0.25)

    def test_fractional_smoothing_interpolates(self, chain):
        """0<λ<1 lands between the current row and the full-replacement row."""
        counts = [{(1, 2): 3, (1, 0): 1}]
        full = cross_entropy_update(
            chain, chain, trace_counts(counts), np.zeros(1), smoothing=1.0,
            support_floor=0.0,
        )
        half = cross_entropy_update(
            chain, chain, trace_counts(counts), np.zeros(1), smoothing=0.5,
            support_floor=0.0,
        )
        expected = 0.5 * full.probability(1, 2) + 0.5 * chain.probability(1, 2)
        assert half.probability(1, 2) == pytest.approx(expected)


class TestCrossEntropyEstimate:
    """The iterated optimise-then-estimate loop."""

    def test_budget_split_and_metadata(self, chain, rng):
        formula = parse_property('F "goal"')
        ce = cross_entropy_estimate(
            chain, formula, 1000, rng, rounds=2, refine_fraction=0.4
        )
        assert isinstance(ce, CrossEntropyEstimate)
        assert ce.rounds == 2
        assert ce.refine_samples == 400
        assert ce.final_samples == 600
        assert ce.refine_samples + ce.final_samples == 1000
        assert len(ce.n_satisfied_per_round) == 2
        assert ce.result.method == "cross-entropy"
        assert ce.proposal is not None

    def test_estimate_matches_exact(self, chain):
        formula = parse_property('F "goal"')
        exact = probability(chain, formula)
        ce = cross_entropy_estimate(chain, formula, 4000, rng=3, rounds=2)
        assert ce.result.estimate == pytest.approx(exact, rel=0.1)
        assert ce.result.interval.contains(exact)

    def test_zero_success_round_raises(self, rng):
        """A dead refinement round raises — no NaN weights propagate."""
        rare = DTMC(
            illustrative_matrix(1e-7, 1e-7), 0, labels={"goal": [2], "init": [0]}
        )
        with pytest.raises(EstimationError, match="no successful trace"):
            cross_entropy_estimate(rare, parse_property('F "goal"'), 200, rng, rounds=1)

    def test_invalid_budgets_rejected(self, chain):
        formula = parse_property('F "goal"')
        with pytest.raises(EstimationError, match="n_samples"):
            cross_entropy_estimate(chain, formula, 0, rng=0)
        with pytest.raises(EstimationError, match="rounds"):
            cross_entropy_estimate(chain, formula, 100, rng=0, rounds=0)
        with pytest.raises(EstimationError, match="refine_fraction"):
            cross_entropy_estimate(chain, formula, 100, rng=0, refine_fraction=1.0)
        with pytest.raises(EstimationError, match="budget too small"):
            cross_entropy_estimate(chain, formula, 4, rng=0, rounds=3)

    def test_deterministic_under_seed(self, chain):
        formula = parse_property('F "goal"')
        first = cross_entropy_estimate(chain, formula, 600, rng=7, rounds=2)
        second = cross_entropy_estimate(chain, formula, 600, rng=7, rounds=2)
        assert first.result.estimate == second.result.estimate
        assert first.n_satisfied_per_round == second.n_satisfied_per_round

    def test_zero_variance_seed_converges_on_repair_study(self):
        """Seeded from a zero-variance proposal, CE covers γ on group-repair.

        The group-repair event (γ ≈ 1.2e-7) is far too rare for CE started
        from the original chain — the documented remedy is seeding with a
        zero-variance proposal, which must make the loop converge.
        """
        study = REGISTRY.make_study("group-repair", rng=2018, quick=True)
        target = study.true_chain if study.true_chain is not None else study.center
        zv = zero_variance_proposal(target, study.formula, mixing=0.2)
        ce = cross_entropy_estimate(
            target,
            study.formula,
            2000,
            rng=2018,
            rounds=2,
            smoothing=0.5,
            initial_proposal=zv,
        )
        assert all(n > 0 for n in ce.n_satisfied_per_round)
        assert ce.result.interval.contains(study.gamma_true)


#: SHA-256 (see :func:`_ce_digest`) of the cross-entropy runs of
#: :class:`TestGoldenDigest`, generated at version 0.11.0 — before the CE
#: statistics were read off count arrays instead of walking per-trace
#: dict tables — so it pins that the array sums are bitwise the walk's.
GOLDEN_CE_DIGEST = "4b6cb55f3bd75cf70db95ddf5c463b32a7276bdce6b6d2be41d235c47c71a432"


def _ce_digest():
    """Hash estimate, CI, ESS and refined CSR arrays of two quick studies."""
    digest = hashlib.sha256()
    for name in ("illustrative", "group-repair"):
        study = REGISTRY.get(name).build(quick=True)
        target = study.true_chain if study.true_chain is not None else study.center
        ce = cross_entropy_estimate(
            target, study.formula, 2000, rng=2018, rounds=2,
            smoothing=0.5, support_floor=0.05, initial_proposal=study.proposal,
        )
        result = ce.result
        digest.update(
            np.array(
                [result.estimate, result.interval.low, result.interval.high, result.ess],
                dtype=np.float64,
            ).tobytes()
        )
        csr = sparse.csr_matrix(ce.proposal.transitions)
        for part in (
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.astype(np.float64),
        ):
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


class TestGoldenDigest:
    def test_cross_entropy_matches_golden_digest(self):
        """CE estimates and refined proposals do not drift, bit for bit.

        A change here changes every ``ce`` result: regenerate the digest
        only together with a results-version bump.
        """
        assert _ce_digest() == GOLDEN_CE_DIGEST
