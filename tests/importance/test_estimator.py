"""Unit tests for the IS estimator (Equation 7)."""

import math
import re

import numpy as np
import pytest

from repro.analysis import probability
from repro.core import DTMC
from repro.errors import EstimationError
from repro.importance import (
    ess_from_log_sums,
    estimate_from_sample,
    log_weight_sums,
    log_weights,
    moments_from_log_sums,
    run_importance_sampling,
)
from repro.models.registry import REGISTRY
from repro.properties import parse_property
from repro.importance.bounded import UnrolledProposal
from repro.importance.estimator import ISSample
from repro.smc import KernelBackend, make_plan

from tests.conftest import (
    aggregate_records,
    fused_is_estimate,
    illustrative_matrix,
    records_from_keys,
)
from tests.smc.oracle import oracle_sample


@pytest.fixture
def setup():
    original = DTMC(illustrative_matrix(0.05, 0.3), 0, labels={"goal": [2], "init": [0]})
    proposal = DTMC(illustrative_matrix(0.5, 0.6), 0, labels={"goal": [2], "init": [0]})
    formula = parse_property('F "goal"')
    return original, proposal, formula


class TestSampling:
    def test_sample_structure(self, setup, rng):
        _, proposal, formula = setup
        sample = run_importance_sampling(proposal, formula, 300, rng)
        assert sample.n_total == 300
        assert 0 < sample.n_satisfied <= 300
        assert len(sample.log_proposal) == sample.n_satisfied
        assert sample.mean_length > 0

    def test_log_weights_shape(self, setup, rng):
        original, proposal, formula = setup
        sample = run_importance_sampling(proposal, formula, 200, rng)
        weights = log_weights(original, sample)
        assert weights.shape == (sample.n_satisfied,)


class TestEstimation:
    def test_unbiasedness(self, setup, rng):
        original, proposal, formula = setup
        exact = probability(original, formula)
        result = fused_is_estimate(original, proposal, formula, 8000, rng)
        assert result.estimate == pytest.approx(exact, rel=0.15)
        assert result.method == "importance-sampling"

    def test_interval_usually_contains_exact(self, setup):
        original, proposal, formula = setup
        exact = probability(original, formula)
        hits = sum(
            fused_is_estimate(
                original, proposal, formula, 2000, np.random.default_rng(seed)
            ).interval.contains(exact)
            for seed in range(20)
        )
        assert hits >= 16

    def test_zero_satisfied_gives_zero(self, setup, rng):
        original, proposal, _ = setup
        impossible = parse_property('F<=1 "goal"')
        result = fused_is_estimate(original, proposal, impossible, 100, rng)
        assert result.estimate == 0.0
        assert result.interval.width == 0.0

    def test_moments_population_variance(self):
        log_w = np.log(np.array([0.5, 0.25]))
        gamma, sigma = moments_from_log_sums(*log_weight_sums(log_w), 4)
        assert gamma == pytest.approx(0.75 / 4)
        second = (0.25 + 0.0625) / 4
        assert sigma == pytest.approx(np.sqrt(second - gamma**2))

    def test_moments_empty(self):
        gamma, sigma = moments_from_log_sums(*log_weight_sums(np.empty(0)), 100)
        assert gamma == 0.0 and sigma == 0.0

    def test_estimate_from_sample_reuse(self, setup, rng):
        """The same sample evaluated against two originals: the estimates
        differ but share the support — Algorithm 1's key property."""
        original, proposal, formula = setup
        other = DTMC(illustrative_matrix(0.08, 0.3), 0, labels={"goal": [2]})
        sample = run_importance_sampling(proposal, formula, 3000, rng)
        first = estimate_from_sample(original, sample)
        second = estimate_from_sample(other, sample)
        assert first.estimate != second.estimate
        assert first.n_samples == second.n_samples == 3000

    def test_invalid_sample_size(self, setup):
        original, proposal, formula = setup
        with pytest.raises(EstimationError):
            run_importance_sampling(proposal, formula, 0)


class TestEffectiveSampleSize:
    def test_equal_weights_give_full_ess(self):
        log_w = np.full(50, -3.0)
        assert ess_from_log_sums(*log_weight_sums(log_w)) == pytest.approx(50.0)

    def test_empty_weights(self):
        assert ess_from_log_sums(*log_weight_sums(np.empty(0))) == 0.0

    def test_degenerate_weights_collapse(self):
        # One dominant weight: ESS approaches 1.
        log_w = np.array([0.0, -30.0, -30.0, -30.0])
        assert ess_from_log_sums(*log_weight_sums(log_w)) == pytest.approx(1.0, abs=1e-10)

    def test_estimate_reads_each_log_sum_once(self, setup, rng, monkeypatch):
        """The moments and the ESS share two log-sum-exps, and equal what
        separate ones give, bit for bit."""
        from repro.importance import estimator
        from repro.util.stats import logsumexp

        original, proposal, formula = setup
        sample = run_importance_sampling(proposal, formula, 500, rng, original=original)
        calls = []

        def counted(values):
            calls.append(values.size)
            return logsumexp(values)

        monkeypatch.setattr(estimator, "logsumexp", counted)
        result = estimate_from_sample(original, sample)
        assert len(calls) == 2
        log_w = log_weights(original, sample)
        assert result.ess == float(np.exp(2.0 * logsumexp(log_w) - logsumexp(2.0 * log_w)))
        gamma = math.exp(float(logsumexp(log_w)) - math.log(sample.n_total))
        assert result.estimate == gamma

    def test_estimate_carries_ess(self, setup, rng):
        original, proposal, formula = setup
        result = fused_is_estimate(original, proposal, formula, 500, rng)
        assert result.ess is not None
        assert 0 < result.ess <= result.n_satisfied + 1e-9

    def test_perfect_proposal_ess_is_sample_size(self):
        from repro.models import illustrative

        proposal = illustrative.perfect_proposal()
        center = illustrative.illustrative_chain(
            illustrative.A_HAT, illustrative.C_HAT
        )
        sample = run_importance_sampling(
            proposal, illustrative.reach_goal_formula(), 400, rng=7
        )
        # Every trace succeeds and carries the constant weight γ.
        assert sample.n_satisfied == 400
        assert sample.effective_sample_size(center) == pytest.approx(400.0)

    def test_monte_carlo_has_no_ess(self, rng):
        from repro.smc import monte_carlo_estimate

        chain = DTMC(illustrative_matrix(0.3, 0.4), 0, labels={"goal": [2]})
        result = monte_carlo_estimate(chain, parse_property('F "goal"'), 200, rng)
        assert result.ess is None


class TestChainSizeMismatch:
    def test_counts_over_another_state_count_rejected(self, setup):
        """A 5-state proposal whose extra state no trace visits still
        cannot be weighted against a 4-state original."""
        original, _, formula = setup
        matrix = np.eye(5)
        matrix[:4, :4] = illustrative_matrix(0.5, 0.6)
        proposal = DTMC(matrix, 0, labels={"goal": [2]})
        sample = run_importance_sampling(proposal, formula, 200, np.random.default_rng(1))
        assert 0 < sample.n_satisfied
        with pytest.raises(EstimationError, match="has 4 states.*over 5"):
            estimate_from_sample(original, sample)


class TestAbsoluteContinuityError:
    """A trace impossible under the target names what makes it so."""

    @pytest.fixture
    def leaky(self):
        # The proposal allows 0 → 2, which the original forbids.
        original = DTMC(illustrative_matrix(0.3, 0.4), 0, labels={"goal": [2]})
        matrix = illustrative_matrix(0.3, 0.4)
        matrix[0] = [0.0, 0.3, 0.2, 0.5]
        proposal = DTMC(matrix, 0, labels={"goal": [2]})
        return original, proposal, parse_property('F "goal"')

    @pytest.mark.parametrize("fused", [False, True])
    def test_counts_name_the_transition(self, leaky, fused):
        original, proposal, formula = leaky
        sample = run_importance_sampling(
            proposal, formula, 400, np.random.default_rng(4),
            original=original if fused else None,
        )
        counts = aggregate_records(sample.step_records, sample.trace_ids)
        users = int(np.count_nonzero((counts.sources == 0) & (counts.targets == 2)))
        assert users > 0
        with pytest.raises(EstimationError) as info:
            log_weights(original, sample)
        message = str(info.value)
        assert "(0, 2)" in message
        assert f"taken by {users} of {sample.n_satisfied} successful traces" in message

    def test_fused_only_counts_the_traces(self, leaky):
        original, proposal, formula = leaky
        sample = run_importance_sampling(
            proposal, formula, 400, np.random.default_rng(4),
            original=original, keep_counts=False,
        )
        impossible = int(np.count_nonzero(np.isneginf(sample.log_numerator)))
        assert impossible > 0
        with pytest.raises(EstimationError, match=f"{impossible} of {sample.n_satisfied} "):
            estimate_from_sample(original, sample)

    def test_fused_only_sample_serves_only_its_chain(self, setup):
        original, proposal, formula = setup
        sample = run_importance_sampling(
            proposal, formula, 200, np.random.default_rng(1),
            original=original, keep_counts=False,
        )
        assert sample.step_records is None
        with pytest.raises(EstimationError, match="keep_counts=True"):
            log_weights(proposal, sample)


    @staticmethod
    def _sample_of(paths, successful):
        """A count-only sample of the 4-state *paths* (one per trace)."""
        traces = [k for k, path in enumerate(paths) for _ in path[1:]]
        keys = [s * 4 + t for path in paths for s, t in zip(path, path[1:])]
        ids = np.flatnonzero(successful)
        records = records_from_keys(
            len(paths), 4,
            np.array(traces, dtype=np.int64), np.array(keys, dtype=np.int64),
        )
        return ISSample(
            len(paths), np.zeros(ids.size), step_records=records, trace_ids=ids
        )

    @pytest.mark.parametrize(
        ("paths", "successful", "named"),
        [
            # 0 → 1 → 1 → 0 → 2 takes (1, 1) first in time, but (0, 2)
            # has the smaller key; the failed trace 0 is ignored.
            (
                [[0, 1, 1, 3], [0, 1, 1, 0, 2], [0, 2]],
                [False, True, True],
                "transition (0, 2) has probability zero under the original "
                "chain and is taken by 2 of 2 successful traces",
            ),
            # Users are traces, not records: trace 0 takes (1, 1) twice.
            (
                [[0, 1, 1, 1, 2], [0, 1, 1, 2]],
                [True, True],
                "transition (1, 1) has probability zero under the original "
                "chain and is taken by 2 of 2 successful traces",
            ),
        ],
    )
    def test_names_the_first_transition_in_trace_key_order(
        self, paths, successful, named
    ):
        """With two impossible transitions, the message names the first in
        ``(trace, source·n + target)`` order over the successful traces and
        how many successful traces take it."""
        original = DTMC(illustrative_matrix(0.3, 0.4), 0, labels={"goal": [2]})
        with pytest.raises(EstimationError, match=re.escape(named)):
            log_weights(original, self._sample_of(paths, successful))


def _count_path(sample: ISSample) -> ISSample:
    """*sample* without its fused numerator: its weights bin the records."""
    return ISSample(
        sample.n_total, sample.log_proposal,
        step_records=sample.step_records, trace_ids=sample.trace_ids,
    )


def _assert_count_path_is_fused(original, sample):
    assert sample.n_satisfied > 0 and sample.step_records is not None
    fused = log_weights(original, sample)
    assert log_weights(original, _count_path(sample)).tobytes() == fused.tobytes()


class TestRecordWeights:
    """Weights binned from the step records equal the fused numerators
    bitwise: ``np.bincount`` adds each trace's terms in simulation time
    from ``0.0``, as the fused accumulator does."""

    @pytest.mark.parametrize("backend", ["kernel", "sequential"])
    @pytest.mark.parametrize("name", REGISTRY.quick_studies())
    def test_count_path_equals_fused_bitwise(self, name, backend):
        """``"sequential"`` samples with the scalar reference walk, whose
        records key their own entry table, not the kernel's CSR."""
        study = REGISTRY.make_study(name, rng=2018, quick=True)
        sample_with = oracle_sample if backend == "sequential" else run_importance_sampling
        sample = sample_with(study.proposal, study.formula, 200, 3, original=study.center)
        _assert_count_path_is_fused(study.center, sample)

    @pytest.mark.parametrize("name", ["group-repair", "swat"])
    def test_chunked_batches_equal_fused_bitwise(self, name):
        """Lockstep chunks of 300 traces concatenate into records that
        still bin to the fused numerators (swat's unrolled records
        projected onto the original chain)."""
        study = REGISTRY.make_study(name, rng=2018, quick=True)
        proposal, formula, state_map, n_states = study.proposal, study.formula, None, None
        plan_args = {}
        if isinstance(proposal, UnrolledProposal):
            state_map, n_states = proposal.state_map(), proposal.n_original
            plan_args = {"futility": proposal.futility, "weight_state_map": state_map}
            proposal, formula = proposal.chain, proposal.formula
        plan = make_plan(
            proposal, formula, count_mode="satisfied", record_log_prob=True,
            weight_chain=study.center, **plan_args,
        )
        batch = KernelBackend(plan, max_ensemble=300).run_ensemble(
            1000, np.random.default_rng(7)
        )
        sample = ISSample.from_ensemble(
            batch, state_map=state_map, n_states=n_states, weight_chain=study.center
        )
        _assert_count_path_is_fused(study.center, sample)
