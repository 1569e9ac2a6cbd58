"""Unit tests of the batch simulation engine, and its parity with the
scalar reference walk.

The key invariants: with the same RNG stream and one-trace batches the
kernel backend and the scalar walk of :mod:`tests.smc.oracle` realise
*identical* traces (count tables and log-probabilities agree exactly),
and at scale their estimates agree within statistical tolerance.
"""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy import sparse

from repro.core import DTMC
from repro.errors import EstimationError, ModelError, PropertyError
from repro.importance import run_importance_sampling
from repro.importance.bounded import UnrolledProposal
from repro.models import illustrative
from repro.models.registry import REGISTRY
from repro.obs import trace as obs_trace
from repro.properties import parse_property
from repro.smc import engine, kernels
from repro.smc import (
    CompiledCSR,
    EnsembleResult,
    KernelBackend,
    make_plan,
    monte_carlo_estimate,
)

from tests.conftest import (
    aggregate_records,
    illustrative_matrix,
    random_dtmc,
    records_from_keys,
)
from tests.smc.oracle import ScalarWalk

#: Formulas covering the mask-compilable fragment: unbounded/bounded until,
#: state check, bounded globally, and the repair property's exempt shape.
VECTOR_FORMULAS = [
    'F "goal"',
    'F<=4 "goal"',
    '!"fail" U "goal"',
    '!"fail" U<=6 "goal"',
    '"init"',
    'G<=3 !"fail"',
    '"init" & (X !"init" U "goal")',
    'X "goal"',
]


def _labelled_chain(rng: np.random.Generator, n_states: int = 6) -> DTMC:
    return random_dtmc(rng, n_states, sparsity=0.6).with_labels(
        {"init": [0], "goal": [n_states - 1], "fail": [1]}
    )


class TestCompiledCSR:
    def test_matches_lazy_rows(self, small_chain):
        """Each compiled row holds the chain's own row entries."""
        csr = CompiledCSR.from_chain(small_chain)
        for s in range(small_chain.n_states):
            indices, probs = small_chain.row_entries(s)
            sl = slice(csr.indptr[s], csr.indptr[s + 1])
            np.testing.assert_array_equal(csr.indices[sl], indices)
            np.testing.assert_allclose(csr.cumprobs[sl], np.cumsum(probs))
            np.testing.assert_allclose(csr.logprobs[sl], np.log(probs))

    def test_rounding_noise_tolerated(self, small_chain):
        # Validated chains compile; each row's last cumulative weight is pinned to 1.
        csr = CompiledCSR.from_chain(small_chain)
        np.testing.assert_array_equal(csr.cumprobs[csr.indptr[1:] - 1], 1.0)

    def test_sparse_and_dense_agree(self, small_chain):
        dense = CompiledCSR.from_chain(small_chain)
        sparse_chain = DTMC(
            sparse.csr_matrix(small_chain.dense()), 0, small_chain.labels
        )
        sp = CompiledCSR.from_chain(sparse_chain)
        np.testing.assert_array_equal(dense.indptr, sp.indptr)
        np.testing.assert_array_equal(dense.indices, sp.indices)
        np.testing.assert_allclose(dense.cumprobs, sp.cumprobs)

    def test_explicit_sparse_zeros_dropped(self):
        matrix = sparse.csr_matrix(
            (np.array([0.5, 0.0, 0.5, 1.0]),
             np.array([0, 1, 2, 2]),
             np.array([0, 3, 4])),
            shape=(2, 3),
        )
        # Pad to square with an absorbing third state.
        full = sparse.lil_matrix((3, 3))
        full[:2] = matrix[:, :3]
        full[2, 2] = 1.0
        chain = DTMC(full.tocsr(), 0)
        csr = CompiledCSR.from_chain(chain)
        assert np.all(np.exp(csr.logprobs) > 0)
        assert csr.indptr[1] - csr.indptr[0] == 2  # the zero entry is gone

    def test_duplicate_sparse_entries_merged(self):
        """Regression: a non-canonical CSR holding ``0→1`` twice at 0.3
        compiles to one entry at 0.6; otherwise every trace through it
        carries a log-proposal off by ``log 2``."""
        matrix = sparse.csr_matrix(
            (
                np.array([0.3, 0.3, 0.4, 1.0, 1.0]),
                np.array([1, 1, 2, 1, 2]),
                np.array([0, 3, 4, 5]),
            ),
            shape=(3, 3),
        )
        chain = DTMC(matrix, 0, labels={"goal": [1]})
        csr = CompiledCSR.from_chain(chain)
        row = slice(csr.indptr[0], csr.indptr[1])
        np.testing.assert_array_equal(csr.indices[row], [1, 2])
        np.testing.assert_array_equal(csr.logprobs[row], np.log([0.6, 0.4]))
        plan = make_plan(chain, parse_property('F "goal"'), record_log_prob=True)
        for backend in (ScalarWalk(plan), KernelBackend(plan)):
            result = backend.run_ensemble(200, np.random.default_rng(3))
            assert 0 < result.n_satisfied < 200, backend.name
            np.testing.assert_array_equal(result.lengths, 1)
            np.testing.assert_array_equal(
                result.log_proposals[result.satisfied], np.log(0.6)
            )

    def test_unsorted_rows_count_in_key_order(self):
        """The lockstep loop records CSR entry positions keyed by the CSR's
        entry-key table; a row whose entries are not sorted by target still
        yields the scalar walk's counts."""
        matrix = sparse.csr_matrix(
            (
                np.array([0.2, 0.3, 0.5, 0.6, 0.4, 1.0, 1.0]),
                np.array([3, 1, 0, 2, 0, 2, 3]),
                np.array([0, 3, 5, 6, 7]),
            ),
            shape=(4, 4),
        )
        assert not matrix.has_sorted_indices
        chain = DTMC(matrix, 0, labels={"goal": [2], "fail": [3]})
        csr = CompiledCSR.from_chain(chain)
        np.testing.assert_array_equal(csr.indices[:3], [3, 1, 0])
        np.testing.assert_array_equal(csr.entry_keys(), [3, 1, 0, 6, 4, 10, 15])
        plan = make_plan(chain, parse_property('!"fail" U "goal"'), max_steps=40)
        records = KernelBackend(plan).run_ensemble(300, np.random.default_rng(5)).step_records
        np.testing.assert_array_equal(records.entry_keys, csr.entry_keys())
        seq, ker = ScalarWalk(plan), KernelBackend(plan)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(60):
            a = aggregate_records(seq.run_ensemble(1, rng_a).step_records)
            b = aggregate_records(ker.run_ensemble(1, rng_b).step_records)
            for field in ("trace_ids", "sources", "targets", "counts"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_unnormalized_row_raises(self):
        bad = np.array([[0.5, 0.4], [0.0, 1.0]])  # row 0 sums to 0.9
        chain = DTMC(bad, 0, _validate=False)
        with pytest.raises(ModelError):
            CompiledCSR.from_chain(chain)

    def test_gather_step_matches_scalar_distribution(self, small_chain, rng):
        csr = CompiledCSR.from_chain(small_chain)
        states = np.zeros(4000, dtype=np.int64)
        _pos, nxt = kernels.gather_step(
            csr.indptr, csr.indices, csr.cumprobs, states, rng.random(4000)
        )
        hits = int(np.count_nonzero(nxt == 1))
        assert hits / 4000 == pytest.approx(0.3, abs=0.035)

    def test_tiny_probability_in_high_index_row(self):
        """Regression: the gather must resolve per-trace draws against the
        raw within-row cumulative — a row-offset encoding (``row + u``)
        quantizes u to ~``row * 2**-52`` and silently drops transitions
        rarer than that in high-index rows."""

        def step(u):
            return kernels.gather_step(
                csr.indptr, csr.indices, csr.cumprobs, states, np.full(states.size, u)
            )

        n = 50_002
        hot, rare_target, eps = 50_000, 50_001, 1e-13
        matrix = sparse.lil_matrix((n, n))
        matrix.setdiag(1.0)
        matrix[hot, hot] = 0.0
        matrix[hot, rare_target] = eps
        matrix[hot, 0] = 1.0 - eps
        csr = CompiledCSR.from_chain(DTMC(matrix.tocsr(), 0, _validate=False))
        states = np.full(8, hot, dtype=np.int64)
        # Column order sorts the row as [0, rare_target] with cumulative
        # [1 - eps, 1.0]: the rare transition owns the final eps-wide slice
        # of the unit interval, far below the ~9e-12 resolution a
        # row-offset key would have at row 50 000.
        _pos, nxt = step(1.0 - eps / 2)
        assert np.all(nxt == rare_target)
        _pos, nxt = step(1.0 - 2 * eps)
        assert np.all(nxt == 0)


class TestPerChainMemo:
    """A chain compiles, and derives each futility mask, once per object."""

    @staticmethod
    def _count_derivations(monkeypatch):
        calls = {"compile": 0, "futility": 0}
        compile_chain, futility = CompiledCSR.from_chain.__func__, engine.futility_for_formula

        def counted_compile(cls, chain):
            calls["compile"] += 1
            return compile_chain(cls, chain)

        def counted_futility(chain, formula):
            calls["futility"] += 1
            return futility(chain, formula)

        monkeypatch.setattr(CompiledCSR, "from_chain", classmethod(counted_compile))
        monkeypatch.setattr(engine, "futility_for_formula", counted_futility)
        return calls

    def test_second_run_derives_nothing(self, monkeypatch):
        chain = illustrative.illustrative_chain()
        proposal = DTMC(illustrative_matrix(0.3, 0.4), 0, labels={"goal": [2]})
        formula = parse_property('F "goal"')
        calls = self._count_derivations(monkeypatch)

        def sample(proposal):
            return run_importance_sampling(
                proposal, formula, 300, np.random.default_rng(4), original=chain
            )

        first = sample(proposal)
        assert calls == {"compile": 1, "futility": 1}
        second = sample(proposal)
        assert calls == {"compile": 1, "futility": 1}
        fresh = sample(DTMC(proposal.transitions, 0, labels={"goal": [2]}))
        assert calls == {"compile": 2, "futility": 2}
        for again in (second, fresh):
            for name in ("log_proposal", "log_numerator", "trace_ids"):
                assert getattr(again, name).tobytes() == getattr(first, name).tobytes()
            for name in ("traces", "positions", "entry_keys"):
                ours = getattr(again.step_records, name)
                assert ours.tobytes() == getattr(first.step_records, name).tobytes()

    def test_futility_is_keyed_by_formula(self, monkeypatch):
        chain = _labelled_chain(np.random.default_rng(3))
        calls = self._count_derivations(monkeypatch)
        for text in ('F "goal"', '!"fail" U "goal"', 'F "goal"'):
            make_plan(chain, parse_property(text))
        assert calls["futility"] == 2

    def test_threads_share_one_compile(self, monkeypatch):
        """Threads that compile one chain at once all get the arrays and
        mask that landed first, and realise equal ensembles."""
        chain = _labelled_chain(np.random.default_rng(6))
        formula = parse_property('!"fail" U "goal"')
        results = []
        compile_chain = CompiledCSR.from_chain.__func__

        def slow_compile(cls, chain):
            time.sleep(0.01)  # every thread misses the memo before one lands
            return compile_chain(cls, chain)

        monkeypatch.setattr(CompiledCSR, "from_chain", classmethod(slow_compile))

        def work():
            backend = KernelBackend(make_plan(chain, formula, record_log_prob=True))
            ensemble = backend.run_ensemble(200, np.random.default_rng(1))
            results.append((backend.csr, backend.plan.futility, ensemble))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert len({id(csr) for csr, _, _ in results}) == 1
        assert len({id(futility) for _, futility, _ in results}) == 1
        first = results[0][2]
        for _, _, ensemble in results[1:]:
            for name in ("satisfied", "lengths", "log_proposals"):
                assert getattr(ensemble, name).tobytes() == getattr(first, name).tobytes()

    def test_entry_dies_with_its_chain(self):
        chain = _labelled_chain(np.random.default_rng(5))
        backend = KernelBackend(make_plan(chain, parse_property('!"fail" U "goal"')))
        assert chain in engine._PER_CHAIN
        held = len(engine._PER_CHAIN)
        alive = weakref.ref(chain)
        del chain, backend
        gc.collect()
        assert alive() is None  # no cached value holds its chain
        assert len(engine._PER_CHAIN) < held


class TestWeightChainSize:
    """The fused IS numerator needs one weight-chain state per simulated one."""

    def test_weight_chain_of_another_size_rejected(self, small_chain):
        matrix = np.eye(5)
        matrix[:4, :4] = small_chain.dense()
        wider = DTMC(matrix, 0, labels={"goal": [2]})
        with pytest.raises(EstimationError, match="weight chain has 4 states.*chain has 5"):
            make_plan(wider, parse_property('F "goal"'), weight_chain=small_chain)

    def test_state_map_beyond_weight_chain_rejected(self, small_chain):
        state_map = np.array([0, 1, 2, 4])
        with pytest.raises(EstimationError, match="states 0..4.*weight chain has 4 states"):
            make_plan(
                small_chain,
                parse_property('F "goal"'),
                weight_chain=small_chain,
                weight_state_map=state_map,
            )


class TestCompiledChainValidation:
    """The backend compiles its plan's chain before any trace is drawn."""

    def test_unnormalized_row_raises(self):
        bad = np.array([[0.7, 0.2], [0.0, 1.0]])  # row 0 sums to 0.9
        chain = DTMC(bad, 0, labels={"goal": [1]}, _validate=False)
        plan = make_plan(chain, parse_property('F "goal"'))
        with pytest.raises(ModelError):
            KernelBackend(plan)


class TestBackendResolution:
    """A formula plans onto the one engine or fails at planning."""

    def test_fallback_for_non_mask_formula(self, small_chain):
        """There is no fallback engine: an OR of two path formulas has no
        mask spec, so planning it fails fast, naming the fragment the
        engine decides."""
        formula = parse_property('(F<=3 "goal") | (F<=5 "fail")')
        fragment = r"state formula, \[state &\] X\? \(lhs U\[<=k\] rhs\) or a bounded G"
        with pytest.raises(PropertyError, match=fragment):
            formula.mask_spec(small_chain)
        with pytest.raises(PropertyError, match=fragment):
            make_plan(small_chain, formula)
        with pytest.raises(PropertyError, match=fragment):
            monte_carlo_estimate(small_chain, formula, 100, rng=1)


class TestExactParity:
    """One-trace batches on a shared stream realise identical traces."""

    @pytest.mark.parametrize("prop", VECTOR_FORMULAS)
    def test_trace_for_trace(self, prop, rng):
        chain = _labelled_chain(rng)
        plan = make_plan(chain, parse_property(prop), record_log_prob=True, max_steps=50)
        seq, ker = ScalarWalk(plan), KernelBackend(plan)
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        for _ in range(150):
            a = seq.run_ensemble(1, rng_a)
            b = ker.run_ensemble(1, rng_b)
            assert a.satisfied[0] == b.satisfied[0]
            assert a.decided[0] == b.decided[0]
            assert a.lengths[0] == b.lengths[0]
            assert a.log_proposals[0] == pytest.approx(b.log_proposals[0], abs=1e-12)
            (table_a,) = aggregate_records(a.step_records).tables()
            (table_b,) = aggregate_records(b.step_records).tables()
            assert dict(table_a.counts) == dict(table_b.counts)

    def test_futility_cut_under_next(self, small_chain):
        """Under a leading ``X`` the futility mask cuts from position 1,
        one step before the per-state verdict table takes over: a trace
        absorbed in ``fail`` at step 1 stops there in both simulators."""
        plan = make_plan(small_chain, parse_property('X F "goal"'), record_log_prob=True)
        assert plan.futility.start_position == 1
        seq, ker = ScalarWalk(plan), KernelBackend(plan)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        cut_at_one = 0
        for _ in range(100):
            a, b = seq.run_ensemble(1, rng_a), ker.run_ensemble(1, rng_b)
            for field in ("satisfied", "decided", "lengths", "log_proposals"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
            cut_at_one += int(b.lengths[0] == 1 and not b.satisfied[0])
        assert cut_at_one > 0

    def test_satisfied_count_mode_parity(self, small_chain):
        plan = make_plan(small_chain, parse_property('F "goal"'))
        seq, ker = ScalarWalk(plan), KernelBackend(plan)
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        for _ in range(100):
            x, y = seq.run_ensemble(1, rng_a), ker.run_ensemble(1, rng_b)
            (a,) = aggregate_records(x.step_records, kept=x.satisfied).tables()
            (b,) = aggregate_records(y.step_records, kept=y.satisfied).tables()
            assert (a is None) == (b is None)
            if a is not None:
                assert dict(a.counts) == dict(b.counts)


class TestStatisticalParity:
    def test_estimates_agree_on_illustrative(self):
        chain = illustrative.illustrative_chain(0.3, 0.4)
        formula = illustrative.reach_goal_formula()
        exact = illustrative.exact_probability(0.3, 0.4)
        kernel = monte_carlo_estimate(chain, formula, 4000, rng=11).estimate
        walk = ScalarWalk(make_plan(chain, formula, count_mode="none"))
        scalar = walk.run_ensemble(4000, np.random.default_rng(11)).n_satisfied / 4000
        for estimate in (kernel, scalar):
            assert estimate == pytest.approx(exact, abs=0.03)
        assert scalar == pytest.approx(kernel, abs=0.03)

    def test_batch_chunking_preserves_statistics(self, small_chain, rng):
        plan = make_plan(small_chain, parse_property('F "goal"'), count_mode="none")
        backend = KernelBackend(plan, max_ensemble=64)
        result = backend.run_ensemble(1000, rng)
        assert result.n_samples == 1000
        assert 0 < result.n_satisfied < 1000
        assert result.lengths.shape == (1000,)

    def test_undecided_at_cap(self, small_chain):
        formula = parse_property('F "goal"')
        plan = make_plan(small_chain, formula, futility=None, max_steps=3)
        for backend in (ScalarWalk(plan), KernelBackend(plan)):
            batch = backend.run_ensemble(400, np.random.default_rng(1))
            assert batch.n_undecided > 0
            undecided = ~batch.decided
            assert not batch.satisfied[undecided].any()


class TestEnsembleResult:
    def test_to_summary_roundtrip(self, small_chain, rng):
        """The per-trace view round-trips: every trace's table totals its
        length, and the tables rebuilt into step records aggregate bitwise
        to the ensemble's counts."""
        plan = make_plan(small_chain, parse_property('F "goal"'), record_log_prob=True)
        n_states = small_chain.n_states
        for backend in (ScalarWalk(plan), KernelBackend(plan)):
            result = backend.run_ensemble(50, rng)
            counts = aggregate_records(result.step_records)
            tables = counts.tables()
            assert len(tables) == result.n_samples == 50
            traces, keys = [], []
            for k, table in enumerate(tables):
                assert table.total == result.lengths[k], backend.name
                for (source, target), count in table.counts.items():
                    traces += [k] * count
                    keys += [source * n_states + target] * count
            rebuilt = aggregate_records(
                records_from_keys(
                    50, n_states,
                    np.array(traces, dtype=np.int64), np.array(keys, dtype=np.int64),
                )
            )
            for field in ("kept", "trace_ids", "sources", "targets", "counts"):
                x, y = getattr(rebuilt, field), getattr(counts, field)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field

    def test_merge(self, small_chain, rng):
        backend = KernelBackend(make_plan(small_chain, parse_property('F "goal"')))
        a = backend.run_ensemble(30, rng)
        b = backend.run_ensemble(20, rng)
        merged = EnsembleResult.concatenate([a, b])
        assert merged.n_samples == 50
        assert merged.n_satisfied == a.n_satisfied + b.n_satisfied


def _hazard_chain(rng: np.random.Generator) -> DTMC:
    """Four transient states that each stop a trace with probability
    ~0.2 per step (goal 4 or fail 5, both absorbing)."""
    matrix = np.zeros((6, 6))
    for s in range(4):
        stop = rng.uniform(0.15, 0.25)
        win = rng.uniform(0.3, 0.7) * stop
        matrix[s, :4] = rng.dirichlet(np.ones(4)) * (1.0 - stop)
        matrix[s, 4], matrix[s, 5] = win, stop - win
    matrix[4, 4] = matrix[5, 5] = 1.0
    return DTMC(matrix, 0, labels={"goal": [4], "fail": [5]})


def _scatter_add_reference(backend, result, seed):
    """The ensemble's log sums, rebuilt with uncompacted slot accumulators.

    Replays the ensemble's draws step by step: the live set at step ``t``
    is every trace whose length exceeds ``t``, the successor comes from
    the per-row binary search, and each step adds the table entry into
    the trace's own slot, one trace at a time — the scatter-add the
    engine used before it carried its sums compacted.
    """
    plan, csr = backend.plan, backend.csr
    tables = []
    if plan.record_log_prob:
        tables.append(csr.logprobs)
    if plan.weight_chain is not None:
        tables.append(
            kernels.entry_weight_logs(csr.n_states, csr.indptr, csr.indices, plan.weight_chain)
        )
    sums = [np.zeros(result.n_samples) for _ in tables]
    rng = np.random.default_rng(seed)
    active = np.flatnonzero(result.lengths > 0)
    current = np.full(active.size, plan.initial_state, dtype=np.int64)
    time = 0
    while active.size:
        u = rng.random(active.size)
        pos, nxt = kernels.gather_step(csr.indptr, csr.indices, csr.cumprobs, current, u)
        for acc, table in zip(sums, tables):
            for k in range(active.size):
                acc[active[k]] += table[pos[k]]
        time += 1
        still = result.lengths[active] > time
        active, current = active[still], nxt[still]
    return sums


class TestLiveAccumulators:
    """The compacted log sums equal a slot-by-slot scatter-add, bitwise."""

    MAX_STEPS = 12

    def _run(self, initial_state, record_log_prob, weighted, seed=7):
        chain = _hazard_chain(np.random.default_rng(3))
        weight = _hazard_chain(np.random.default_rng(4)) if weighted else None
        plan = make_plan(
            chain, parse_property('!"fail" U "goal"'),
            record_log_prob=record_log_prob, weight_chain=weight,
            max_steps=self.MAX_STEPS, futility=None, initial_state=initial_state,
        )
        backend = KernelBackend(plan)
        result = backend.run_ensemble(400, np.random.default_rng(seed))
        expected = _scatter_add_reference(backend, result, seed)
        got = [
            logs for logs in (result.log_proposals, result.log_numerators)
            if logs is not None
        ]
        assert len(got) == len(expected) == record_log_prob + weighted
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return result

    @pytest.mark.parametrize(
        "record_log_prob, weighted", [(True, True), (True, False), (False, True)]
    )
    def test_decided_at_every_step_and_at_the_cap(self, record_log_prob, weighted):
        result = self._run(0, record_log_prob, weighted)
        decided_at = set(result.lengths[result.decided].tolist())
        assert decided_at == set(range(1, self.MAX_STEPS + 1))
        assert result.n_undecided > 0
        np.testing.assert_array_equal(result.lengths[~result.decided], self.MAX_STEPS)

    @pytest.mark.parametrize("start", [4, 5])
    def test_decided_at_step_zero(self, start):
        result = self._run(start, True, True)
        assert result.decided.all()
        np.testing.assert_array_equal(result.lengths, 0)
        np.testing.assert_array_equal(result.log_proposals, 0.0)
        np.testing.assert_array_equal(result.log_numerators, 0.0)


def _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs):
    """Every field of every repetition, and every generator's state
    afterwards, bitwise equal."""
    assert len(joint) == len(lone) == len(joint_rngs) == len(lone_rngs)
    for a, b in zip(joint, lone):
        for field in ("satisfied", "decided", "lengths", "log_proposals", "log_numerators"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None), field
            if x is not None:
                assert x.dtype == y.dtype and x.shape == y.shape, field
                assert x.tobytes() == y.tobytes(), field
        ra, rb = a.step_records, b.step_records
        assert (ra is None) == (rb is None)
        if ra is not None:
            assert (ra.n_traces, ra.n_states) == (rb.n_traces, rb.n_states)
            assert ra.entry_keys is rb.entry_keys
            for field in ("traces", "positions"):
                x, y = getattr(ra, field), getattr(rb, field)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    for g, h in zip(joint_rngs, lone_rngs):
        assert g.bit_generator.state == h.bit_generator.state


def _joint_and_lone(backend, n, seeds):
    """``run_ensembles`` over fresh generators of *seeds*, and one
    ``run_ensemble`` per seed."""
    joint_rngs = [np.random.default_rng(seed) for seed in seeds]
    lone_rngs = [np.random.default_rng(seed) for seed in seeds]
    joint = backend.run_ensembles(n, joint_rngs)
    lone = [backend.run_ensemble(n, rng) for rng in lone_rngs]
    return joint, lone, joint_rngs, lone_rngs


@pytest.fixture(scope="module")
def quick_studies():
    return {name: REGISTRY.get(name).build(quick=True) for name in REGISTRY.quick_studies()}


def _study_plan(study, **options):
    """The plan ``run_importance_sampling`` builds for *study*'s proposal
    weighted against its centre (swat's unrolled proposal included)."""
    chain, formula, futility, state_map = study.proposal, study.formula, "auto", None
    if isinstance(chain, UnrolledProposal):
        proposal = chain
        chain, formula, futility = proposal.chain, proposal.formula, proposal.futility
        state_map = proposal.state_map()
    return make_plan(
        chain, formula, record_log_prob=True, futility=futility,
        weight_chain=study.center, weight_state_map=state_map, **options,
    )


class TestJointRepetitions:
    """``run_ensembles`` is bitwise one ``run_ensemble`` per generator."""

    SEEDS = np.random.SeedSequence(2018).spawn(4)

    @pytest.mark.parametrize("count_mode", ["none", "satisfied"])
    @pytest.mark.parametrize("name", REGISTRY.quick_studies())
    def test_every_quick_study(self, quick_studies, name, count_mode):
        backend = KernelBackend(_study_plan(quick_studies[name], count_mode=count_mode))
        _assert_joint_is_lone(*_joint_and_lone(backend, 1000, self.SEEDS))

    def test_swat_runs_the_monitor_path(self, quick_studies):
        """swat's bounded until on its unrolled proposal is decided by the
        monitor kernels, not the per-state verdict table."""
        backend = KernelBackend(_study_plan(quick_studies["swat"]))
        assert backend.plan.mask_spec.bound is not None
        assert backend._state_codes is None
        joint, lone, joint_rngs, lone_rngs = _joint_and_lone(backend, 1000, self.SEEDS)
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)
        assert all(result.n_satisfied for result in joint)

    def test_records_split_per_repetition_with_compaction(self, monkeypatch):
        """Under ``count_mode="satisfied"`` each repetition drops its failed
        traces' records on its own schedule, as its lone run does."""
        monkeypatch.setattr(engine, "COMPACT_INTERVAL", 2)
        chain = _labelled_chain(np.random.default_rng(11))
        plan = make_plan(
            chain, parse_property('!"fail" U "goal"'), count_mode="satisfied",
            record_log_prob=True, max_steps=200,
        )
        backend = KernelBackend(plan)
        joint, lone, joint_rngs, lone_rngs = _joint_and_lone(backend, 60, self.SEEDS)
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)
        # Some failed trace's records were dropped, and some remain.
        recorded = [np.unique(r.step_records.traces) for r in joint]
        failed = [np.flatnonzero(r.decided & ~r.satisfied) for r in joint]
        assert any(np.setdiff1d(f, t).size for f, t in zip(failed, recorded))
        assert any(np.intersect1d(f, t).size for f, t in zip(failed, recorded))

    def test_one_trace_each_finishing_apart(self):
        """Repetitions whose last trace is decided at different steps stop
        drawing there."""
        chain = _labelled_chain(np.random.default_rng(5))
        plan = make_plan(chain, parse_property('F "goal"'), record_log_prob=True, max_steps=500)
        seeds = np.random.SeedSequence(3).spawn(6)
        joint, lone, joint_rngs, lone_rngs = _joint_and_lone(KernelBackend(plan), 1, seeds)
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)
        assert len({int(r.lengths[0]) for r in joint}) > 1

    def test_all_decided_at_step_zero(self, small_chain):
        """Traces decided at their start draw nothing, jointly or alone."""
        goal = int(small_chain.label_states("goal")[0])
        plan = make_plan(
            small_chain, parse_property('F "goal"'), record_log_prob=True,
            weight_chain=small_chain, initial_state=goal, count_mode="satisfied",
        )
        joint, lone, joint_rngs, lone_rngs = _joint_and_lone(KernelBackend(plan), 50, self.SEEDS)
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)
        untouched = np.random.default_rng(self.SEEDS[0]).bit_generator.state
        assert joint_rngs[0].bit_generator.state == untouched
        assert all(r.decided.all() and not r.lengths.any() for r in joint)

    def test_step_cap(self, small_chain):
        plan = make_plan(
            small_chain, parse_property('F "goal"'), record_log_prob=True,
            count_mode="satisfied", max_steps=2,
        )
        joint, lone, joint_rngs, lone_rngs = _joint_and_lone(KernelBackend(plan), 300, self.SEEDS)
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)
        assert all(r.n_undecided for r in joint)
        assert all((r.lengths[~r.decided] == 2).all() for r in joint)

    def test_chunks_beyond_max_ensemble(self, quick_studies):
        """Each repetition's traces are chunked as its lone run chunks them."""
        plan = _study_plan(quick_studies["knuth-yao"], count_mode="satisfied")
        backend = KernelBackend(plan, max_ensemble=300)
        joint, lone, joint_rngs, lone_rngs = _joint_and_lone(backend, 1000, self.SEEDS)
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)
        assert all(r.n_samples == 1000 for r in joint)

    def test_one_generator(self, quick_studies):
        backend = KernelBackend(_study_plan(quick_studies["group-repair"]))
        joint, lone, joint_rngs, lone_rngs = _joint_and_lone(backend, 500, self.SEEDS[:1])
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)

    def test_no_generator_or_a_shared_one_rejected(self, small_chain):
        backend = KernelBackend(make_plan(small_chain, parse_property('F "goal"')))
        with pytest.raises(EstimationError, match="at least one generator"):
            backend.run_ensembles(10, [])
        rng = np.random.default_rng(1)
        with pytest.raises(EstimationError, match="generator of its own"):
            backend.run_ensembles(10, [rng, np.random.default_rng(2), rng])

    def test_traced_span_counts_every_repetition(self, quick_studies):
        """One ``simulate`` span: the cut census sums the lone runs', and
        the loop runs as long as the longest lone run."""
        backend = KernelBackend(_study_plan(quick_studies["knuth-yao"]))
        assert backend._state_codes is not None  # the cut census's table path
        prior = obs_trace.status()
        obs_trace.reset()
        obs_trace.configure(enabled=True)
        try:
            joint_rngs = [np.random.default_rng(seed) for seed in self.SEEDS]
            joint = backend.run_ensembles(400, joint_rngs)
            (span,) = [e for e in obs_trace.events(clear=True) if e["name"] == "simulate"]
            lone_rngs = [np.random.default_rng(seed) for seed in self.SEEDS]
            lone = []
            lone_spans = []
            for rng in lone_rngs:
                lone.append(backend.run_ensemble(400, rng))
                (record,) = [
                    e for e in obs_trace.events(clear=True) if e["name"] == "simulate"
                ]
                lone_spans.append(record["fields"])
        finally:
            obs_trace.configure(enabled=bool(prior["enabled"]))
            obs_trace.reset()
        _assert_joint_is_lone(joint, lone, joint_rngs, lone_rngs)
        fields = span["fields"]
        assert fields["traces"] == 4 * 400 and fields["repetitions"] == 4
        assert fields["iterations"] == max(f["iterations"] for f in lone_spans)
        assert fields["futility_cuts"] == sum(f["futility_cuts"] for f in lone_spans) > 0
        assert fields["steps"] == sum(f["steps"] for f in lone_spans)
        assert fields["satisfied"] == sum(f["satisfied"] for f in lone_spans)

    def test_importance_samples_per_generator(self, quick_studies):
        """``run_importance_sampling`` given a list of generators returns one
        sample per generator, each the sample of that generator alone."""
        study = quick_studies["swat"]
        joint_rngs = [np.random.default_rng(seed) for seed in self.SEEDS]
        samples = run_importance_sampling(
            study.proposal, study.formula, 500, joint_rngs, original=study.center
        )
        for seed, rng, sample in zip(self.SEEDS, joint_rngs, samples):
            alone_rng = np.random.default_rng(seed)
            alone = run_importance_sampling(
                study.proposal, study.formula, 500, alone_rng, original=study.center
            )
            assert sample.n_total == alone.n_total
            assert sample.log_proposal.tobytes() == alone.log_proposal.tobytes()
            assert sample.log_numerator.tobytes() == alone.log_numerator.tobytes()
            assert sample.trace_ids.tobytes() == alone.trace_ids.tobytes()
            assert sample.step_records.n_states == alone.step_records.n_states
            assert sample.step_records.entry_keys.tobytes() == (
                alone.step_records.entry_keys.tobytes()
            )
            assert rng.bit_generator.state == alone_rng.bit_generator.state
