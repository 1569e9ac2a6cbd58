"""Parity and unit tests for the lockstep kernels.

Three layers of the kernel contract are pinned here:

* **kernel semantics** — both successor lookups take the entry a per-row
  ``np.searchsorted(..., side="right")`` takes (the scalar walk's
  rule), and the monitor codes reproduce the oracle's prefix verdicts;
* **stream stability** — ``KernelBackend`` ensembles hash to a committed
  golden digest, including the fused log-numerator accumulator, and
  realise bitwise the one-trace batches of the scalar reference walk
  (:mod:`tests.smc.oracle`), down to the IS estimate and IMCIS interval
  built from them;
* **estimator parity** — fused importance weights equal the weights
  binned from the step records bitwise, and the kernel and the scalar
  walk agree on every registry quick study.
"""

import hashlib

import numpy as np
import pytest

from repro.core import DTMC
from repro.errors import EstimationError, PropertyError
from repro.imcis import IMCISConfig, ObservationTables, RandomSearchConfig, imcis_from_sample
from repro.importance import estimate_from_sample, log_weights, run_importance_sampling
from repro.importance.estimator import ISSample
from repro.models.registry import REGISTRY
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.properties import parse_property
from repro.smc import KernelBackend, make_plan
from repro.smc import engine, kernels, monte_carlo_estimate
from repro.smc.engine import CompiledCSR, EnsembleResult
from repro.smc.kernels import StepRecords

from tests.conftest import (
    aggregate_records,
    illustrative_matrix,
    random_dtmc,
    records_from_keys,
)
from tests.smc.oracle import PrefixVerdict, ScalarWalk, oracle_sample
from tests.smc.test_engine import VECTOR_FORMULAS, _labelled_chain

#: The mask-spec shapes of :data:`VECTOR_FORMULAS` plus the bounded
#: exempt, leading-X and zero-bound variants, for the monitor-code checks.
MONITOR_FORMULAS = VECTOR_FORMULAS + [
    '"init" & (X !"init" U<=4 "goal")',
    'X !"fail" U<=3 "goal"',
    'X !"fail" U<=0 "goal"',
    'X (!"fail" U<=3 "goal")',
    '"init" & F<=3 "goal"',
    'F<=0 "goal"',
]

#: Kernel verdict code of each oracle verdict (``None``: undecided).
_VERDICT_CODES = {
    None: kernels.CODE_UNDECIDED,
    True: kernels.CODE_TRUE,
    False: kernels.CODE_FALSE,
}


def _searchsorted_lookup(csr, states, u):
    """Reference successor lookup: per row, ``np.searchsorted(...,
    side="right")`` of the draw in the row's cumulative probabilities —
    the scalar walk's rule — clamped to the row's last entry."""
    pos = np.empty(states.size, dtype=np.int64)
    for k, (s, draw) in enumerate(zip(states.tolist(), u.tolist())):
        lo, hi = csr.indptr[s], csr.indptr[s + 1]
        offset = int(np.searchsorted(csr.cumprobs[lo:hi], draw, side="right"))
        pos[k] = lo + min(offset, hi - lo - 1)
    return pos, csr.indices[pos]


class TestImplementationParity:
    """The kernels against reference implementations of their rules."""

    @pytest.mark.parametrize("sparsity", [0.2, 0.6, 1.0])
    def test_gather_step(self, rng, sparsity):
        chain = random_dtmc(rng, 12, sparsity=sparsity)
        csr = CompiledCSR.from_chain(chain)
        states = rng.integers(0, 12, size=400)
        u = rng.random(400)
        # Stress the <= boundary: reuse exact cumulative values as draws.
        u[:50] = csr.cumprobs[rng.integers(0, csr.cumprobs.size, size=50)]
        expected = _searchsorted_lookup(csr, states, u)
        got = kernels.gather_step(csr.indptr, csr.indices, csr.cumprobs, states, u)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])

    @pytest.mark.parametrize("sparsity", [0.2, 0.6, 1.0])
    def test_gather_step_padded(self, rng, sparsity):
        chain = random_dtmc(rng, 12, sparsity=sparsity)
        csr = CompiledCSR.from_chain(chain)
        assert csr.cum_cols is not None
        states = rng.integers(0, 12, size=400)
        u = rng.random(400)
        u[:50] = csr.cumprobs[rng.integers(0, csr.cumprobs.size, size=50)]
        u[u >= 1.0] = np.nextafter(1.0, 0.0)  # the engine's draws lie in [0, 1)
        _assert_lookups_agree(csr, states, u)

    @pytest.mark.parametrize("prop", MONITOR_FORMULAS)
    def test_monitor_codes_match_vector_monitors(self, prop, rng):
        """The mask-spec codes reproduce the oracle's verdicts along random paths.

        The oracle decides each random state path's prefix from the
        formula's AST; at every position, each trace still undecided
        before it must get the oracle's verdict from the mask-spec codes.
        """
        chain = _labelled_chain(rng)
        formula = parse_property(prop)
        spec = formula.mask_spec(chain)
        oracle = PrefixVerdict(formula, chain)
        paths = rng.integers(0, chain.n_states, size=(256, 12)).tolist()
        live = np.ones(len(paths), dtype=bool)
        for time in range(len(paths[0])):
            states = np.array([path[time] for path in paths])
            expected = np.array(
                [_VERDICT_CODES[oracle(path[: time + 1])] for path in paths],
                dtype=np.int8,
            )
            got = kernels.monitor_codes(spec, states[live], time)
            np.testing.assert_array_equal(got, expected[live])
            live &= expected == kernels.CODE_UNDECIDED

    def test_runtime_info_names_the_numpy_kernels(self):
        """Benchmark records read ``kernel_runtime_info()["tier"]``."""
        assert kernels.kernel_runtime_info() == {"tier": "numpy"}

    def test_futility_cut(self, rng):
        codes = rng.integers(0, 3, size=200).astype(np.int8)
        fut = rng.random(9) < 0.4
        states = rng.integers(0, 9, size=200)
        a = codes.copy()
        kernels.futility_cut(a, fut, states)
        # undecided traces in futile states flip, everything else survives
        flipped = (codes == kernels.CODE_UNDECIDED) & fut[states]
        np.testing.assert_array_equal(a[flipped], kernels.CODE_FALSE)
        np.testing.assert_array_equal(a[~flipped], codes[~flipped])


def _assert_lookups_agree(csr, states, u):
    """The counting lookup and the binary search both resolve the
    per-row ``searchsorted`` entry, position for position."""
    states = np.asarray(states, dtype=np.int64)
    expected = _searchsorted_lookup(csr, states, u)
    got = [
        kernels.gather_step(csr.indptr, csr.indices, csr.cumprobs, states, u),
        kernels.gather_step_padded(csr.row_lo, csr.cum_cols, csr.indices, states, u),
    ]
    for pos, nxt in got:
        np.testing.assert_array_equal(pos, expected[0])
        np.testing.assert_array_equal(nxt, expected[1])


def _csr_from_cumulative(rows):
    """A ``CompiledCSR`` over hand-made cumulative rows (tails pinned to 1)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    cumprobs = np.concatenate([np.asarray(row, dtype=np.float64) for row in rows])
    indices = np.arange(cumprobs.size, dtype=np.int64) % len(rows)
    return CompiledCSR(len(rows), indptr, indices, cumprobs, np.zeros_like(cumprobs))


class TestPaddedLookup:
    """The padded per-state table resolves the binary search's entry."""

    BELOW_ONE = np.nextafter(1.0, 0.0)
    ROWS = [
        [1.0],  # one successor
        [1e-300, BELOW_ONE, 1.0],  # a 1e-300 entry next to 1 - eps
        [0.25, 0.5, 0.5, 0.5, 1.0],  # equal consecutive cumulative values
        [0.5, 1.0 + 2.0**-52, 1.0],  # passes 1.0 before the pinned tail
        [1.0],
        list(np.linspace(0.1, 1.0, 10)),
    ]

    def test_rows_position_for_position(self):
        csr = _csr_from_cumulative(self.ROWS)
        assert csr.cum_cols.shape == (9, len(self.ROWS))
        draws = np.concatenate(
            [[0.0, 1e-300, 5e-301, 0.25, 0.5, self.BELOW_ONE], csr.cumprobs[:-1]]
        )
        draws = draws[draws < 1.0]  # a uniform draw never reaches 1
        states = np.repeat(np.arange(len(self.ROWS)), draws.size)
        _assert_lookups_agree(csr, states, np.tile(draws, len(self.ROWS)))

    @pytest.mark.parametrize("width", range(1, kernels.PADDED_DEGREE_CAP + 1))
    def test_random_rows_of_every_width(self, width):
        """Rows of random degree up to *width* (at least one that wide),
        compiled from a chain; a fifth of the entries are 1e-300, so
        consecutive cumulative values often tie."""
        rng = np.random.default_rng(width)
        n = kernels.PADDED_DEGREE_CAP + 4
        matrix = np.zeros((n, n))
        for s in range(n):
            degree = width if s < 3 else int(rng.integers(1, width + 1))
            columns = rng.choice(n, size=degree, replace=False)
            probs = np.where(rng.random(degree) < 0.2, 1e-300, rng.random(degree))
            matrix[s, columns] = probs / probs.sum()
        csr = CompiledCSR.from_chain(DTMC(matrix, 0))
        assert csr.cum_cols.shape == (width - 1, n)
        states = rng.integers(0, n, size=3000)
        u = rng.random(3000)
        entries = csr.cumprobs[rng.integers(0, csr.cumprobs.size, size=1000)]
        u[:1000] = np.where(entries < 1.0, entries, self.BELOW_ONE)
        u[1000:1010] = 0.0
        u[1010:1020] = self.BELOW_ONE
        _assert_lookups_agree(csr, states, u)

    def test_largest_draw_stays_in_row(self):
        csr = _csr_from_cumulative(self.ROWS)
        states = np.arange(len(self.ROWS), dtype=np.int64)
        pos, _ = kernels.gather_step_padded(
            csr.row_lo, csr.cum_cols, csr.indices, states, np.full(states.size, self.BELOW_ONE)
        )
        assert np.all(pos < csr.indptr[1:])  # never a padding column

    def test_wide_chain_takes_binary_search(self, rng, monkeypatch):
        """Rows wider than the cap keep the binary search, realising the
        padded lookup's ensembles bitwise. A chain compiles once per
        object, so each backend gets its own copy of the chain."""
        n = kernels.PADDED_DEGREE_CAP + 4
        base = random_dtmc(rng, n, sparsity=1.0)

        def plan():
            chain = base.with_labels({"goal": [n - 1], "fail": [1]})
            return make_plan(
                chain, parse_property('!"fail" U "goal"'),
                record_log_prob=True, weight_chain=chain, max_steps=80,
            )

        wide = KernelBackend(plan())
        assert wide.csr.cum_cols is None
        searched = wide.run_ensemble(500, np.random.default_rng(9))
        monkeypatch.setattr(kernels, "PADDED_DEGREE_CAP", n)
        padded = KernelBackend(plan())
        assert padded.csr.cum_cols is not None
        _assert_ensembles_identical(searched, padded.run_ensemble(500, np.random.default_rng(9)))


class TestWeightTables:
    def test_flat_pair_log_probs_dense_sparse_agree(self, rng):
        from scipy import sparse

        chain = random_dtmc(rng, 8, sparsity=0.5)
        sparse_chain = DTMC(sparse.csr_matrix(chain.dense()), 0)
        sources = rng.integers(0, 8, size=60)
        targets = rng.integers(0, 8, size=60)
        dense_logs = kernels.flat_pair_log_probs(chain, sources, targets)
        sparse_logs = kernels.flat_pair_log_probs(sparse_chain, sources, targets)
        np.testing.assert_array_equal(dense_logs, sparse_logs)
        for k in range(60):
            p = chain.dense()[sources[k], targets[k]]
            if p == 0.0:
                assert dense_logs[k] == -np.inf
            else:
                assert dense_logs[k] == np.log(p)

    def test_flat_pair_log_probs_empty(self, small_chain):
        logs = kernels.flat_pair_log_probs(
            small_chain, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert logs.shape == (0,)

    def test_entry_weight_logs_match_per_entry_lookup(self, rng):
        proposal = random_dtmc(rng, 10, sparsity=0.7)
        weight = random_dtmc(rng, 10, sparsity=0.7)
        csr = CompiledCSR.from_chain(proposal)
        logs = kernels.entry_weight_logs(10, csr.indptr, csr.indices, weight)
        dense = weight.dense()
        for s in range(10):
            for e in range(csr.indptr[s], csr.indptr[s + 1]):
                p = dense[s, csr.indices[e]]
                expected = np.log(p) if p > 0 else -np.inf
                assert logs[e] == expected

    def test_entry_weight_logs_state_map(self, rng):
        # An unrolled-style chain: 2 copies of a 4-state original.
        original = random_dtmc(rng, 4, sparsity=1.0)
        unrolled = random_dtmc(rng, 8, sparsity=1.0)
        state_map = np.arange(8, dtype=np.int64) % 4
        csr = CompiledCSR.from_chain(unrolled)
        logs = kernels.entry_weight_logs(
            8, csr.indptr, csr.indices, original, state_map=state_map
        )
        dense = original.dense()
        for s in range(8):
            for e in range(csr.indptr[s], csr.indptr[s + 1]):
                p = dense[s % 4, csr.indices[e] % 4]
                expected = np.log(p) if p > 0 else -np.inf
                assert logs[e] == expected


def _brute_force_tables(n_traces, n_states, kept, step_traces, step_keys):
    """Dict aggregation the array path must reproduce."""
    tables = [dict() if kept[k] else None for k in range(n_traces)]
    for traces, keys in zip(step_traces, step_keys):
        for trace, key in zip(traces.tolist(), keys.tolist()):
            if tables[trace] is None:
                continue
            pair = divmod(key, n_states)
            tables[trace][pair] = tables[trace].get(pair, 0) + 1
    return tables


def _random_steps(rng, n_traces, n_states, n_steps=12):
    step_traces, step_keys = [], []
    for _ in range(n_steps):
        live = rng.integers(1, n_traces + 1)
        traces = np.sort(rng.permutation(n_traces)[:live]).astype(np.int64)
        keys = rng.integers(0, n_states * n_states, size=live).astype(np.int64)
        step_traces.append(traces)
        step_keys.append(keys)
    return step_traces, step_keys


def _records(n_traces, n_states, step_traces, step_keys):
    return records_from_keys(
        n_traces, n_states, np.concatenate(step_traces), np.concatenate(step_keys)
    )


def _table_dicts(tables):
    """Per-trace ``{(i, j): n}`` dicts of observation tables' rows."""
    dense = tables.counts.toarray()
    return [
        {tables.transitions[c]: int(row[c]) for c in np.flatnonzero(row)}
        for row in dense
    ]


class TestTraceCounts:
    """Per-trace transition counts read off :class:`StepRecords`."""

    def test_from_step_keys_matches_dict_aggregation(self, rng):
        """Observation tables and the test oracle both count the selected
        traces' step keys as a dict walk does."""
        n_traces, n_states = 20, 5
        kept = rng.random(n_traces) < 0.6
        step_traces, step_keys = _random_steps(rng, n_traces, n_states)
        records = _records(n_traces, n_states, step_traces, step_keys)
        expected = _brute_force_tables(n_traces, n_states, kept, step_traces, step_keys)
        for k, table in enumerate(aggregate_records(records, kept=kept).tables()):
            if expected[k] is None:
                assert table is None
            else:
                assert dict(table.counts) == expected[k]
                # dict iteration order is the sorted flat-key order
                got_keys = [s * n_states + t for s, t in table.counts]
                assert got_keys == sorted(got_keys)
        ids = np.flatnonzero(kept)
        sample = ISSample(
            n_total=n_traces, log_proposal=np.zeros(ids.size),
            step_records=records, trace_ids=ids,
        )
        got = _table_dicts(ObservationTables.from_sample(sample))
        assert got == [expected[k] for k in ids.tolist()]

    def test_empty_steps(self):
        empty = np.zeros(0, dtype=np.int64)
        records = records_from_keys(3, 4, empty, empty)
        tables = aggregate_records(records, kept=np.array([True, False, True])).tables()
        assert dict(tables[0].counts) == {}
        assert tables[1] is None
        assert dict(tables[2].counts) == {}
        sample = ISSample(
            n_total=3, log_proposal=np.zeros(2), step_records=records,
            trace_ids=np.array([0, 2]),
        )
        obs = ObservationTables.from_sample(sample)
        assert (obs.n_successful, obs.n_transitions) == (2, 0)

    def test_map_states_merges_collisions(self, rng):
        """Counts of projected step records merge the transitions that
        collide after projection."""
        n_traces, n_states = 10, 6
        records = _records(n_traces, n_states, *_random_steps(rng, n_traces, n_states))
        state_map = np.arange(6, dtype=np.int64) % 3  # 6 states fold onto 3
        projected = records.map_states(state_map, 3)
        assert projected.n_states == 3
        for orig, proj in zip(
            aggregate_records(records).tables(), aggregate_records(projected).tables()
        ):
            expected = {}
            for (s, t), c in orig.counts.items():
                pair = (s % 3, t % 3)
                expected[pair] = expected.get(pair, 0) + c
            assert dict(proj.counts) == expected

    def test_concatenate_offsets_traces(self, rng):
        """Concatenated step records over one entry table count each
        chunk's traces at its offset."""
        n_states = 4
        shared = np.arange(n_states * n_states, dtype=np.int64)
        chunks = []
        for n in (3, 5, 2):
            traces, keys = (np.concatenate(a) for a in _random_steps(rng, n, n_states))
            chunks.append(StepRecords(n, n_states, traces, keys, shared))
        merged = StepRecords.concatenate(chunks)
        assert merged.n_traces == 10
        assert merged.entry_keys is shared
        tables = aggregate_records(merged).tables()
        offset = 0
        for chunk in chunks:
            for k, table in enumerate(aggregate_records(chunk).tables()):
                assert dict(tables[offset + k].counts) == dict(table.counts)
            offset += chunk.n_traces

    def test_concatenate_rejects_mixed_chains(self, rng):
        empty = np.zeros(0, dtype=np.int64)
        a = records_from_keys(2, 4, empty, empty)
        b = records_from_keys(2, 5, empty, empty)
        with pytest.raises(EstimationError):
            StepRecords.concatenate([a, b])
        with pytest.raises(EstimationError):
            StepRecords.concatenate([])

    def test_concatenate_rejects_different_entry_tables(self):
        """Only chunks over one entry table concatenate."""
        traces = np.array([0, 1], dtype=np.int64)
        a = records_from_keys(2, 4, traces, np.array([1, 5], dtype=np.int64))
        other = records_from_keys(2, 4, traces, np.array([1, 6], dtype=np.int64))
        with pytest.raises(EstimationError, match="entry tables"):
            StepRecords.concatenate([a, other])

    def test_trace_log_probs_match_table_walk(self, rng):
        """Count-path weights are each trace's ``Σ n_ij log a_ij``."""
        chain = random_dtmc(rng, 5, sparsity=1.0)
        n_traces = 12
        records = _records(n_traces, 5, *_random_steps(rng, n_traces, 5))
        sample = ISSample(
            n_total=n_traces, log_proposal=np.zeros(n_traces),
            step_records=records, trace_ids=np.arange(n_traces),
        )
        logs = log_weights(chain, sample)
        dense = chain.dense()
        for k, table in enumerate(aggregate_records(records).tables()):
            expected = sum(
                c * np.log(dense[s, t]) for (s, t), c in table.counts.items()
            )
            assert logs[k] == pytest.approx(expected, rel=1e-12)

    def test_trace_log_probs_empty_trace_is_zero(self):
        empty = np.zeros(0, dtype=np.int64)
        records = records_from_keys(4, 3, empty, empty)
        sample = ISSample(
            n_total=4, log_proposal=np.zeros(4), step_records=records,
            trace_ids=np.arange(4),
        )
        chain = DTMC(np.eye(3), 0)
        np.testing.assert_array_equal(log_weights(chain, sample), np.zeros(4))


#: SHA-256 of the ``KernelBackend`` ensembles drawn by
#: :func:`_golden_ensembles`.
GOLDEN_ENSEMBLE_DIGEST = "2168b284db9261a8072be8209bd7961c3fb5cb79a2557d0051dae61811a4ecf0"


def _golden_ensembles(monkeypatch):
    """Kernel ensembles covering every per-trace output of the engine,
    each with the traces whose tables are hashed.

    Two quick studies — group-repair (long traces, many compactions) and
    knuth-yao (whose futility mask cuts about a third of the traces) —
    each run twice, with log-proposals and the fused log-numerator
    against the learnt centre: once hashing the satisfied traces' tables,
    and once, with the key compaction pushed past the longest trace
    (1 046 steps on group-repair), every trace's table, which is what the
    removed ``count_mode="all"`` kept. ``max_ensemble`` splits every
    batch into three lockstep chunks.
    """
    for name in ("group-repair", "knuth-yao"):
        study = REGISTRY.get(name).build(quick=True)
        for every_trace in (False, True):
            with monkeypatch.context() as patch:
                if every_trace:
                    patch.setattr(engine, "COMPACT_INTERVAL", 1 << 30)
                plan = make_plan(
                    study.proposal, study.formula, record_log_prob=True,
                    weight_chain=study.center,
                )
                assert plan.futility is not None
                result = KernelBackend(plan, max_ensemble=700).run_ensemble(
                    2000, np.random.default_rng(2018)
                )
            yield result, None if every_trace else result.satisfied


#: SHA-256 (see :func:`_ensemble_digest`) of the ensembles the pure-NumPy
#: ``VectorizedBackend`` realised at version 0.10.0 on each formula of
#: ``test_ensembles_bitwise_identical``; ``KernelBackend`` hashed equal.
VECTORIZED_ENSEMBLE_DIGESTS = {
    'F "goal"': "a6cde8ca26e1d544f14dd1757142dd7f3c272a11c425861ea088c600e3a6b9d0",
    'F<=4 "goal"': "5b33d8fb57ca196b87318b33b6bc0e4f753c994db64fcfc8bf28049a58a835f3",
    '!"fail" U "goal"': "d208c443603187af977b6ebc881937fe25826d444e5b6d28758d1a7ab60891c2",
    '!"fail" U<=6 "goal"': "cd4511da66f66cfb2feded7a8ac0464bbe60443540ec84a23e36b73688ccace5",
    '"init"': "2091d8ca820ae2fc5d4529ef24468d6263c5829ed4024d6655098b23a2f748de",
    'G<=3 !"fail"': "9002d708f47a879b0d1e4228d9c1d167be2d76d606de0ffa7c4ac773c28824be",
    '"init" & (X !"init" U "goal")': "cd423c123bda04e4f127ce8b95f5277e38d7c18cf3a7ef0a73e5ea427acc59f1",
    'X "goal"': "8d4ead063d6d3b200af28217f4768f163fd494e29bb5550d83b45b4af5479a17",
}

#: SHA-256 of the fused log-numerators ``VectorizedBackend`` realised at
#: version 0.10.0 in ``test_fused_numerator_matches_vectorized``.
VECTORIZED_NUMERATOR_DIGEST = "72b0790002d760a642449840203c26bb30dee350d4862d2b3a9fd6d299ced382"


def _ensemble_digest(result):
    """SHA-256 of verdicts, lengths, log-proposals and per-trace tables.

    Tables are hashed in their iteration order, so the digest also pins
    the order in which each trace's transitions were first counted.
    """
    digest = hashlib.sha256()
    for part in (
        result.satisfied.astype(bool),
        result.decided.astype(bool),
        result.lengths.astype(np.int64),
        result.log_proposals.astype(np.float64),
    ):
        digest.update(np.ascontiguousarray(part).tobytes())
    for table in aggregate_records(result.step_records).tables():
        if table is None:
            digest.update(b"-")
            continue
        items = np.array(
            [(s, t, c) for (s, t), c in table.counts.items()], dtype=np.int64
        )
        digest.update(b"+")
        digest.update(np.ascontiguousarray(items).tobytes())
    return digest.hexdigest()


class TestKernelBackendParity:
    """KernelBackend's stream is pinned; one-trace batches match the scalar walk."""

    def test_kernel_request_falls_back_sequential(self, small_chain):
        """No second engine is left to fall back on: an estimate of a
        formula outside the mask fragment fails fast."""
        formula = parse_property('(F<=3 "goal") | (F<=5 "fail")')
        with pytest.raises(PropertyError, match="cannot be simulated"):
            monte_carlo_estimate(small_chain, formula, 100, rng=1)

    def test_ensembles_match_golden_digest(self, monkeypatch):
        """The lockstep stream does not drift.

        Hashes verdicts, decided flags, lengths, log-proposals,
        log-numerators and the per-trace counts that
        :func:`~tests.conftest.aggregate_records` reads off the step
        records of the hashed traces, sorted by
        ``(trace, source·n + target)``. The digest was
        generated at version 0.10.0, where the then-existing pure-NumPy
        ``VectorizedBackend`` hashed to the same digest on these
        ensembles — so it also pins the stream that backend realised.
        A change here changes every lockstep result: regenerate the
        digest only together with a results-version bump.
        """
        digest = hashlib.sha256()
        for result, kept in _golden_ensembles(monkeypatch):
            counts = aggregate_records(result.step_records, kept=kept)
            for part in (
                result.satisfied.astype(bool),
                result.decided.astype(bool),
                result.lengths.astype(np.int64),
                result.log_proposals.astype(np.float64),
                result.log_numerators.astype(np.float64),
                counts.kept.astype(bool),
                counts.trace_ids.astype(np.int64),
                counts.sources.astype(np.int64),
                counts.targets.astype(np.int64),
                counts.counts.astype(np.int64),
            ):
                digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == GOLDEN_ENSEMBLE_DIGEST

    @pytest.mark.parametrize("prop", VECTOR_FORMULAS)
    def test_ensembles_bitwise_identical(self, prop, rng):
        """KernelBackend realises the deleted vectorized engine's ensembles."""
        chain = _labelled_chain(rng)
        formula = parse_property(prop)
        # Below COMPACT_INTERVAL steps no failed trace's records are dropped.
        plan = make_plan(chain, formula, record_log_prob=True, max_steps=60)
        result = KernelBackend(plan).run_ensemble(500, np.random.default_rng(7))
        assert _ensemble_digest(result) == VECTORIZED_ENSEMBLE_DIGESTS[prop]

    def test_fused_numerator_matches_vectorized(self, rng):
        chain = _labelled_chain(rng)
        weight = random_dtmc(rng, chain.n_states, sparsity=1.0)
        plan = make_plan(
            chain, parse_property('F "goal"'), record_log_prob=True,
            weight_chain=weight, max_steps=60,
        )
        result = KernelBackend(plan).run_ensemble(400, np.random.default_rng(3))
        assert result.log_numerators is not None
        numerators = np.ascontiguousarray(result.log_numerators.astype(np.float64))
        assert (
            hashlib.sha256(numerators.tobytes()).hexdigest()
            == VECTORIZED_NUMERATOR_DIGEST
        )

    @pytest.mark.parametrize("prop", VECTOR_FORMULAS)
    def test_trace_for_trace_vs_sequential(self, prop, rng):
        """One-trace batches of the kernel and the scalar walk are bitwise
        identical."""
        chain = _labelled_chain(rng)
        weight = random_dtmc(rng, chain.n_states, sparsity=1.0)
        plan = make_plan(
            chain, parse_property(prop), record_log_prob=True,
            weight_chain=weight, max_steps=50,
        )
        seq, ker = ScalarWalk(plan), KernelBackend(plan)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        for _ in range(100):
            a = seq.run_ensemble(1, rng_a)
            b = ker.run_ensemble(1, rng_b)
            _assert_ensembles_identical(a, b)

    def test_self_weight_numerator_equals_proposal(self, small_chain):
        # Weighting against the sampled chain itself: log a = log b exactly.
        plan = make_plan(
            small_chain, parse_property('F "goal"'), record_log_prob=True,
            weight_chain=small_chain,
        )
        result = KernelBackend(plan).run_ensemble(300, np.random.default_rng(5))
        np.testing.assert_array_equal(result.log_numerators, result.log_proposals)

    def test_requires_mask_spec(self, small_chain):
        formula = parse_property('(F<=3 "goal") | (F<=5 "fail")')
        with pytest.raises(PropertyError, match="cannot be simulated"):
            make_plan(small_chain, formula)

    def test_fuses_weights_property(self, small_chain):
        """The kernel (and the scalar walk) fuse the numerator exactly when
        given a weight chain."""
        formula = parse_property('F "goal"')
        plain = make_plan(small_chain, formula)
        fused = make_plan(
            small_chain, formula, weight_chain=small_chain, record_log_prob=True
        )
        for backend in (ScalarWalk, KernelBackend):
            result = backend(plain).run_ensemble(50, np.random.default_rng(1))
            assert result.log_numerators is None, backend.name
            result = backend(fused).run_ensemble(50, np.random.default_rng(1))
            np.testing.assert_array_equal(result.log_numerators, result.log_proposals)


def _assert_ensembles_identical(a, b):
    """Every per-trace array of two ensembles is bitwise equal."""
    for field in ("satisfied", "decided", "lengths", "log_proposals", "log_numerators"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        assert x.tobytes() == y.tobytes(), field
    ca, cb = aggregate_records(a.step_records), aggregate_records(b.step_records)
    assert (ca.n_traces, ca.n_states) == (cb.n_traces, cb.n_states)
    for field in ("kept", "trace_ids", "sources", "targets", "counts"):
        x, y = getattr(ca, field), getattr(cb, field)
        assert x.dtype == y.dtype, field
        assert x.tobytes() == y.tobytes(), field


@pytest.fixture
def tracing():
    """Enable tracing for one test, restoring the prior state afterwards."""
    prior = obs_trace.status()
    obs_trace.reset()
    obs_trace.configure(enabled=True)
    yield
    obs_trace.configure(enabled=bool(prior["enabled"]))
    obs_trace.reset()


class TestFutilityCutCensus:
    """The tracing-gated cut census and the ``simulate`` span fields.

    On quick knuth-yao the futility mask cuts about a third of the traces,
    and the kernel backend decides them from its per-state verdict table.
    """

    @pytest.fixture(scope="class")
    def plan(self):
        study = REGISTRY.get("knuth-yao").build(quick=True)
        return make_plan(
            study.proposal, study.formula, record_log_prob=True,
            weight_chain=study.center,
        )

    def test_kernel_counts_the_sequential_cuts(self, plan, tracing):
        cuts_metric = obs_metrics.registry().counter(
            "repro_futility_cuts_total", labelnames=("backend",)
        )
        before = cuts_metric.value(backend="kernel")
        kernel, walk = KernelBackend(plan), ScalarWalk(plan)
        for backend in (kernel, walk):
            rng = np.random.default_rng(5)
            for _ in range(300):
                backend.run_ensemble(1, rng)
        cuts = cuts_metric.value(backend="kernel") - before
        assert cuts == walk.cuts
        assert 60 <= cuts <= 140

    def test_span_reports_cuts_and_iterations(self, plan, tracing):
        backend = KernelBackend(plan)
        assert backend._state_codes is not None  # the verdict-table path
        result = backend.run_ensemble(400, np.random.default_rng(6))
        (record,) = [e for e in obs_trace.events() if e["name"] == "simulate"]
        fields = record["fields"]
        # One lockstep chunk runs until its longest trace is decided.
        assert fields["iterations"] == int(result.lengths.max())
        assert fields["steps"] == result.total_length
        assert 0 < fields["futility_cuts"] <= result.n_samples - result.n_satisfied

    def test_tracing_leaves_ensembles_unchanged(self, plan):
        prior = obs_trace.status()
        ensembles = []
        try:
            for enabled in (False, True):
                obs_trace.configure(enabled=enabled)
                ensembles.append(
                    KernelBackend(plan).run_ensemble(500, np.random.default_rng(7))
                )
        finally:
            obs_trace.configure(enabled=bool(prior["enabled"]))
            obs_trace.reset()
        _assert_ensembles_identical(*ensembles)


class TestKeyCompaction:
    def test_dropping_failed_keys_keeps_satisfied_tables(self, monkeypatch):
        """Compacting the recorded keys mid-run leaves every satisfied
        trace's table as a run that never compacts records it."""
        # From state 0 a trace stays, fails or succeeds: by step 4 the
        # failed traces' keys are over half of those held.
        chain = DTMC(
            np.array([[0.6, 0.25, 0.15], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            0,
            labels={"fail": [1], "goal": [2]},
        )
        plan = make_plan(chain, parse_property('!"fail" U "goal"'))
        results = {}
        for interval in (2, 1 << 30):
            monkeypatch.setattr(engine, "COMPACT_INTERVAL", interval)
            results[interval] = KernelBackend(plan).run_ensemble(800, np.random.default_rng(8))
        compacted, never = results[2], results[1 << 30]
        kept = aggregate_records(compacted.step_records, kept=compacted.satisfied)
        full = aggregate_records(never.step_records)
        assert compacted.step_records.traces.size < never.step_records.traces.size
        assert 0 < never.n_satisfied < 800
        mine = never.satisfied[full.trace_ids]
        for field in ("trace_ids", "sources", "targets", "counts"):
            np.testing.assert_array_equal(getattr(kept, field), getattr(full, field)[mine])


class TestOneTraceEndToEnd:
    """Scalar-walk and kernel one-trace samples agree down to the last bit.

    On group-repair (quick) every satisfied one-trace batch gives the same
    counts, fused numerator, observation tables, IS estimate and IMCIS
    interval from both simulators.
    """

    def test_group_repair_one_trace_batches(self):
        study = REGISTRY.get("group-repair").build(quick=True)
        center = study.imc.center
        config = IMCISConfig(
            confidence=study.confidence,
            search=RandomSearchConfig(r_undefeated=20, record_history=False),
        )
        satisfied = 0
        for seed in range(12):
            seq = oracle_sample(
                study.proposal, study.formula, 1, np.random.default_rng(seed),
                original=center,
            )
            ker = run_importance_sampling(
                study.proposal, study.formula, 1, np.random.default_rng(seed),
                original=center,
            )
            assert seq.n_satisfied == ker.n_satisfied
            if not ker.n_satisfied:
                continue
            satisfied += 1
            for field in ("kept", "trace_ids", "sources", "targets", "counts"):
                assert (
                    getattr(aggregate_records(seq.step_records, seq.trace_ids), field).tobytes()
                    == getattr(aggregate_records(ker.step_records, ker.trace_ids), field).tobytes()
                )
            assert seq.log_numerator.tobytes() == ker.log_numerator.tobytes()
            assert seq.log_proposal.tobytes() == ker.log_proposal.tobytes()
            tables_s = ObservationTables.from_sample(seq)
            tables_k = ObservationTables.from_sample(ker)
            assert tables_s.transitions == tables_k.transitions
            assert tables_s.counts.toarray().tobytes() == tables_k.counts.toarray().tobytes()
            est_s = estimate_from_sample(center, seq, study.confidence)
            est_k = estimate_from_sample(center, ker, study.confidence)
            assert (est_s.estimate, est_s.interval.low, est_s.interval.high, est_s.ess) == (
                est_k.estimate, est_k.interval.low, est_k.interval.high, est_k.ess
            )
            imcis_s = imcis_from_sample(study.imc, seq, np.random.default_rng(seed), config)
            imcis_k = imcis_from_sample(study.imc, ker, np.random.default_rng(seed), config)
            assert (imcis_s.interval.low, imcis_s.interval.high) == (
                imcis_k.interval.low, imcis_k.interval.high
            )
            assert imcis_s.center_estimate.estimate == imcis_k.center_estimate.estimate
        assert satisfied >= 5


class TestEnsembleMerge:
    """Batches of one backend merge by ``EnsembleResult.concatenate``."""

    def _plan(self, chain, weight=None):
        return make_plan(
            chain, parse_property('F "goal"'), record_log_prob=True,
            weight_chain=weight,
        )

    def test_concatenate_all_arrays(self, small_chain):
        plan = self._plan(small_chain, weight=small_chain)
        backend = KernelBackend(plan)
        a = backend.run_ensemble(60, np.random.default_rng(1))
        b = backend.run_ensemble(40, np.random.default_rng(2))
        merged = EnsembleResult.concatenate([a, b])
        assert merged.n_samples == 100
        assert merged.step_records is not None
        np.testing.assert_array_equal(
            merged.log_numerators,
            np.concatenate([a.log_numerators, b.log_numerators]),
        )
        tables = aggregate_records(merged.step_records).tables()
        assert tables[:60] == aggregate_records(a.step_records).tables()

    def test_concatenate_rejects_batches_of_two_backends(self, small_chain):
        """A kernel batch keys its records by the CSR's entry table, a
        scalar-walk batch by its own distinct keys: they do not concatenate."""
        plan = self._plan(small_chain)
        kernel = KernelBackend(plan).run_ensemble(50, np.random.default_rng(9))
        scalar = ScalarWalk(plan).run_ensemble(30, np.random.default_rng(10))
        with pytest.raises(EstimationError, match="entry tables"):
            EnsembleResult.concatenate([kernel, scalar])

    def test_merge_without_numerators_keeps_none(self, small_chain):
        plan = self._plan(small_chain)
        backend = KernelBackend(plan)
        a = backend.run_ensemble(20, np.random.default_rng(3))
        b = backend.run_ensemble(20, np.random.default_rng(4))
        assert EnsembleResult.concatenate([a, b]).log_numerators is None


class TestFusedEstimatorParity:
    """Fused weights equal the weights binned from the step records, bitwise."""

    @pytest.fixture
    def setup(self):
        original = DTMC(
            illustrative_matrix(0.05, 0.3), 0, labels={"goal": [2], "init": [0]}
        )
        proposal = DTMC(
            illustrative_matrix(0.5, 0.6), 0, labels={"goal": [2], "init": [0]}
        )
        return original, proposal, parse_property('F "goal"')

    def test_fused_matches_classic_weights(self, setup):
        original, proposal, formula = setup
        classic = run_importance_sampling(
            proposal, formula, 2000, np.random.default_rng(11)
        )
        fused = run_importance_sampling(
            proposal, formula, 2000, np.random.default_rng(11),
            original=original, keep_counts=False,
        )
        assert fused.n_satisfied == classic.n_satisfied
        np.testing.assert_array_equal(
            log_weights(original, fused), log_weights(original, classic)
        )
        a = estimate_from_sample(original, fused)
        b = estimate_from_sample(original, classic)
        assert (a.estimate, a.interval.low, a.interval.high, a.ess) == (
            b.estimate, b.interval.low, b.interval.high, b.ess
        )

    def test_keep_counts_false_drops_tables(self, setup):
        original, proposal, formula = setup
        sample = run_importance_sampling(
            proposal, formula, 300, np.random.default_rng(1),
            original=original, keep_counts=False,
        )
        assert sample.step_records is None
        # the fused numerator still serves the estimate
        assert estimate_from_sample(original, sample).estimate > 0

    def test_keep_counts_true_retains_tables_and_fuses(self, setup):
        original, proposal, formula = setup
        sample = run_importance_sampling(
            proposal, formula, 300, np.random.default_rng(1), original=original
        )
        assert sample.step_records is not None
        assert sample.trace_ids.size == sample.n_satisfied
        # Same seed without fusion: identical traces, identical weights.
        classic = run_importance_sampling(
            proposal, formula, 300, np.random.default_rng(1)
        )
        np.testing.assert_array_equal(
            log_weights(original, sample), log_weights(original, classic)
        )

    def test_other_chain_falls_back_to_tables(self, setup):
        """Evaluating a fused sample against a *different* chain bins the
        step records, preserving Algorithm 1's sample-reuse property."""
        original, proposal, formula = setup
        other = DTMC(illustrative_matrix(0.08, 0.3), 0, labels={"goal": [2]})
        sample = run_importance_sampling(
            proposal, formula, 500, np.random.default_rng(2), original=original
        )
        first = estimate_from_sample(original, sample)
        second = estimate_from_sample(other, sample)
        assert first.estimate != second.estimate


class TestRegistryQuickStudyParity:
    """Statistical parity of the kernel and the scalar walk on every quick study."""

    @pytest.mark.parametrize("name", REGISTRY.quick_studies())
    def test_kernel_vectorized_sequential_agree(self, name):
        """The kernel (whose ensembles the removed vectorized engine
        realised bitwise, see :data:`VECTORIZED_ENSEMBLE_DIGESTS`) draws the
        stream per step, the scalar walk that replaced the sequential
        backend per trace: same distribution, so the successes agree
        within 5 sigma."""
        study = REGISTRY.get(name).build(quick=True)
        results = []
        for sample_with in (run_importance_sampling, oracle_sample):
            sample = sample_with(
                study.proposal, study.formula, 300, np.random.default_rng(2024),
                original=study.center,
            )
            results.append(estimate_from_sample(study.center, sample, study.confidence))
        kernel, scalar = results
        assert kernel.n_samples == scalar.n_samples == 300
        gap = abs(kernel.n_satisfied - scalar.n_satisfied)
        assert gap <= 5 * np.sqrt(kernel.n_satisfied + scalar.n_satisfied + 1)
        assert np.isfinite(kernel.estimate) and np.isfinite(scalar.estimate)
