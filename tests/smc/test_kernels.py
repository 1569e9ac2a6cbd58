"""Parity and unit tests for the compiled kernel tier.

Three layers of the kernel contract are pinned here:

* **implementation drift** — the NumPy and scalar-loop twins of every
  kernel are bitwise identical on random inputs (the loop twin is what
  numba compiles, so this is the tier-parity guarantee checked without
  numba installed);
* **stream stability** — ``KernelBackend`` ensembles hash to a committed
  golden digest, including the fused log-numerator accumulator, and
  realise bitwise the sequential engine's one-trace batches, down to the
  IS estimate and IMCIS interval built from them;
* **estimator parity** — fused importance weights reproduce the
  count-array weights on every registry quick study.
"""

import hashlib
import os
import subprocess
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import DTMC
from repro.errors import EstimationError
from repro.imcis import IMCISConfig, ObservationTables, RandomSearchConfig, imcis_from_sample
from repro.importance import estimate_from_sample, log_weights, run_importance_sampling
from repro.models.registry import REGISTRY
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.properties import parse_property
from repro.properties.monitor import Verdict
from repro.smc import (
    KernelBackend,
    SequentialBackend,
    make_plan,
    resolve_backend,
)
from repro.smc import engine, kernels
from repro.smc.engine import CompiledCSR
from repro.smc.kernels import TraceCounts, kernel_runtime_info

from tests.conftest import illustrative_matrix, random_dtmc
from tests.smc.test_engine import VECTOR_FORMULAS, _labelled_chain

_KIND_CODES = {
    "state": kernels.KIND_STATE,
    "until": kernels.KIND_UNTIL,
    "globally": kernels.KIND_GLOBALLY,
}


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

#: Kernel verdict code of each scalar-monitor verdict.
_VERDICT_CODES = {
    Verdict.UNDECIDED: kernels.CODE_UNDECIDED,
    Verdict.TRUE: kernels.CODE_TRUE,
    Verdict.FALSE: kernels.CODE_FALSE,
}


def _spec_args(spec, n_states):
    """Kernel-call arguments of a ``MaskSpec`` (mirrors ``KernelBackend``)."""
    dummy = np.zeros(1, dtype=bool)

    def mask(m):
        return dummy if m is None else np.ascontiguousarray(m, dtype=bool)

    return (
        _KIND_CODES[spec.kind],
        mask(spec.lhs),
        mask(spec.rhs),
        mask(spec.initial_check),
        spec.initial_check is not None,
        -1 if spec.bound is None else int(spec.bound),
        int(spec.n_next),
        bool(spec.lhs_exempt),
    )


class TestTierSelection:
    def test_runtime_info_shape(self):
        info = kernel_runtime_info()
        assert info["tier"] in ("numba", "numpy")
        assert info["requested"] in kernels.KERNEL_TIERS
        assert info["fallback_active"] == (info["tier"] == "numpy")
        if not info["numba_available"]:
            assert info["tier"] == "numpy"
            assert info["numba_version"] is None

    def test_numpy_tier_binds_numpy_impls(self):
        if kernel_runtime_info()["tier"] != "numpy":
            pytest.skip("numba tier active")
        assert kernels.gather_step is kernels._gather_step_numpy
        assert kernels.monitor_codes is kernels._monitor_codes_numpy
        assert kernels.futility_cut is kernels._futility_cut_numpy
        assert kernels.gather_add is kernels._gather_add_numpy

    def _import_with_env(self, value):
        env = dict(os.environ, REPRO_KERNEL=value)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        return subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.smc.kernels import kernel_runtime_info;"
                "import json; print(json.dumps(kernel_runtime_info()))",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )

    def test_env_forces_numpy(self):
        proc = self._import_with_env("numpy")
        assert proc.returncode == 0, proc.stderr
        import json

        info = json.loads(proc.stdout)
        assert info == {
            "tier": "numpy",
            "requested": "numpy",
            "numba_available": False,
            "numba_version": None,
            "fallback_active": True,
        }

    def test_env_rejects_unknown_tier(self):
        proc = self._import_with_env("gpu")
        assert proc.returncode != 0
        assert "REPRO_KERNEL" in proc.stderr


class TestImplementationParity:
    """The NumPy and scalar-loop twins must never drift apart."""

    @pytest.mark.parametrize("sparsity", [0.2, 0.6, 1.0])
    def test_gather_step(self, rng, sparsity):
        chain = random_dtmc(rng, 12, sparsity=sparsity)
        csr = CompiledCSR.from_chain(chain)
        states = rng.integers(0, 12, size=400)
        u = rng.random(400)
        # Stress the <= boundary: reuse exact cumulative values as draws.
        u[:50] = csr.cumprobs[rng.integers(0, csr.cumprobs.size, size=50)]
        a_pos, a_nxt = kernels._gather_step_numpy(
            csr.indptr, csr.indices, csr.cumprobs, states, u
        )
        b_pos, b_nxt = kernels._gather_step_loop(
            csr.indptr, csr.indices, csr.cumprobs, states, u
        )
        np.testing.assert_array_equal(a_pos, b_pos)
        np.testing.assert_array_equal(a_nxt, b_nxt)

    @pytest.mark.parametrize("sparsity", [0.2, 0.6, 1.0])
    def test_gather_step_padded(self, rng, sparsity):
        chain = random_dtmc(rng, 12, sparsity=sparsity)
        csr = CompiledCSR.from_chain(chain)
        assert csr.cum_pad is not None
        states = rng.integers(0, 12, size=400)
        u = rng.random(400)
        u[:50] = csr.cumprobs[rng.integers(0, csr.cumprobs.size, size=50)]
        u[u >= 1.0] = np.nextafter(1.0, 0.0)  # the engine's draws lie in [0, 1)
        _assert_lookups_agree(csr, states, u)

    @pytest.mark.parametrize("prop", MONITOR_FORMULAS)
    def test_monitor_codes_match_vector_monitors(self, prop, rng):
        """Both twins reproduce the scalar monitors along random paths.

        One scalar monitor per trace (``formula.compile``) steps through a
        random state path; at every position, each trace still undecided
        before it must get the scalar verdict from the mask-spec codes.
        """
        chain = _labelled_chain(rng)
        formula = parse_property(prop)
        spec = formula.mask_spec(chain)
        assert spec is not None
        args = _spec_args(spec, chain.n_states)
        factory = formula.compile(chain)
        paths = rng.integers(0, chain.n_states, size=(256, 12))
        monitors = [factory() for _ in range(paths.shape[0])]
        live = np.ones(paths.shape[0], dtype=bool)
        for time in range(paths.shape[1]):
            states = paths[:, time]
            expected = np.array(
                [_VERDICT_CODES[m.update(int(s))] for m, s in zip(monitors, states)],
                dtype=np.int8,
            )
            got_np = kernels._monitor_codes_numpy(states[live], time, *args)
            got_loop = kernels._monitor_codes_loop(states[live], time, *args)
            np.testing.assert_array_equal(got_np, expected[live])
            np.testing.assert_array_equal(got_loop, expected[live])
            live &= expected == kernels.CODE_UNDECIDED

    def test_futility_cut(self, rng):
        codes = rng.integers(0, 3, size=200).astype(np.int8)
        fut = rng.random(9) < 0.4
        states = rng.integers(0, 9, size=200)
        a, b = codes.copy(), codes.copy()
        kernels._futility_cut_numpy(a, fut, states)
        kernels._futility_cut_loop(b, fut, states)
        np.testing.assert_array_equal(a, b)
        # undecided traces in futile states flip, everything else survives
        flipped = (codes == kernels.CODE_UNDECIDED) & fut[states]
        np.testing.assert_array_equal(a[flipped], kernels.CODE_FALSE)
        np.testing.assert_array_equal(a[~flipped], codes[~flipped])

    def test_gather_add(self, rng):
        table = rng.standard_normal(30)
        idx = rng.permutation(100)[:40]  # distinct slots, like the live set
        pos = rng.integers(0, 30, size=40)
        a = rng.standard_normal(100)
        b = a.copy()
        kernels._gather_add_numpy(a, idx, table, pos)
        kernels._gather_add_loop(b, idx, table, pos)
        np.testing.assert_array_equal(a, b)


def _assert_lookups_agree(csr, states, u):
    """Both padded-lookup twins resolve the binary search's entry."""
    states = np.asarray(states, dtype=np.int64)
    expected = kernels._gather_step_loop(csr.indptr, csr.indices, csr.cumprobs, states, u)
    for lookup in (kernels._gather_step_padded_numpy, kernels._gather_step_padded_loop):
        pos, nxt = lookup(csr.row_lo, csr.cum_pad, csr.indices, states, u)
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
        assert csr.cum_pad.shape == (len(self.ROWS), 10)
        draws = np.concatenate(
            [[0.0, 1e-300, 5e-301, 0.25, 0.5, self.BELOW_ONE], csr.cumprobs[:-1]]
        )
        draws = draws[draws < 1.0]  # a uniform draw never reaches 1
        states = np.repeat(np.arange(len(self.ROWS)), draws.size)
        _assert_lookups_agree(csr, states, np.tile(draws, len(self.ROWS)))

    def test_largest_draw_stays_in_row(self):
        csr = _csr_from_cumulative(self.ROWS)
        states = np.arange(len(self.ROWS), dtype=np.int64)
        pos, _ = kernels.gather_step_padded(
            csr.row_lo, csr.cum_pad, csr.indices, states, np.full(states.size, self.BELOW_ONE)
        )
        assert np.all(pos < csr.indptr[1:])  # never a padding column

    def test_wide_chain_takes_binary_search(self, rng, monkeypatch):
        """Rows wider than the cap keep the binary search, realising the
        padded lookup's ensembles bitwise."""
        n = kernels.PADDED_DEGREE_CAP + 4
        chain = random_dtmc(rng, n, sparsity=1.0).with_labels(
            {"goal": [n - 1], "fail": [1]}
        )
        plan = make_plan(
            chain, parse_property('!"fail" U "goal"'), count_mode="all",
            record_log_prob=True, weight_chain=chain, max_steps=80,
        )
        wide = KernelBackend(plan)
        assert wide.csr.cum_pad is None
        searched = wide.run_ensemble(500, np.random.default_rng(9))
        monkeypatch.setattr(kernels, "PADDED_DEGREE_CAP", n)
        padded = KernelBackend(plan)
        assert padded.csr.cum_pad is not None
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


class TestTraceCounts:
    def test_from_step_keys_matches_dict_aggregation(self, rng):
        n_traces, n_states = 20, 5
        kept = rng.random(n_traces) < 0.6
        step_traces, step_keys = _random_steps(rng, n_traces, n_states)
        counts = TraceCounts.from_step_keys(
            n_traces, n_states, kept, step_traces, step_keys
        )
        expected = _brute_force_tables(n_traces, n_states, kept, step_traces, step_keys)
        tables = counts.to_tables()
        for k in range(n_traces):
            if expected[k] is None:
                assert tables[k] is None
            else:
                assert dict(tables[k].counts) == expected[k]
                # dict iteration order is the sorted flat-key order
                got_keys = [s * n_states + t for s, t in tables[k].counts]
                assert got_keys == sorted(got_keys)

    def test_empty_steps(self):
        counts = TraceCounts.from_step_keys(3, 4, np.array([True, False, True]), [], [])
        assert counts.n_entries == 0
        tables = counts.to_tables()
        assert dict(tables[0].counts) == {}
        assert tables[1] is None
        assert dict(tables[2].counts) == {}

    def test_select_renumbers(self, rng):
        n_traces, n_states = 15, 4
        kept = np.ones(n_traces, dtype=bool)
        counts = TraceCounts.from_step_keys(
            n_traces, n_states, kept, *_random_steps(rng, n_traces, n_states)
        )
        picked = np.array([2, 7, 11], dtype=np.int64)
        sub = counts.select(picked)
        assert sub.n_traces == 3
        full = counts.to_tables()
        small = sub.to_tables()
        for new, old in enumerate(picked):
            assert dict(small[new].counts) == dict(full[old].counts)

    def test_map_states_merges_collisions(self, rng):
        n_traces, n_states = 10, 6
        kept = np.ones(n_traces, dtype=bool)
        counts = TraceCounts.from_step_keys(
            n_traces, n_states, kept, *_random_steps(rng, n_traces, n_states)
        )
        state_map = np.arange(6, dtype=np.int64) % 3  # 6 states fold onto 3
        projected = counts.map_states(state_map, 3)
        assert projected.n_states == 3
        for orig, proj in zip(counts.to_tables(), projected.to_tables()):
            expected = {}
            for (s, t), c in orig.counts.items():
                pair = (s % 3, t % 3)
                expected[pair] = expected.get(pair, 0) + c
            assert dict(proj.counts) == expected

    def test_lexsort_fallback_matches_one_key_sort(self, rng):
        """Chains too large for the ``trace · n_states² + key`` int64 key
        aggregate through ``lexsort`` into the same entries."""
        n_traces, n_states, huge = 20, 5, 2**31
        assert n_traces * huge**2 > np.iinfo(np.int64).max
        kept = rng.random(n_traces) < 0.6
        step_traces, step_keys = _random_steps(rng, n_traces, n_states)
        wide_keys = [(k // n_states) * huge + k % n_states for k in step_keys]
        small = TraceCounts.from_step_keys(n_traces, n_states, kept, step_traces, step_keys)
        large = TraceCounts.from_step_keys(n_traces, huge, kept, step_traces, wide_keys)
        identity = np.arange(n_states, dtype=np.int64)
        for a, b in (
            (small, large),
            (small.map_states(identity, n_states), large.map_states(identity, huge)),
        ):
            for field in ("trace_ids", "sources", "targets", "counts"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_concatenate_offsets_traces(self, rng):
        n_states = 4
        chunks = [
            TraceCounts.from_step_keys(
                n, n_states, np.ones(n, dtype=bool), *_random_steps(rng, n, n_states)
            )
            for n in (3, 5, 2)
        ]
        merged = TraceCounts.concatenate(chunks)
        assert merged.n_traces == 10
        tables = merged.to_tables()
        offset = 0
        for chunk in chunks:
            for k, table in enumerate(chunk.to_tables()):
                assert dict(tables[offset + k].counts) == dict(table.counts)
            offset += chunk.n_traces

    def test_concatenate_rejects_mixed_chains(self, rng):
        a = TraceCounts.from_step_keys(2, 4, np.ones(2, dtype=bool), [], [])
        b = TraceCounts.from_step_keys(2, 5, np.ones(2, dtype=bool), [], [])
        with pytest.raises(EstimationError):
            TraceCounts.concatenate([a, b])
        with pytest.raises(EstimationError):
            TraceCounts.concatenate([])

    def test_trace_log_probs_match_table_walk(self, rng):
        chain = random_dtmc(rng, 5, sparsity=1.0)
        n_traces = 12
        kept = np.ones(n_traces, dtype=bool)
        counts = TraceCounts.from_step_keys(
            n_traces, 5, kept, *_random_steps(rng, n_traces, 5)
        )
        logs = counts.trace_log_probs(chain)
        dense = chain.dense()
        for k, table in enumerate(counts.to_tables()):
            expected = sum(
                c * np.log(dense[s, t]) for (s, t), c in table.counts.items()
            )
            assert logs[k] == pytest.approx(expected, rel=1e-12)

    def test_trace_log_probs_empty_trace_is_zero(self):
        counts = TraceCounts.from_step_keys(4, 3, np.ones(4, dtype=bool), [], [])
        chain = DTMC(np.eye(3), 0)
        np.testing.assert_array_equal(counts.trace_log_probs(chain), np.zeros(4))


#: SHA-256 of the ``KernelBackend`` ensembles drawn by
#: :func:`_golden_ensembles`.
GOLDEN_ENSEMBLE_DIGEST = "2168b284db9261a8072be8209bd7961c3fb5cb79a2557d0051dae61811a4ecf0"


def _golden_ensembles():
    """Kernel ensembles covering every per-trace output of the engine.

    Two quick studies — group-repair (long traces, many compactions) and
    knuth-yao (whose futility mask cuts about a third of the traces) —
    each under both count modes that keep tables, with log-proposals and
    the fused log-numerator against the learnt centre. ``max_ensemble``
    splits every batch into three lockstep chunks.
    """
    for name in ("group-repair", "knuth-yao"):
        study = REGISTRY.get(name).build(quick=True)
        for mode in ("satisfied", "all"):
            plan = make_plan(
                study.proposal, study.formula, count_mode=mode,
                record_log_prob=True, weight_chain=study.center,
            )
            assert plan.futility is not None
            yield KernelBackend(plan, max_ensemble=700).run_ensemble(
                2000, np.random.default_rng(2018)
            )


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
    for table in result.count_arrays.to_tables():
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
    """KernelBackend's stream is pinned; one-trace batches match sequential."""

    def test_ensembles_match_golden_digest(self):
        """The lockstep stream does not drift.

        Hashes verdicts, decided flags, lengths, log-proposals,
        log-numerators and the ``TraceCounts`` arrays. The digest was
        generated at version 0.10.0, where the then-existing pure-NumPy
        ``VectorizedBackend`` hashed to the same digest on these
        ensembles — so it also pins the stream that backend realised.
        A change here changes every lockstep result: regenerate the
        digest only together with a results-version bump.
        """
        digest = hashlib.sha256()
        for result in _golden_ensembles():
            counts = result.count_arrays
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
        plan = make_plan(
            chain, formula, count_mode="all", record_log_prob=True, max_steps=60
        )
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
        """One-trace batches of both backends are bitwise identical."""
        chain = _labelled_chain(rng)
        weight = random_dtmc(rng, chain.n_states, sparsity=1.0)
        plan = make_plan(
            chain, parse_property(prop), count_mode="all", record_log_prob=True,
            weight_chain=weight, max_steps=50,
        )
        seq, ker = SequentialBackend(plan), KernelBackend(plan)
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
        plan = make_plan(small_chain, formula)
        with pytest.raises(EstimationError):
            KernelBackend(plan)

    def test_kernel_request_falls_back_sequential(self, small_chain):
        formula = parse_property('(F<=3 "goal") | (F<=5 "fail")')
        backend = resolve_backend("kernel", make_plan(small_chain, formula))
        assert backend.name == "sequential"

    def test_fuses_weights_property(self, small_chain):
        """Every backend fuses the numerator exactly when given a weight chain."""
        formula = parse_property('F "goal"')
        plain = make_plan(small_chain, formula)
        fused = make_plan(
            small_chain, formula, weight_chain=small_chain, record_log_prob=True
        )
        for backend in ("sequential", "kernel"):
            result = resolve_backend(backend, plain).run_ensemble(
                50, np.random.default_rng(1)
            )
            assert result.log_numerators is None, backend
            result = resolve_backend(backend, fused).run_ensemble(
                50, np.random.default_rng(1)
            )
            np.testing.assert_array_equal(result.log_numerators, result.log_proposals)


def _assert_ensembles_identical(a, b):
    """Every per-trace array of two ensembles is bitwise equal."""
    for field in ("satisfied", "decided", "lengths", "log_proposals", "log_numerators"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        assert x.tobytes() == y.tobytes(), field
    ca, cb = a.count_arrays, b.count_arrays
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
            study.proposal, study.formula, count_mode="all", record_log_prob=True,
            weight_chain=study.center,
        )

    def test_kernel_counts_the_sequential_cuts(self, plan, tracing):
        cuts_metric = obs_metrics.registry().counter(
            "repro_futility_cuts_total", labelnames=("backend",)
        )
        cuts = {}
        for backend in (SequentialBackend(plan), KernelBackend(plan)):
            before = cuts_metric.value(backend=backend.name)
            rng = np.random.default_rng(5)
            for _ in range(300):
                backend.run_ensemble(1, rng)
            cuts[backend.name] = cuts_metric.value(backend=backend.name) - before
        assert cuts["kernel"] == cuts["sequential"]
        assert 60 <= cuts["kernel"] <= 140

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
        trace's table as ``count_mode="all"`` records it."""
        monkeypatch.setattr(engine, "COMPACT_INTERVAL", 2)
        # From state 0 a trace stays, fails or succeeds: by step 4 the
        # failed traces' keys are over half of those held.
        chain = DTMC(
            np.array([[0.6, 0.25, 0.15], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            0,
            labels={"fail": [1], "goal": [2]},
        )
        results = {}
        for mode in ("satisfied", "all"):
            plan = make_plan(chain, parse_property('!"fail" U "goal"'), count_mode=mode)
            results[mode] = KernelBackend(plan).run_ensemble(800, np.random.default_rng(8))
        kept, full = results["satisfied"].count_arrays, results["all"].count_arrays
        assert 0 < results["all"].n_satisfied < 800
        mine = results["all"].satisfied[full.trace_ids]
        for field in ("trace_ids", "sources", "targets", "counts"):
            np.testing.assert_array_equal(getattr(kept, field), getattr(full, field)[mine])


class TestOneTraceEndToEnd:
    """Sequential and kernel one-trace samples agree down to the last bit.

    On group-repair (quick) every satisfied one-trace batch gives the same
    counts, fused numerator, observation tables, IS estimate and IMCIS
    interval under both backends.
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
            outcomes = {}
            for backend in ("sequential", "kernel"):
                sample = run_importance_sampling(
                    study.proposal, study.formula, 1, np.random.default_rng(seed),
                    backend=backend, original=center,
                )
                outcomes[backend] = sample
            seq, ker = outcomes["sequential"], outcomes["kernel"]
            assert seq.n_satisfied == ker.n_satisfied
            if not ker.n_satisfied:
                continue
            satisfied += 1
            for field in ("kept", "trace_ids", "sources", "targets", "counts"):
                assert (
                    getattr(seq.count_arrays, field).tobytes()
                    == getattr(ker.count_arrays, field).tobytes()
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
    """merge/concatenate across count representations and accumulators."""

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
        merged = a.merge(b)
        assert merged.n_samples == 100
        assert merged.count_arrays is not None
        np.testing.assert_array_equal(
            merged.log_numerators,
            np.concatenate([a.log_numerators, b.log_numerators]),
        )
        assert merged.count_arrays.to_tables()[:60] == a.count_arrays.to_tables()

    def test_merge_mixed_representations(self, small_chain):
        """A kernel batch and a sequential batch merge into one ``TraceCounts``."""
        plan = self._plan(small_chain)
        kernel = KernelBackend(plan).run_ensemble(50, np.random.default_rng(9))
        sequential = SequentialBackend(plan).run_ensemble(30, np.random.default_rng(10))
        merged = kernel.merge(sequential)
        assert merged.n_samples == 80
        combined = merged.count_arrays.to_tables()
        assert combined == (
            kernel.count_arrays.to_tables() + sequential.count_arrays.to_tables()
        )

    def test_merge_without_numerators_keeps_none(self, small_chain):
        plan = self._plan(small_chain)
        backend = KernelBackend(plan)
        a = backend.run_ensemble(20, np.random.default_rng(3))
        b = backend.run_ensemble(20, np.random.default_rng(4))
        assert a.merge(b).log_numerators is None


class TestFusedEstimatorParity:
    """Fused weights reproduce the classic per-trace table walk."""

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
            proposal, formula, 2000, np.random.default_rng(11), backend="kernel"
        )
        fused = run_importance_sampling(
            proposal, formula, 2000, np.random.default_rng(11),
            backend="kernel", original=original, keep_counts=False,
        )
        assert fused.n_satisfied == classic.n_satisfied
        np.testing.assert_allclose(
            log_weights(original, fused), log_weights(original, classic), rtol=1e-9
        )
        a = estimate_from_sample(original, fused)
        b = estimate_from_sample(original, classic)
        assert a.estimate == pytest.approx(b.estimate, rel=1e-9)
        assert a.interval.low == pytest.approx(b.interval.low, rel=1e-9, abs=1e-12)
        assert a.interval.high == pytest.approx(b.interval.high, rel=1e-9)
        assert a.ess == pytest.approx(b.ess, rel=1e-9)

    def test_keep_counts_false_drops_tables(self, setup):
        original, proposal, formula = setup
        sample = run_importance_sampling(
            proposal, formula, 300, np.random.default_rng(1),
            original=original, keep_counts=False,
        )
        assert sample.count_arrays is None
        # the fused numerator still serves the estimate
        assert estimate_from_sample(original, sample).estimate > 0

    def test_keep_counts_true_retains_tables_and_fuses(self, setup):
        original, proposal, formula = setup
        sample = run_importance_sampling(
            proposal, formula, 300, np.random.default_rng(1), original=original
        )
        assert sample.count_arrays.n_traces == sample.n_satisfied
        # Same seed without fusion: identical traces, matching weights.
        classic = run_importance_sampling(
            proposal, formula, 300, np.random.default_rng(1)
        )
        np.testing.assert_allclose(
            log_weights(original, sample), log_weights(original, classic), rtol=1e-9
        )

    def test_other_chain_falls_back_to_tables(self, setup):
        """Evaluating a fused sample against a *different* chain uses the
        count arrays, preserving Algorithm 1's sample-reuse property."""
        original, proposal, formula = setup
        other = DTMC(illustrative_matrix(0.08, 0.3), 0, labels={"goal": [2]})
        sample = run_importance_sampling(
            proposal, formula, 500, np.random.default_rng(2), original=original
        )
        first = estimate_from_sample(original, sample)
        second = estimate_from_sample(other, sample)
        assert first.estimate != second.estimate


class TestRegistryQuickStudyParity:
    """Property-style parity across backends on every quick study."""

    @pytest.mark.parametrize("name", REGISTRY.quick_studies())
    def test_kernel_vectorized_sequential_agree(self, name):
        study = REGISTRY.get(name).build(quick=True)
        n = 300
        results = {}
        for backend in ("kernel", "vectorized", "sequential"):
            rng = np.random.default_rng(2024)
            # "vectorized" is the removed selector: it must still resolve,
            # warning, to the kernel (saved run manifests may carry it).
            expect = (
                pytest.warns(DeprecationWarning) if backend == "vectorized" else nullcontext()
            )
            with expect:
                sample = run_importance_sampling(
                    study.proposal, study.formula, n, rng,
                    backend=backend, original=study.center,
                )
            results[backend] = estimate_from_sample(
                study.center, sample, study.confidence
            )
        a, b = results["kernel"], results["vectorized"]
        # the deprecated selector runs the kernel itself: identical down
        # to the last bit.
        assert a.n_satisfied == b.n_satisfied
        assert a.estimate == b.estimate
        assert (a.interval.low, a.interval.high) == (b.interval.low, b.interval.high)
        assert a.ess == b.ess
        # the sequential engine consumes the stream per-trace: same
        # distribution, so the estimates agree statistically.
        c = results["sequential"]
        assert c.n_samples == a.n_samples
        if a.estimate > 0 and c.estimate > 0:
            assert np.isfinite(c.estimate)
