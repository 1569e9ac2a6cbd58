"""Worker-side metrics survive the process boundary.

Pool workers accumulate into their own process-local registry; the
snapshot-delta riding back with each result must land in the parent's
registry, so store accounting and engine counters are not lost when the
work forks (the StoreStats-across-processes fix).
"""

import numpy as np

from repro.core import DTMC
from repro.experiments.runner import map_repetitions
from repro.obs import metrics
from repro.properties import parse_property
from repro.store.store import StoreStats

from tests.conftest import fused_is_estimate, illustrative_matrix


def counter_total(name: str) -> float:
    """Sum every labelled cell of *name* in the default registry."""
    entry = metrics.registry().snapshot().get(name)
    if entry is None:
        return 0.0
    return sum(value for value in entry["cells"].values() if not isinstance(value, list))


def _bump_store_stats(context, seeds):
    """Worker body: three cache hits and a write on a fresh StoreStats."""
    (seed,) = seeds
    stats = StoreStats()
    stats.hits += 3
    stats.writes += 1
    return [int(seed.entropy)]


def test_map_repetitions_ships_store_stats_to_parent():
    before_hits = counter_total("repro_store_hits_total")
    before_writes = counter_total("repro_store_writes_total")
    seeds = [np.random.SeedSequence(n) for n in range(4)]
    results = map_repetitions(
        _bump_store_stats, None, seeds, workers=2, min_parallel=2
    )
    assert results == [0, 1, 2, 3]
    assert counter_total("repro_store_hits_total") - before_hits == 12.0
    assert counter_total("repro_store_writes_total") - before_writes == 4.0


def _simulate_is(context, seeds):
    """Worker body: one IS estimate of *context*'s sample size per seed."""
    original, proposal, formula, n_samples = context
    return [
        fused_is_estimate(
            original, proposal, formula, n_samples, np.random.default_rng(seed)
        ).n_samples
        for seed in seeds
    ]


def test_map_repetitions_ships_engine_counters_to_parent():
    original = DTMC(illustrative_matrix(0.05, 0.3), 0, labels={"goal": [2], "init": [0]})
    proposal = DTMC(illustrative_matrix(0.5, 0.6), 0, labels={"goal": [2], "init": [0]})
    formula = parse_property('F "goal"')
    n_samples, repetitions = 500, 4
    before_traces = counter_total("repro_traces_simulated_total")
    # Each repetition simulates in a pool worker; the workers' own
    # registries must ride back with the repetition results.
    results = map_repetitions(
        _simulate_is,
        (original, proposal, formula, n_samples),
        [np.random.SeedSequence(n) for n in range(repetitions)],
        workers=2,
        min_parallel=2,
    )
    assert results == [n_samples] * repetitions
    delta = counter_total("repro_traces_simulated_total") - before_traces
    assert delta == repetitions * n_samples
