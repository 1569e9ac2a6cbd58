"""Cache-aware repetition fan-out.

:func:`map_repetitions_cached` is the single integration point between the
experiments layer and the artifact store: it looks the run's config key up
in the store, decodes the repetitions already on disk, dispatches *only*
the misses through :func:`~repro.experiments.runner.map_repetitions` (so
a joint repetition function runs the misses, and only they, together), and
``put``s the freshly computed records — preserving seed order throughout,
so the merged result list (and therefore every artifact derived from it)
is bitwise identical to an uncached run at any worker count.

Codecs are a pair of functions per experiment: ``encode`` maps one
repetition result to a JSON-serialisable payload, ``decode`` inverts it.
Python's JSON round-trips finite floats exactly (``repr``-based), so a
decoded result aggregates to bitwise-identical artifacts.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any, TypeVar

import numpy as np

from repro.obs import trace as _obs_trace
from repro.store.store import ArtifactStore

__all__ = ["map_repetitions_cached"]

T = TypeVar("T")


def map_repetitions_cached(
    fn: "Callable[[Any, list[np.random.SeedSequence]], list[T]]",
    context: Any,
    seeds: Sequence[np.random.SeedSequence],
    *,
    workers: "int | str | None" = None,
    store: ArtifactStore | None = None,
    key: str | None = None,
    encode: "Callable[[T], dict] | None" = None,
    decode: "Callable[[dict], T] | None" = None,
    progress: "Callable[[int, int], None] | None" = None,
    chunk_size: "int | None" = 1,
) -> "list[T]":
    """Evaluate *fn* over the seeds, serving cached repetitions.

    Parameters
    ----------
    fn, context, seeds, workers, chunk_size:
        Exactly as for :func:`~repro.experiments.runner.map_repetitions`;
        with ``store=None`` the call degenerates to it.
    store : ArtifactStore, optional
        The artifact store to consult and extend.
    key : str, optional
        The run's :func:`~repro.store.keys.config_key`. Required with a
        store: it must capture everything ``fn(context, ·)`` depends on
        besides the seed.
    encode, decode : callable, optional
        The experiment's repetition codec. Required with a store.
    progress : callable, optional
        Invoked with ``(done, total)`` as repetitions complete; cached
        repetitions are reported immediately, before any miss simulates.

    Returns
    -------
    list
        Results in seed order — bitwise independent of which repetitions
        came from the cache, and of the worker count.
    """
    # Imported here, not at module level: the experiments package imports
    # this module (through repro.experiments.coverage), so a top-level
    # import of repro.experiments.runner would be circular.
    from repro.experiments.runner import map_repetitions

    if store is None:
        return map_repetitions(
            fn, context, seeds, workers=workers, progress=progress, chunk_size=chunk_size
        )
    if key is None or encode is None or decode is None:
        raise ValueError("a store-backed run needs key=, encode= and decode=")
    store.touched_keys.add(key)
    cached = store.get(key)
    results: "list[T | None]" = [None] * len(seeds)
    miss_indices: "list[int]" = []
    for index in range(len(seeds)):
        payload = cached.get(index)
        if payload is None:
            miss_indices.append(index)
        else:
            results[index] = decode(payload)
    hits = len(seeds) - len(miss_indices)
    store.stats.hits += hits
    store.stats.misses += len(miss_indices)
    _obs_trace.annotate(cache_hits=hits, cache_misses=len(miss_indices))
    if progress is not None and hits:
        progress(hits, len(seeds))
    if miss_indices:
        missing_seeds = [seeds[i] for i in miss_indices]
        sub_progress = None
        if progress is not None:
            total = len(seeds)
            sub_progress = lambda done, _t: progress(hits + done, total)  # noqa: E731
        computed = map_repetitions(
            fn,
            context,
            missing_seeds,
            workers=workers,
            progress=sub_progress,
            chunk_size=chunk_size,
        )
        fresh: "dict[int, dict]" = {}
        for index, value in zip(miss_indices, computed):
            results[index] = value
            fresh[index] = encode(value)
        store.put(key, fresh)
    return results  # type: ignore[return-value]
