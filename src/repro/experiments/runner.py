"""Parallel experiment runner: fan repetition loops out across processes.

The Section VI protocol is embarrassingly parallel — 100 coverage
repetitions per case study, each already owning an independent child seed
through :mod:`repro.util.rng`. :func:`map_repetitions` is the fan-out
primitive behind the one repetition runner, the matrix's
:func:`~repro.experiments.matrix.run_cell_repetitions` (which Tables I
and II and Figures 2 and 4 run through its ``imcis`` cells): it maps a
module-level repetition function over contiguous chunks of
per-repetition seeds on a process pool. A repetition function takes a
list of seeds and returns one result per seed, so an estimator whose
repetitions share one lockstep loop (``is``) gets every seed of a process
in one call, while the others take one seed per call.

Determinism contract: a repetition's result is a function of
``(context, seed)`` only — not of the chunk it ran in — so the merged
result list, returned in seed order, not completion order, is
bitwise-identical for any worker count, including the in-process serial
path. The context (case study, config, sample sizes) is shipped to each
worker once through the pool initializer; tasks carry only seeds.

Small jobs skip the pool entirely: below
:data:`MIN_PARALLEL_REPETITIONS` repetitions (or with one worker) the
repetitions run inline, so tests and smoke runs never pay fork latency.

Interruption contract: when the fan-out is aborted — ``KeyboardInterrupt``
from SIGINT, or a repetition raising — every repetition that has not
started yet is cancelled and the pool is shut down before the exception
propagates, so an interrupted run leaves no orphaned worker processes and
returns control as soon as the in-flight repetitions finish. The
estimation service drains through the same path on shutdown.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any, TypeVar

import numpy as np

from repro.errors import EstimationError
from repro.obs import metrics as _obs_metrics

__all__ = [
    "MIN_PARALLEL_REPETITIONS",
    "map_repetitions",
    "resolve_workers",
]

#: Called after each completed repetition with ``(done, total)``.
ProgressCallback = "Callable[[int, int], None] | None"

T = TypeVar("T")

#: Below this many repetitions the pool is skipped and the loop runs
#: inline: a pool spawn costs tens of milliseconds per worker, which
#: dwarfs one or two cheap repetitions.
MIN_PARALLEL_REPETITIONS = 4


def resolve_workers(workers: "int | str | None") -> int:
    """Turn a ``workers`` selector into a concrete process count.

    ``"auto"`` (and ``None``) resolve to :func:`os.cpu_count`; integers
    (or integer strings, as the CLI hands over) pass through validated.
    Inside a worker process ``"auto"`` resolves to 1: the parent already
    owns the machine's parallelism, and nesting pools would oversubscribe
    it quadratically. An explicit integer is always honoured.
    """
    if workers is None or workers == "auto":
        if multiprocessing.parent_process() is not None:
            return 1
        return os.cpu_count() or 1
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise EstimationError(
            f"workers must be 'auto' or a positive integer, got {workers!r}"
        ) from None
    if count < 1:
        raise EstimationError(f"workers must be positive, got {count}")
    return count


#: Per-worker (function, context) pair, installed by the pool initializer.
_WORKER_TASK: "tuple[Callable[..., Any], Any] | None" = None


def _init_worker(fn: Callable[..., Any], context: Any) -> None:
    global _WORKER_TASK
    _WORKER_TASK = (fn, context)


def _run_repetitions(
    seeds: "list[np.random.SeedSequence]",
) -> "tuple[list[Any], dict]":
    """One chunk of repetitions plus the metric activity it generated.

    The result travels back with a snapshot delta of the worker's metric
    registry (engine counters, store accounting), which the parent
    merges — per-process observability would otherwise die with the
    pool.
    """
    task = _WORKER_TASK
    assert task is not None, "worker pool used before initialization"
    fn, context = task
    registry = _obs_metrics.registry()
    before = registry.snapshot()
    results = _call(fn, context, seeds)
    return results, _obs_metrics.snapshot_delta(before, registry.snapshot())


def _call(fn: Callable[..., Any], context: Any, seeds: "list[np.random.SeedSequence]") -> list:
    """``fn(context, seeds)``, checked to return one result per seed."""
    results = list(fn(context, seeds))
    if len(results) != len(seeds):
        raise EstimationError(
            f"repetition function returned {len(results)} results for {len(seeds)} seeds"
        )
    return results


def map_repetitions(
    fn: "Callable[[Any, list[np.random.SeedSequence]], list[T]]",
    context: Any,
    seeds: Sequence[np.random.SeedSequence],
    workers: "int | str | None" = None,
    min_parallel: int = MIN_PARALLEL_REPETITIONS,
    progress: ProgressCallback = None,
    chunk_size: "int | None" = 1,
) -> list[T]:
    """Evaluate ``fn(context, chunk)`` over contiguous chunks of *seeds*,
    possibly in parallel.

    Parameters
    ----------
    fn:
        A *module-level* function (workers import it by reference) mapping
        ``(context, seeds)`` to a list of one result per seed, in seed
        order. Each result must derive all its randomness from its own
        seed — that is what makes the output independent of scheduling
        and of chunking.
    context:
        Arbitrary per-experiment payload, shipped to each worker once via
        the pool initializer.
    seeds:
        One :class:`numpy.random.SeedSequence` per repetition (see
        :func:`repro.util.rng.spawn_seeds`).
    workers:
        ``None`` (the library default) runs the loop inline — no pool, no
        forking; ``"auto"`` = CPU count; ``1`` also forces the inline
        loop. Results are identical for every value.
    min_parallel:
        Fewer repetitions than this run inline regardless of *workers*.
    progress:
        Optional callback invoked with ``(done, total)`` for each
        repetition, in seed order, as its chunk completes. Purely
        observational — it never affects results — and it runs in the
        calling process, so the estimation service streams it out as job
        events.
    chunk_size:
        Most seeds one call of *fn* receives. ``None`` gives each process
        one call: every seed inline, or an even contiguous share per
        worker.

    Returns
    -------
    list
        Results in seed order — identical for every worker count.

    Notes
    -----
    When a repetition raises — including ``KeyboardInterrupt`` delivered
    by SIGINT — the repetitions that have not started yet are cancelled
    and the pool is shut down (waiting only for in-flight work) before
    the exception propagates: no orphaned workers, no long drain on the
    queued backlog.
    """
    if workers is None:
        n_workers = 1
    else:
        n_workers = min(resolve_workers(workers), len(seeds)) if seeds else 1
    total = len(seeds)
    inline = n_workers <= 1 or total < min_parallel
    if chunk_size is None:
        chunk_size = max(1, total if inline else -(-total // n_workers))
    elif chunk_size < 1:
        raise EstimationError(f"chunk_size must be positive, got {chunk_size}")
    chunks = [list(seeds[i : i + chunk_size]) for i in range(0, total, chunk_size)]
    results: "list[T]" = []

    def collect(chunk_results: "list[T]") -> None:
        for result in chunk_results:
            results.append(result)
            if progress is not None:
                progress(len(results), total)

    if inline:
        for chunk in chunks:
            collect(_call(fn, context, chunk))
        return results
    pool = ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_init_worker,
        initargs=(fn, context),
    )
    try:
        futures = [pool.submit(_run_repetitions, chunk) for chunk in chunks]
        registry = _obs_metrics.registry()
        for future in futures:
            chunk_results, metrics_delta = future.result()
            registry.merge(metrics_delta)
            collect(chunk_results)
        return results
    except BaseException:
        # Abort: drop everything not yet started, keep nothing running
        # behind the caller's back. `cancel_futures` needs the pool still
        # open, hence shutdown here rather than a `with` block.
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    finally:
        pool.shutdown(wait=True)
