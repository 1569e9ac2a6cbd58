"""Multi-core sharded simulation: a process-pool backend over the engine.

A single huge ensemble is memory- and core-bound: the lockstep engine
advances one lockstep batch on one core, and the per-step working arrays of
the 40 320-state repair model do not fit in cache once the batch grows.
:class:`ParallelBackend` shards a requested ensemble into fixed-size
sub-batches, runs the in-process engine (:class:`KernelBackend` where
the formula compiles to masks) inside a persistent :class:`ProcessPoolExecutor`,
and merges the per-shard :class:`~repro.smc.engine.EnsembleResult` arrays
in shard order.

Design constraints, in order:

**Determinism.** Results must be invariant to the worker count and to the
scheduling order of shards. Sharding therefore depends only on the batch
size and ``shard_size`` — never on ``workers`` — and every shard derives
its own :class:`numpy.random.SeedSequence` child from the caller's
generator via ``SeedSequence.spawn``. Shard *k* produces the same traces
whether it runs first or last, in the parent or in any worker; merging in
shard order makes the whole batch reproducible. ``workers=1`` executes the
same shard/seed schedule in-process, so it is bitwise-identical to
``workers=64``.

**One-time shipping.** The chain and formula cross the process boundary
once, through the pool initializer: each worker rebuilds the
:class:`~repro.smc.engine.SimulationPlan` (recompiling monitors and CSR
arrays locally) and keeps the backend alive for the pool's lifetime. Task
submissions carry only ``(shard_size, seed)`` pairs — no per-task pickling
of model data. On Linux the pool forks, so even the one-time shipping is a
copy-on-write no-op.

**No fork tax on small jobs.** Batches that fit in a single shard run
in-process on the inner backend with the caller's generator directly — a
one-trace batch through :class:`ParallelBackend` is bitwise-identical to
the inner backend, and small jobs never pay pool-spawn latency.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.smc.engine import (
    EnsembleResult,
    SimulationBackend,
    SimulationPlan,
    canonical_backend,
    make_plan,
    resolve_backend,
)
from repro.util.rng import spawn_seeds

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ParallelBackend",
    "resolve_workers",
    "shard_sizes",
]

#: Traces per shard (and the in-process fallback threshold): large enough
#: that per-shard simulation dominates task dispatch and result pickling,
#: small enough that a handful of shards spread across any realistic pool.
DEFAULT_SHARD_SIZE = 8_192


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


def shard_sizes(n_samples: int, shard_size: int) -> list[int]:
    """Split *n_samples* into deterministic shard sizes.

    Depends only on its arguments — never on the worker count — so the
    shard/seed schedule (and hence every simulated trace) is invariant to
    how many processes execute it.
    """
    if n_samples <= 0:
        raise EstimationError("n_samples must be positive")
    if shard_size <= 0:
        raise EstimationError("shard_size must be positive")
    full, remainder = divmod(n_samples, shard_size)
    sizes = [shard_size] * full
    if remainder:
        sizes.append(remainder)
    return sizes


@dataclass(frozen=True)
class _PlanSpec:
    """The picklable ingredients of a :class:`SimulationPlan`.

    Workers rebuild the plan locally (recompiling monitors and CSR arrays)
    instead of receiving compiled closures, which do not cross process
    boundaries. Captures the *resolved* plan fields, so the rebuilt plan is
    identical to the parent's — including a futility mask that was derived
    once by graph analysis.
    """

    plan_args: tuple
    inner: str

    @classmethod
    def from_plan(cls, plan: SimulationPlan, inner: str) -> "_PlanSpec":
        return cls(
            plan_args=(
                plan.chain,
                plan.formula,
                plan.max_steps,
                plan.count_mode,
                plan.record_log_prob,
                plan.initial_state,
                plan.futility,
                plan.weight_chain,
                plan.weight_state_map,
            ),
            inner=inner,
        )

    def build_backend(self) -> SimulationBackend:
        (
            chain,
            formula,
            max_steps,
            count_mode,
            record_log_prob,
            initial,
            futility,
            weight_chain,
            weight_state_map,
        ) = self.plan_args
        plan = make_plan(
            chain,
            formula,
            max_steps=max_steps,
            count_mode=count_mode,
            record_log_prob=record_log_prob,
            initial_state=initial,
            futility=futility,
            weight_chain=weight_chain,
            weight_state_map=weight_state_map,
        )
        return resolve_backend(self.inner, plan)


#: Per-worker simulation backend, installed once by the pool initializer.
_WORKER_BACKEND: SimulationBackend | None = None

_METRIC_SHARDS = _obs_metrics.registry().counter(
    "repro_parallel_shards_total",
    "Simulation shards executed by pool workers.",
)
_METRIC_SHARD_SECONDS = _obs_metrics.registry().histogram(
    "repro_shard_seconds",
    "Wall time of one pool-worker shard (merged from the workers).",
)


def _init_worker(spec: _PlanSpec) -> None:
    global _WORKER_BACKEND
    _WORKER_BACKEND = spec.build_backend()


def _run_shard(
    n_traces: int, seed: np.random.SeedSequence
) -> "tuple[EnsembleResult, dict]":
    """Execute one shard and report its metric activity alongside it.

    The worker's process-local registry accumulates across every shard
    the persistent pool hands it, so each shard snapshots before and
    after and ships only the delta — the parent merges it, which is how
    engine counters (and any store activity a repetition performs) keep
    counting across the process boundary.
    """
    backend = _WORKER_BACKEND
    assert backend is not None, "worker pool used before initialization"
    registry = _obs_metrics.registry()
    before = registry.snapshot()
    started = time.perf_counter()
    result = backend.run_ensemble(n_traces, np.random.default_rng(seed))
    _METRIC_SHARD_SECONDS.observe(time.perf_counter() - started)
    _METRIC_SHARDS.inc()
    return result, _obs_metrics.snapshot_delta(before, registry.snapshot())


class ParallelBackend(SimulationBackend):
    """Shard an ensemble across a persistent process pool.

    Parameters
    ----------
    plan:
        The sampling plan, shared with the in-process engines.
    workers:
        Pool size: ``"auto"`` (default) resolves to the CPU count. The
        worker count never affects results — only wall-clock time.
    shard_size:
        Traces per shard, and the in-process threshold: batches of at most
        one shard run on the inner backend with the caller's generator
        (bitwise the inner backend's results, no pool involved).
    inner:
        Backend selector executed per shard (``"auto"`` picks the kernel
        tier whenever the monitor exposes a mask spec, else the
        sequential loop — kernel-inside-shard composes; the deprecated
        ``"vectorized"`` resolves like ``"kernel"``).
    """

    name = "parallel"

    def __init__(
        self,
        plan: SimulationPlan,
        workers: "int | str | None" = "auto",
        shard_size: int = DEFAULT_SHARD_SIZE,
        inner: str = "auto",
    ):
        if shard_size <= 0:
            raise EstimationError("shard_size must be positive")
        if not isinstance(inner, str) or inner == "parallel":
            raise EstimationError("inner must name an in-process backend")
        inner = canonical_backend(inner)
        self._plan = plan
        self._workers = resolve_workers(workers)
        self._shard_size = int(shard_size)
        self._inner = resolve_backend(inner, plan)
        self._spec = _PlanSpec.from_plan(plan, inner)
        self._pool: Executor | None = None

    @property
    def plan(self) -> SimulationPlan:
        return self._plan

    @property
    def workers(self) -> int:
        """Resolved pool size."""
        return self._workers

    @property
    def shard_size(self) -> int:
        """Traces per shard (also the in-process threshold)."""
        return self._shard_size

    @property
    def inner(self) -> SimulationBackend:
        """The in-process backend executing single-shard batches."""
        return self._inner

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_init_worker,
                initargs=(self._spec,),
            )
        return self._pool

    def run_ensemble(self, n_samples: int, rng: np.random.Generator) -> EnsembleResult:
        if n_samples <= 0:
            raise EstimationError("n_samples must be positive")
        if n_samples <= self._shard_size:
            # Below the sharding threshold: no pool, no spawn — the
            # caller's generator drives the inner backend directly.
            return self._inner.run_ensemble(n_samples, rng)
        sizes = shard_sizes(n_samples, self._shard_size)
        seeds = spawn_seeds(rng, len(sizes))
        with _obs_trace.span(
            "parallel-shards",
            shards=len(sizes),
            workers=self._workers,
            traces=n_samples,
        ):
            if self._workers == 1:
                # Same shard/seed schedule, executed in-process: results stay
                # invariant to the worker count.
                chunks = [
                    self._inner.run_ensemble(n, np.random.default_rng(seed))
                    for n, seed in zip(sizes, seeds)
                ]
            else:
                pool = self._ensure_pool()
                futures = [
                    pool.submit(_run_shard, n, seed) for n, seed in zip(sizes, seeds)
                ]
                try:
                    shards = [f.result() for f in futures]
                except BaseException:
                    # Aborted (a shard failed, or SIGINT raised
                    # KeyboardInterrupt in the caller): cancel every shard not
                    # yet started and shut the pool down so no worker outlives
                    # the interrupted batch.
                    self.close(cancel_futures=True)
                    raise
                registry = _obs_metrics.registry()
                for _, delta in shards:
                    registry.merge(delta)
                chunks = [result for result, _ in shards]
        return EnsembleResult.concatenate(chunks)

    def close(self, cancel_futures: bool = False) -> None:
        """Shut the worker pool down (idempotent).

        Parameters
        ----------
        cancel_futures : bool, optional
            Also cancel shards that have not started yet (the graceful
            SIGINT/SIGTERM path); in-flight shards still run to
            completion before the workers exit.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel_futures)

    def __enter__(self) -> "ParallelBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter teardown: the pool dies with the process
