"""Trace sampling facade (Algorithm 1, lines 1–15).

:class:`TraceSampler` draws independent traces of a chain, decides a property
on the fly, and optionally accumulates the per-trace transition-count tables
``(T_k, n_k)`` and the log-probability of the trace under the sampling
distribution (the likelihood-ratio denominator when the sampling chain is an
importance-sampling proposal).

Since the batch-engine refactor the sampler itself holds no simulation
logic: it builds a :class:`~repro.smc.engine.SimulationPlan` once and
delegates to a pluggable :class:`~repro.smc.engine.SimulationBackend` —
the lockstep-ensemble :class:`~repro.smc.engine.KernelBackend` whenever
the property compiles to masks, the scalar
:class:`~repro.smc.engine.SequentialBackend` otherwise (or on request).
Single-trace :meth:`TraceSampler.sample` always runs the sequential
reference path; bulk work should go through :meth:`TraceSampler.sample_batch`.
"""

from __future__ import annotations

import numpy as np

from repro.core.dtmc import DTMC
from repro.errors import EstimationError
from repro.properties.logic import Formula
from repro.smc.engine import (
    COUNT_MODES,
    DEFAULT_MAX_STEPS,
    CompiledChain,
    CompiledCSR,
    EnsembleResult,
    SequentialBackend,
    SimulationBackend,
    make_plan,
    resolve_backend,
)
from repro.smc.futility import FutilityMask
from repro.smc.results import BatchSummary, TraceRecord

__all__ = [
    "COUNT_MODES",
    "DEFAULT_MAX_STEPS",
    "CompiledChain",
    "CompiledCSR",
    "EnsembleResult",
    "SequentialBackend",
    "SimulationBackend",
    "TraceSampler",
]


class TraceSampler:
    """Samples traces of *chain* and decides *formula* on the fly.

    Parameters
    ----------
    chain:
        The DTMC to simulate (the model itself for crude Monte Carlo, or an
        importance-sampling proposal).
    formula:
        The property to decide per trace.
    max_steps:
        Cap on the number of transitions; defaults to the formula's horizon
        when bounded, :data:`~repro.smc.engine.DEFAULT_MAX_STEPS` otherwise.
        Traces undecided at the cap count as not satisfying and are tallied
        separately.
    count_mode:
        Which traces keep transition counts: ``"satisfied"`` (Algorithm
        1's choice), ``"all"``, or ``"none"``. Batches carry them as
        :class:`~repro.smc.kernels.TraceCounts`, single traces as a
        :class:`~repro.core.paths.TransitionCounts` table.
    record_log_prob:
        Record the log-probability of each trace under *chain* (needed when
        *chain* is an IS proposal).
    initial_state:
        Override of the chain's initial state.
    futility:
        ``"auto"`` (default) derives a :class:`FutilityMask` by graph
        analysis so that traces that can no longer satisfy the property are
        cut immediately with verdict FALSE — without it, an unbounded
        ``F "goal"`` trace absorbed in a failure state would run to the
        step cap. Pass ``None`` to disable, or a precomputed mask.
    backend:
        ``"auto"`` (default) and ``"kernel"`` batch-simulate through the
        lockstep kernel backend when the monitor exposes a mask spec and
        the scalar loop otherwise; ``"sequential"`` forces the reference
        loop. The deprecated ``"vectorized"`` resolves like ``"kernel"``
        and ``"parallel"`` like ``"auto"``. A :class:`SimulationBackend`
        instance is used as-is.
    weight_chain:
        When given, every backend additionally accumulates each trace's
        log probability under this chain — the fused IS numerator — into
        :attr:`EnsembleResult.log_numerators`.
    weight_state_map:
        Optional projection of simulated states onto *weight_chain*
        states applied before the numerator lookup (the unrolled
        time-dependent proposal maps ``t·n + s`` back to ``s``).
    """

    def __init__(
        self,
        chain: DTMC,
        formula: Formula,
        max_steps: int | None = None,
        count_mode: str = "satisfied",
        record_log_prob: bool = False,
        initial_state: int | None = None,
        futility: "FutilityMask | str | None" = "auto",
        backend: "str | SimulationBackend | None" = "auto",
        weight_chain: "DTMC | None" = None,
        weight_state_map: "np.ndarray | None" = None,
    ):
        self._plan = make_plan(
            chain,
            formula,
            max_steps=max_steps,
            count_mode=count_mode,
            record_log_prob=record_log_prob,
            initial_state=initial_state,
            futility=futility,
            weight_chain=weight_chain,
            weight_state_map=weight_state_map,
        )
        self._backend = resolve_backend(backend, self._plan)
        if isinstance(self._backend, SequentialBackend):
            self._sequential = self._backend
        else:
            self._sequential = SequentialBackend(self._plan)

    @property
    def chain(self) -> DTMC:
        """The chain being simulated."""
        return self._plan.chain

    @property
    def max_steps(self) -> int:
        """The trace-length cap."""
        return self._plan.max_steps

    @property
    def backend(self) -> SimulationBackend:
        """The backend executing :meth:`sample_batch`."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Short identifier of the active batch backend."""
        return self._backend.name

    def sample(self, rng: np.random.Generator) -> TraceRecord:
        """Sample one trace through the sequential reference path."""
        return self._sequential.sample_one(rng)

    def sample_batch(self, n_samples: int, rng: np.random.Generator) -> BatchSummary:
        """Sample *n_samples* traces through the active backend.

        Returns the classic per-record summary; bulk consumers that only
        need aggregate arrays should prefer :meth:`sample_ensemble`, which
        skips materializing one :class:`TraceRecord` per trace.
        """
        if n_samples <= 0:
            raise EstimationError("n_samples must be positive")
        return self._backend.run(n_samples, rng)

    def sample_ensemble(self, n_samples: int, rng: np.random.Generator) -> EnsembleResult:
        """Sample *n_samples* traces into flat per-trace arrays (fast path)."""
        if n_samples <= 0:
            raise EstimationError("n_samples must be positive")
        return self._backend.run_ensemble(n_samples, rng)
