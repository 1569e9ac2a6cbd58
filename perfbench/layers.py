"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of ``repro`` (module
attributes and class attributes) with timers for the length of a
``with`` block, then restores the originals. Nothing inside ``src/repro``
changes: the spans live in the benchmark.

For every wrapped call the tracer records its inclusive time and its
*self* time (inclusive minus the wrapped calls directly beneath it), and
folds the self times of a call and of everything beneath it into a
per-layer breakdown keyed by the call's name. So ``contents["importance.ce"]
["smc"]`` is the simulation time spent inside cross-entropy estimates, and
the self times of all layers partition the time of the outermost calls.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("children", "contents")

    def __init__(self) -> None:
        self.children = 0.0
        self.contents: "dict[str, float]" = defaultdict(float)


class LayerTracer:
    """Time calls into named layers; see the module docstring."""

    def __init__(self) -> None:
        self.calls: "dict[str, int]" = defaultdict(int)
        self.inclusive: "dict[str, float]" = defaultdict(float)
        self.layer_self: "dict[str, float]" = defaultdict(float)
        self.contents: "dict[str, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
        self.results: "dict[str, list]" = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner: object, attr: str, layer: str, name: str, keep=None) -> None:
        """Time ``owner.attr`` as *name* in *layer* until :meth:`restore`.

        *owner* is a module or a class; class-, static- and plain methods
        are all handled. A call the program no longer has is skipped. *keep*, when given, maps ``(args, result, started,
        elapsed)`` of each call that returns to a value appended to
        ``results[name]`` (a work count, a per-call duration, ...).
        """
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            return  # the program no longer has this call; its metrics read 0
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._timed(raw.__func__, layer, name, keep))
        else:
            replacement = self._timed(raw, layer, name, keep)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _stack(self) -> "list[_Frame]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn, layer: str, name: str, keep):
        tracer = self

        def timed(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame()
            stack.append(frame)
            started = time.perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                own = elapsed - frame.children
                frame.contents[layer] += own
                if stack:
                    parent = stack[-1]
                    parent.children += elapsed
                    for key, value in frame.contents.items():
                        parent.contents[key] += value
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.inclusive[name] += elapsed
                    tracer.layer_self[layer] += own
                    for key, value in frame.contents.items():
                        tracer.contents[name][key] += value
                    if keep is not None and returned:
                        tracer.results[name].append(keep(args, result, started, elapsed))

        timed.__wrapped__ = fn
        return timed


def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public calls of every layer the workloads reach."""
    import importlib

    from repro.imcis.candidates import CandidateSpace
    from repro.imcis.objective import ISObjective
    from repro.imcis.tables import ObservationTables
    from repro.models.registry import StudyRegistry
    from repro.store.store import ArtifactStore

    matrix = importlib.import_module("repro.experiments.matrix")
    algorithm = importlib.import_module("repro.imcis.algorithm")
    cross_entropy = importlib.import_module("repro.importance.cross_entropy")
    jobs = importlib.import_module("repro.service.jobs")

    wrap = tracer.wrap
    for module in (matrix, jobs):
        wrap(module, "run_matrix", "experiments", "experiments.run_matrix")
    wrap(
        StudyRegistry,
        "make_study",
        "models",
        "models.make_study",
        keep=lambda args, prepared, started, elapsed: (prepared.name, elapsed),
    )
    for module in (matrix, cross_entropy):
        wrap(module, "run_importance_sampling", "smc", "smc.simulate")
    wrap(matrix, "run_bounded_importance_sampling", "smc", "smc.simulate")
    for module in (matrix, algorithm, cross_entropy):
        wrap(module, "estimate_from_sample", "importance", "importance.estimate")
    wrap(matrix, "cross_entropy_estimate", "importance", "importance.ce")
    wrap(matrix, "imcis_from_sample", "imcis", "imcis.imcis_from_sample")
    wrap(
        algorithm,
        "random_search",
        "imcis",
        "imcis.random_search",
        keep=lambda args, result, started, elapsed: result.rounds_total,
    )
    wrap(ObservationTables, "from_sample", "imcis", "imcis.prepare")
    wrap(CandidateSpace, "__init__", "imcis", "imcis.prepare")
    wrap(CandidateSpace, "sample_rows", "imcis", "imcis.sample")
    wrap(CandidateSpace, "log_vectors", "imcis", "imcis.assemble")
    wrap(ISObjective, "log_f", "imcis", "imcis.objective")
    wrap(ISObjective, "moments", "imcis", "imcis.objective")
    wrap(ArtifactStore, "get", "store", "store.get", keep=_elapsed)
    wrap(ArtifactStore, "put", "store", "store.put", keep=_elapsed)
    wrap(
        jobs.JobQueue,
        "submit",
        "service",
        "service.submit",
        keep=lambda args, result, started, elapsed: (result[0].id, started),
    )
    wrap(
        jobs,
        "execute_job",
        "service",
        "service.execute_job",
        keep=lambda args, result, started, elapsed: (args[0].id, started, elapsed),
    )


def _elapsed(args, result, started, elapsed):
    return elapsed


def build_times(tracer: LayerTracer) -> "dict[str, float]":
    """Median ``make_study`` seconds per study."""
    by_study: "dict[str, list[float]]" = {}
    for study, elapsed in tracer.results["models.make_study"]:
        by_study.setdefault(study, []).append(elapsed)
    return {study: statistics.median(values) for study, values in by_study.items()}
