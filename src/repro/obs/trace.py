"""Nestable tracing spans with a ring buffer and optional JSONL sink.

A *span* wraps one unit of work — simulating an ensemble, fitting a CE
round, reading a store record — and records its monotonic duration plus
whatever structured fields the call site attaches (trace counts, ESS,
lockstep iterations, cache hit/miss). Spans nest: each completed span emits one
event carrying its parent's id and depth, so a post-hoc pass (see
:mod:`repro.obs.runprofile`) can rebuild the tree and attribute self
time per phase.

Tracing is **off by default** and engineered so the disabled path is a
single module-global boolean check returning a shared no-op context
manager — cheap enough to leave ``span(...)`` calls in hot loops
(``benchmarks/bench_obs.py`` gates the disabled overhead below 2% of
the fused IS kernel path). Enable it with :func:`configure`, the
``REPRO_TRACE=1`` environment variable, or ``REPRO_TRACE_FILE=path``
(which also mirrors every event to a JSON-lines file; appends are
single ``O_APPEND`` writes, so concurrent worker processes interleave
whole lines, never tear them).

Invariant: tracing observes, it never perturbs. No RNG is consumed, no
store key changes, no result byte differs with tracing on versus off —
``tests/obs/test_parity.py`` holds the stack to that bitwise.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

__all__ = [
    "configure",
    "enabled",
    "span",
    "event",
    "annotate",
    "events",
    "reset",
    "status",
    "DEFAULT_RING_SIZE",
]

#: Events kept in memory when no explicit ring size is configured.
DEFAULT_RING_SIZE = 4096

#: Environment switches, read once at import (worker processes inherit
#: them, so a traced run traces its pool workers too — into their own
#: process-local rings/sink lines).
ENV_ENABLE = "REPRO_TRACE"
ENV_TRACE_FILE = "REPRO_TRACE_FILE"
ENV_RING_SIZE = "REPRO_TRACE_RING"


class _State:
    __slots__ = ("enabled", "ring", "ring_size", "sink_path", "sink_fd", "sink_lock")

    def __init__(self) -> None:
        self.enabled = False
        self.ring_size = DEFAULT_RING_SIZE
        self.ring: "deque[dict]" = deque(maxlen=self.ring_size)
        self.sink_path: "str | None" = None
        self.sink_fd: "int | None" = None
        self.sink_lock = threading.Lock()


_STATE = _State()
_LOCAL = threading.local()


def _stack() -> "list[_Span]":
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _next_id() -> str:
    n = getattr(_LOCAL, "seq", 0) + 1
    _LOCAL.seq = n
    return f"{os.getpid()}-{threading.get_ident()}-{n}"


def configure(
    *,
    enabled: "bool | None" = None,
    trace_file: "str | None" = None,
    ring_size: "int | None" = None,
) -> None:
    """Reconfigure tracing for this process.

    Parameters
    ----------
    enabled:
        Turn span/event capture on or off (``None`` leaves it alone).
        Setting a *trace_file* implies on.
    trace_file:
        Path of a JSON-lines sink mirroring every event, appended with
        single atomic writes (``""`` detaches the current sink).
    ring_size:
        Capacity of the in-memory ring buffer; resizing drops buffered
        events older than the new capacity retains.
    """
    if ring_size is not None:
        if ring_size <= 0:
            raise ValueError(f"ring_size must be positive, got {ring_size}")
        _STATE.ring_size = int(ring_size)
        _STATE.ring = deque(_STATE.ring, maxlen=_STATE.ring_size)
    if trace_file is not None:
        with _STATE.sink_lock:
            if _STATE.sink_fd is not None:
                os.close(_STATE.sink_fd)
                _STATE.sink_fd = None
                _STATE.sink_path = None
            if trace_file:
                _STATE.sink_fd = os.open(
                    trace_file, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                _STATE.sink_path = trace_file
                _STATE.enabled = True
    if enabled is not None:
        _STATE.enabled = bool(enabled)


def enabled() -> bool:
    """Whether spans and events are currently captured."""
    return _STATE.enabled


def status() -> "dict[str, object]":
    """Tracing state for diagnostics (``repro --version`` prints this)."""
    return {
        "enabled": _STATE.enabled,
        "ring_size": _STATE.ring_size,
        "buffered": len(_STATE.ring),
        "trace_file": _STATE.sink_path,
    }


def reset() -> None:
    """Drop all buffered events (the sink file is left untouched)."""
    _STATE.ring.clear()


def events(*, clear: bool = False) -> "list[dict]":
    """The buffered events, oldest first; optionally drain the ring."""
    captured = list(_STATE.ring)
    if clear:
        _STATE.ring.clear()
    return captured


def _emit(record: "dict[str, object]") -> None:
    _STATE.ring.append(record)
    fd = _STATE.sink_fd
    if fd is not None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with _STATE.sink_lock:
            if _STATE.sink_fd is not None:
                os.write(_STATE.sink_fd, line.encode("utf-8"))


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **fields: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "fields", "id", "parent", "depth", "_start", "_wall")

    def __init__(self, name: str, fields: "dict[str, object]"):
        self.name = name
        self.fields = fields
        self.id = ""
        self.parent: "str | None" = None
        self.depth = 0
        self._start = 0.0
        self._wall = 0.0

    def __enter__(self) -> "_Span":
        stack = _stack()
        self.id = _next_id()
        self.parent = stack[-1].id if stack else None
        self.depth = len(stack)
        stack.append(self)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def annotate(self, **fields: object) -> None:
        """Attach or update structured fields on this span."""
        self.fields.update(fields)

    def __exit__(self, exc_type: object, *exc_info: object) -> bool:
        duration = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        record: "dict[str, object]" = {
            "kind": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "depth": self.depth,
            "ts": self._wall,
            "dur_s": duration,
        }
        if exc_type is not None:
            record["error"] = getattr(exc_type, "__name__", str(exc_type))
        if self.fields:
            record["fields"] = self.fields
        _emit(record)
        return False


def span(name: str, **fields: object) -> "_Span | _NullSpan":
    """A context manager timing one named unit of work.

    Disabled tracing returns a shared no-op instance; enabled tracing
    returns a fresh span that emits one structured event on exit with
    its monotonic duration, nesting linkage and *fields*. Use
    ``span.annotate(...)`` (or module-level :func:`annotate`) to attach
    results only known mid-flight (ESS, hit counts).
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return _Span(name, dict(fields))


def event(name: str, **fields: object) -> None:
    """Emit a point event (no duration) under the current span, if any."""
    if not _STATE.enabled:
        return
    stack = _stack()
    record: "dict[str, object]" = {
        "kind": "event",
        "name": name,
        "id": _next_id(),
        "parent": stack[-1].id if stack else None,
        "depth": len(stack),
        "ts": time.time(),
    }
    if fields:
        record["fields"] = fields
    _emit(record)


def annotate(**fields: object) -> None:
    """Attach *fields* to the innermost active span (no-op without one)."""
    if not _STATE.enabled:
        return
    stack = _stack()
    if stack:
        stack[-1].fields.update(fields)


def _init_from_environment() -> None:
    ring_env = os.environ.get(ENV_RING_SIZE, "").strip()
    if ring_env:
        try:
            configure(ring_size=int(ring_env))
        except ValueError:
            pass
    sink = os.environ.get(ENV_TRACE_FILE, "").strip()
    if sink:
        configure(trace_file=sink)
    flag = os.environ.get(ENV_ENABLE, "").strip().lower()
    if flag in {"1", "true", "yes", "on"}:
        configure(enabled=True)
    elif flag in {"0", "false", "no", "off"}:
        configure(enabled=False)


_init_from_environment()
