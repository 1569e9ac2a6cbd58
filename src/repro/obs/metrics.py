"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The registry is deliberately tiny and dependency-free — a strict subset
of the Prometheus client-library data model, enough to answer the
questions the stack actually asks (how many traces were simulated, what
fraction of store reads hit, where the request latency tail sits)
without pulling a client library into the runtime image.

Design constraints, in order:

* **Near-zero hot-path cost.** Counter and histogram cells live in
  lock-free per-thread shards (each thread mutates only its own dict,
  which is safe under the GIL); shards are merged on read. The only
  lock taken on a write path is a one-time registration lock the first
  time a thread touches a metric. Hot loops should pre-bind label sets
  with :meth:`Counter.labels` once and call ``inc``/``observe`` on the
  bound cell.
* **Mergeable across processes.** Worker processes (the repetition
  pool, fleet workers) accumulate into their own process registry; a
  :meth:`MetricsRegistry.snapshot` / :func:`snapshot_delta` /
  :meth:`MetricsRegistry.merge` round-trip ships their counts back to
  the parent — this is how per-worker store accounting and engine
  counters survive the process boundary.
* **Observation only.** Nothing in this module touches RNG state,
  store keys or result bytes; dropping every call changes no output.

:meth:`MetricsRegistry.render` emits Prometheus text exposition format
(version 0.0.4), served by ``GET /metrics`` on ``repro serve``.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "snapshot_delta",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds), tuned for the span of
#: latencies the stack produces: sub-millisecond store reads up to
#: multi-minute matrix cells. ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
)

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    as_int = int(value)
    if float(as_int) == value:
        return str(as_int)
    return repr(value)


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


class _Metric:
    """Shared shard bookkeeping for counters and histograms.

    Each thread gets a private cell dict per metric (registered once
    under a lock); reads merge a point-in-time copy of every shard.
    ``dict.copy`` is atomic under the GIL, so readers never observe a
    torn shard even while writer threads keep incrementing.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: "tuple[str, ...]"):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._local = threading.local()
        self._shards: "list[dict]" = []
        self._register_lock = threading.Lock()

    def _cells(self) -> dict:
        cells = getattr(self._local, "cells", None)
        if cells is None:
            cells = {}
            self._local.cells = cells
            with self._register_lock:
                self._shards.append(cells)
        return cells

    def _label_key(self, labels: "dict[str, str]") -> "tuple[str, ...]":
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _merged(self) -> "dict[tuple[str, ...], object]":
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (default 1) to the unlabelled cell."""
        cells = self._cells()
        cells[()] = cells.get((), 0.0) + amount

    def labels(self, **labels: str) -> "_BoundCounter":
        """A bound cell for one label-value combination (cache it)."""
        return _BoundCounter(self, self._label_key(labels))

    def value(self, **labels: str) -> float:
        """Current merged value of one cell (0.0 when never touched)."""
        key = self._label_key(labels) if labels else ()
        return float(self._merged().get(key, 0.0))

    def _merged(self) -> "dict[tuple[str, ...], float]":
        merged: "dict[tuple[str, ...], float]" = {}
        with self._register_lock:
            shards = list(self._shards)
        for shard in shards:
            for key, value in shard.copy().items():
                merged[key] = merged.get(key, 0.0) + value
        return merged


class _BoundCounter:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Counter, key: "tuple[str, ...]"):
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        cells = self._metric._cells()
        cells[self._key] = cells.get(self._key, 0.0) + amount


class Gauge(_Metric):
    """A value that can go up and down (current queue depth, last ESS).

    Gauges are set rarely (scrape time, batch boundaries), so they use a
    single locked dict instead of per-thread shards — summing shards
    would be wrong for last-write-wins semantics.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: "tuple[str, ...]"):
        super().__init__(name, help, labelnames)
        self._values: "dict[tuple[str, ...], float]" = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: str) -> None:
        """Set the cell selected by *labels* to *value*."""
        key = self._label_key(labels) if labels else ()
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add *amount* to the cell (negative amounts decrement)."""
        key = self._label_key(labels) if labels else ()
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one cell (0.0 when never set)."""
        key = self._label_key(labels) if labels else ()
        with self._lock:
            return self._values.get(key, 0.0)

    def _merged(self) -> "dict[tuple[str, ...], float]":
        with self._lock:
            return dict(self._values)


class Histogram(_Metric):
    """Fixed-bucket distribution (cumulative buckets on render).

    Cells hold ``[per-bucket counts..., overflow, sum, count]`` per
    label combination; buckets are upper bounds fixed at creation.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: "tuple[str, ...]",
        buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float) -> None:
        """Record *value* into the unlabelled cell."""
        self._observe((), value)

    def labels(self, **labels: str) -> "_BoundHistogram":
        """A bound cell for one label-value combination (cache it)."""
        return _BoundHistogram(self, self._label_key(labels))

    def _observe(self, key: "tuple[str, ...]", value: float) -> None:
        cells = self._cells()
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = [0] * (len(self.buckets) + 1) + [0.0, 0]
        cell[bisect_left(self.buckets, value)] += 1
        cell[-2] += value
        cell[-1] += 1

    def snapshot_cell(self, **labels: str) -> "dict[str, object]":
        """Merged ``{"counts", "sum", "count"}`` of one cell."""
        key = self._label_key(labels) if labels else ()
        cell = self._merged().get(key)
        if cell is None:
            return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
        return {"counts": list(cell[:-2]), "sum": float(cell[-2]), "count": int(cell[-1])}

    def _merged(self) -> "dict[tuple[str, ...], list]":
        merged: "dict[tuple[str, ...], list]" = {}
        with self._register_lock:
            shards = list(self._shards)
        for shard in shards:
            for key, cell in shard.copy().items():
                into = merged.get(key)
                if into is None:
                    merged[key] = list(cell)
                else:
                    for index, value in enumerate(cell):
                        into[index] += value
        return merged


class _BoundHistogram:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Histogram, key: "tuple[str, ...]"):
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value)


class MetricsRegistry:
    """Get-or-create metric registry with Prometheus text exposition.

    One registry per process is the normal shape (see :func:`registry`);
    tests instantiate their own for isolation. Creation is idempotent:
    asking twice for the same name returns the same object, and asking
    with a conflicting kind or label set raises ``ValueError`` — metric
    identity is global to the process, exactly like Prometheus.
    """

    def __init__(self) -> None:
        self._metrics: "dict[str, _Metric]" = {}
        self._lock = threading.RLock()

    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: "tuple[str, ...]" = ()) -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: "tuple[str, ...]" = ()) -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: "tuple[str, ...]" = (),
        buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram *name* (buckets fixed on first call)."""
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labelnames, buckets=buckets
        )

    def _sorted_metrics(self) -> "list[_Metric]":
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- exposition -------------------------------------------------------

    def render(self) -> str:
        """The whole registry in Prometheus text format 0.0.4."""
        lines: "list[str]" = []
        for metric in self._sorted_metrics():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            merged = metric._merged()
            for key in sorted(merged):
                labels = dict(zip(metric.labelnames, key))
                if isinstance(metric, Histogram):
                    lines.extend(self._render_histogram(metric, labels, merged[key]))
                else:
                    lines.append(
                        f"{metric.name}{self._label_block(labels)} "
                        f"{_format_value(merged[key])}"  # type: ignore[arg-type]
                    )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _label_block(labels: "dict[str, str]") -> str:
        if not labels:
            return ""
        body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in labels.items())
        return "{" + body + "}"

    @staticmethod
    def _render_histogram(metric: Histogram, labels: "dict[str, str]", cell: list) -> "list[str]":
        lines = []
        cumulative = 0
        for bound, count in zip(metric.buckets + (math.inf,), cell[:-2]):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_bound(bound)
            lines.append(
                f"{metric.name}_bucket{MetricsRegistry._label_block(bucket_labels)} {cumulative}"
            )
        block = MetricsRegistry._label_block(labels)
        lines.append(f"{metric.name}_sum{block} {_format_value(cell[-2])}")
        lines.append(f"{metric.name}_count{block} {cell[-1]}")
        return lines

    # -- cross-process transport ------------------------------------------

    def snapshot(self) -> "dict[str, dict]":
        """A JSON-able point-in-time copy of every metric.

        The payload round-trips through :func:`snapshot_delta` and
        :meth:`merge` — the worker-to-parent transport for repetition
        pool workers and fleet workers.
        """
        payload: "dict[str, dict]" = {}
        for metric in self._sorted_metrics():
            cells = {
                json.dumps(list(key)): (list(value) if isinstance(value, list) else value)
                for key, value in metric._merged().items()
            }
            entry: "dict[str, object]" = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "cells": cells,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            payload[metric.name] = entry
        return payload

    def merge(self, payload: "dict[str, dict]") -> None:
        """Fold a :meth:`snapshot` (or delta) into this registry.

        Counters and histogram cells *add*; gauges *set* (last write
        wins — they describe the reporting process's current state).
        """
        for name, entry in payload.items():
            labelnames = tuple(entry.get("labelnames", ()))
            kind = entry.get("kind")
            help_text = str(entry.get("help", ""))
            cells: "dict[str, object]" = entry.get("cells", {})  # type: ignore[assignment]
            if kind == "counter":
                metric = self.counter(name, help_text, labelnames)
                for key_json, value in cells.items():
                    key = tuple(json.loads(key_json))
                    shard = metric._cells()
                    shard[key] = shard.get(key, 0.0) + float(value)  # type: ignore[arg-type]
            elif kind == "gauge":
                metric = self.gauge(name, help_text, labelnames)
                for key_json, value in cells.items():
                    labels = dict(zip(labelnames, json.loads(key_json)))
                    metric.set(float(value), **labels)  # type: ignore[arg-type]
            elif kind == "histogram":
                buckets = tuple(entry.get("buckets", DEFAULT_LATENCY_BUCKETS))  # type: ignore[arg-type]
                metric = self.histogram(name, help_text, labelnames, buckets=buckets)
                for key_json, value in cells.items():
                    key = tuple(json.loads(key_json))
                    shard = metric._cells()
                    cell = shard.get(key)
                    if cell is None:
                        shard[key] = list(value)  # type: ignore[arg-type]
                    else:
                        for index, part in enumerate(value):  # type: ignore[arg-type]
                            cell[index] += part
            else:
                raise ValueError(f"cannot merge metric {name!r} of unknown kind {kind!r}")


def snapshot_delta(before: "dict[str, dict]", after: "dict[str, dict]") -> "dict[str, dict]":
    """The metric activity between two :meth:`MetricsRegistry.snapshot` calls.

    Counters and histograms subtract cell-wise (cells that did not move
    are dropped); gauges keep their *after* value. Feed the result to
    :meth:`MetricsRegistry.merge` on the receiving side. This is how a
    persistent pool worker reports exactly one task's activity even
    though its process registry accumulates across tasks.
    """
    delta: "dict[str, dict]" = {}
    for name, entry in after.items():
        prior = before.get(name, {})
        prior_cells: "dict[str, object]" = prior.get("cells", {}) if prior else {}
        kind = entry.get("kind")
        cells: "dict[str, object]" = {}
        for key_json, value in entry.get("cells", {}).items():  # type: ignore[union-attr]
            if kind == "histogram":
                base = prior_cells.get(key_json)
                if base is None:
                    moved = list(value)  # type: ignore[arg-type]
                else:
                    moved = [v - b for v, b in zip(value, base)]  # type: ignore[arg-type]
                if moved[-1]:
                    cells[key_json] = moved
            elif kind == "counter":
                moved_value = float(value) - float(prior_cells.get(key_json, 0.0))  # type: ignore[arg-type]
                if moved_value:
                    cells[key_json] = moved_value
            else:  # gauge: carry the latest value
                cells[key_json] = value
        if cells:
            delta[name] = {**entry, "cells": cells}
    return delta


_DEFAULT_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry (what ``/metrics`` serves)."""
    return _DEFAULT_REGISTRY
