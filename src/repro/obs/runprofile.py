"""Aggregate one run's trace events into a per-phase profile.

The span taxonomy maps onto eight canonical phases of an experiment run
(``simulate``, ``weight-accumulate``, ``store-get``, ``store-put``,
``ce-refine`` for cross-entropy refinement rounds, ``optimize`` for the
IMCIS polytope search, and its two children, one span each per block of
rounds: ``candidate-sample`` draws and assembles the block's candidates,
``objective`` scores them); every other span name is profiled under itself. For each
phase the profile reports call count, total (inclusive) time, *self*
time — inclusive minus the time of direct children, computed from the
parent links every span event carries — and min/max durations, so a
``simulate`` second spent inside an ``optimize`` round is attributed to
simulation, not double-counted against the optimiser.

``repro matrix --profile out.json`` enables tracing for the run, builds
a :class:`RunProfile` from the ring buffer, writes the JSON payload and
prints the table rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.util.tables import format_table

__all__ = [
    "PhaseStat",
    "RunProfile",
    "PHASE_NAMES",
]

#: The canonical span names an experiment run is expected to emit, in
#: rendering order. Unknown span names follow, ordered by self time.
PHASE_NAMES = (
    "simulate",
    "weight-accumulate",
    "store-get",
    "store-put",
    "ce-refine",
    "optimize",
    "candidate-sample",
    "objective",
)

#: Span names remapped onto canonical phases (call sites use the short
#: form; the profile reports the canonical one).
_PHASE_ALIASES = {"weights": "weight-accumulate"}


@dataclass
class PhaseStat:
    """Aggregate timing of one phase across every span that hit it."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, duration: float, self_time: float) -> None:
        """Fold one span's inclusive *duration* and *self_time* in."""
        self.count += 1
        self.total_s += duration
        self.self_s += self_time
        self.min_s = min(self.min_s, duration)
        self.max_s = max(self.max_s, duration)

    def to_payload(self) -> "dict[str, object]":
        """JSON-able form of this phase's aggregates."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "min_s": 0.0 if self.count == 0 else self.min_s,
            "max_s": self.max_s,
        }


class RunProfile:
    """Per-phase timing profile distilled from a list of trace events.

    Build one with :meth:`from_events` over the ring-buffer contents (or
    a parsed trace file); render with :meth:`render` for humans or
    :meth:`to_payload` / :meth:`to_json` for machines.
    """

    def __init__(self, phases: "dict[str, PhaseStat]", wall_s: float, events_seen: int):
        self.phases = phases
        self.wall_s = wall_s
        self.events_seen = events_seen

    @classmethod
    def from_events(cls, events: "list[dict]") -> "RunProfile":
        """Aggregate span *events* (as emitted by :mod:`repro.obs.trace`)."""
        spans = [e for e in events if e.get("kind") == "span" and "dur_s" in e]
        child_time: "dict[str, float]" = {}
        for record in spans:
            parent = record.get("parent")
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + float(record["dur_s"])
        phases: "dict[str, PhaseStat]" = {}
        start = float("inf")
        end = 0.0
        for record in spans:
            duration = float(record["dur_s"])
            self_time = max(0.0, duration - child_time.get(str(record.get("id")), 0.0))
            name = str(record.get("name"))
            name = _PHASE_ALIASES.get(name, name)
            stat = phases.get(name)
            if stat is None:
                stat = phases[name] = PhaseStat(name)
            stat.add(duration, self_time)
            ts = float(record.get("ts", 0.0))
            start = min(start, ts)
            end = max(end, ts + duration)
        wall = max(0.0, end - start) if spans else 0.0
        return cls(phases, wall, len(events))

    def _ordered(self) -> "list[PhaseStat]":
        known = [self.phases[name] for name in PHASE_NAMES if name in self.phases]
        rest = sorted(
            (stat for name, stat in self.phases.items() if name not in PHASE_NAMES),
            key=lambda stat: -stat.self_s,
        )
        return known + rest

    def to_payload(self) -> "dict[str, object]":
        """JSON-able profile: wall span, event count, per-phase stats."""
        return {
            "wall_s": self.wall_s,
            "events_seen": self.events_seen,
            "phases": [stat.to_payload() for stat in self._ordered()],
        }

    def to_json(self, indent: int = 2) -> str:
        """The payload as a JSON document."""
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable table: one row per phase, ordered canonically."""
        if not self.phases:
            return "run profile: no spans captured (is tracing enabled?)"
        rows = []
        for stat in self._ordered():
            share = (stat.self_s / self.wall_s * 100.0) if self.wall_s > 0 else 0.0
            rows.append(
                [
                    stat.name,
                    stat.count,
                    f"{stat.total_s:.3f}",
                    f"{stat.self_s:.3f}",
                    f"{share:.1f}%",
                    f"{stat.min_s * 1e3:.2f}",
                    f"{stat.max_s * 1e3:.2f}",
                ]
            )
        title = f"run profile — wall {self.wall_s:.3f}s over {self.events_seen} events"
        return format_table(
            ["phase", "calls", "total s", "self s", "self %", "min ms", "max ms"],
            rows,
            title=title,
        )
