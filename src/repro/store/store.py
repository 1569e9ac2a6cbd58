"""The on-disk experiment artifact store.

Format v2 layout under the store root::

    <root>/
        FORMAT                           format marker ("2")
        segments/seg-<writer>.seg        binary record segments (format.py)
        index/catalog.json               compacted key → coordinates map
        index/delta-<segment>.jsonl      append-only per-writer index segments
        runs/<run-id>.json               one manifest per resumable run

Records are framed binary (length prefix + CRC32 around the exact
canonical-JSON payload bytes — the float round-trip guarantees of
:mod:`repro.store.codecs` are untouched) and located through the indexed
catalog of :mod:`repro.store.index`, so listings, lookups and gc are
O(index) instead of O(scan). Writes are concurrency-safe across
processes on a shared filesystem: every process appends to its own
segment — one :class:`~repro.store.format.SegmentWriter` per store root,
shared by all of the process's handles behind one lock — and publishes
index entries only after the bytes are flushed; index compaction and gc
rewrites are fenced by the store's
:class:`~repro.store.leases.LeaseManager`. Reads go through one
incremental :class:`~repro.store.index.IndexView` per store root and
process, so a ``get`` parses only the index bytes appended since the
previous one.

The legacy v1 layout (JSON lines under ``records/``) is no longer read:
its keys embed a package version no current build produces, so none of
its records could ever be hit. ``gc`` deletes a leftover ``records/``
tree.

The public contract is the facade: :meth:`ArtifactStore.open` plus
``get`` / ``put`` / ``iter_keys`` / ``stats`` (and the maintenance verbs
``describe``/``verify``/``gc``).

Run manifests: ``repro matrix --store DIR`` writes
a manifest up front and ``--resume RUN-ID`` replays the same
configuration — every repetition that made it to disk is a cache hit.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StoreError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.store import index as index_module
from repro.store.format import SegmentWriter, read_frame
from repro.store.index import (
    IndexEntry,
    IndexView,
    append_delta,
    load_catalog_summary,
    load_deltas,
    load_index,
    write_catalog,
)
from repro.store.leases import LeaseManager

__all__ = [
    "ArtifactStore",
    "FORMAT_VERSION",
    "RunManifest",
    "StoreStats",
]

#: Current on-disk store format.
FORMAT_VERSION = 2

#: Lease/lock name fencing index compaction and gc rewrites.
MAINTENANCE_LEASE = "store-maintenance"

#: StoreStats fields mirrored into the metrics registry on increment, so
#: store accounting shows up on ``/metrics`` and survives the worker
#: process boundary via the registry snapshot/merge transport (the plain
#: dataclass fields stay the per-handle truth they always were).
_STATS_COUNTERS = {
    field: _obs_metrics.registry().counter(
        f"repro_store_{field}_total",
        f"Artifact-store {field.replace('_', ' ')} across every handle "
        "of this process.",
    )
    for field in ("hits", "misses", "writes", "corrupt", "segment_reads", "index_lines")
}

#: Store roots whose segment writer and index view one process keeps at
#: a time; the least recently used root beyond this is released.
_OPEN_ROOTS = 8


class _SharedWriter:
    """The one segment writer of a store root in this process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.writer: "SegmentWriter | None" = None

    def release(self) -> None:
        """Flush and close the writer; the next ``put`` opens a new segment."""
        with self.lock:
            if self.writer is not None:
                self.writer.close()
                self.writer = None


class _PerRoot:
    """Process-local objects keyed by resolved store root, LRU-bounded.

    A forked child starts empty, so it never appends through its
    parent's writer. The parent's objects are parked, not closed: the
    fork may have caught a writer mid-append, and flushing the child's
    copy of its buffer would tear the parent's segment.
    """

    def __init__(self, make: "Callable[[Path], object]", release=None):
        self._make = make
        self._release = release
        self._lock = threading.Lock()
        self._items: "OrderedDict[str, object]" = OrderedDict()
        self._inherited: "list[object]" = []
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork)

    def get(self, root: str):
        with self._lock:
            item = self._items.get(root)
            if item is not None:
                self._items.move_to_end(root)
                return item
            item = self._items[root] = self._make(Path(root))
            while len(self._items) > _OPEN_ROOTS:
                _, evicted = self._items.popitem(last=False)
                if self._release is not None:
                    self._release(evicted)
            return item

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._inherited.extend(self._items.values())
        self._items = OrderedDict()


_WRITERS = _PerRoot(lambda root: _SharedWriter(), release=_SharedWriter.release)
_VIEWS = _PerRoot(lambda root: IndexView(root / "index"))


@dataclass
class StoreStats:
    """Hit/miss accounting of one process's store usage.

    ``segment_reads`` counts record frames read from v2 segments — the
    observable proof that listings (``describe``/``iter_keys``) are
    O(index): they leave the counter untouched. ``index_lines`` counts
    the delta lines a ``get`` (or ``verify``) parsed to refresh the
    process's index view — the proof that a read costs the lines
    appended since the previous read, not the size of the index.

    Every positive increment of a field is mirrored into the process
    metrics registry (``repro_store_<field>_total``), so ``/metrics``
    and cross-process merges see store accounting without the call
    sites changing.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    segment_reads: int = 0
    index_lines: int = 0

    def __setattr__(self, name: str, value: object) -> None:
        counter = _STATS_COUNTERS.get(name)
        if counter is not None:
            delta = value - getattr(self, name, 0)  # type: ignore[operator]
            if delta > 0:
                counter.inc(delta)
        object.__setattr__(self, name, value)

    def summary(self) -> str:
        """One-line human-readable account."""
        text = f"{self.hits} cached, {self.misses} computed"
        if self.corrupt:
            text += f", {self.corrupt} corrupt record(s) ignored"
        return text


@dataclass(frozen=True)
class RunManifest:
    """The resumable description of one store-backed run.

    Attributes
    ----------
    run_id:
        Identifier handed to ``--resume``.
    command:
        The producing entry point (e.g. ``"matrix"``).
    config:
        JSON round-trip of the run's full configuration — enough to
        reconstruct it exactly.
    status:
        ``"running"`` until the run completes, then ``"complete"``.
    keys:
        Config keys the run touched (filled in on completion; used by
        ``repro store gc`` to tell live records from orphans).
    created:
        ISO-8601 creation timestamp (metadata only — never hashed).
    """

    run_id: str
    command: str
    config: "dict[str, object]"
    status: str = "running"
    keys: "tuple[str, ...]" = ()
    created: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "run_id": self.run_id,
                "command": self.command,
                "config": self.config,
                "status": self.status,
                "keys": list(self.keys),
                "created": self.created,
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        try:
            document = json.loads(text)
            return RunManifest(
                run_id=document["run_id"],
                command=document["command"],
                config=dict(document["config"]),
                status=document["status"],
                keys=tuple(document.get("keys", ())),
                created=document.get("created", ""),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise StoreError(f"unreadable run manifest: {error}") from None


class ArtifactStore:
    """Content-addressed store of per-repetition results (format v2).

    Parameters
    ----------
    root : path-like
        Directory holding the store (created lazily on first write).
    strict : bool, optional
        When True, a corrupt record raises
        :class:`~repro.errors.StoreError`; the default treats it as a
        cache miss (the repetition is recomputed and re-stored), which
        is always safe because records are pure functions of their key
        and index.

    Raises
    ------
    StoreError
        When the directory's ``FORMAT`` marker names any format but
        :data:`FORMAT_VERSION`.

    Notes
    -----
    The store is *append-only* on the write path. Duplicate entries for
    one ``(key, index)`` can exist (e.g. after a corrupt frame is
    recomputed); any valid copy is equally good — records are pure
    functions of their coordinates — and ``gc`` compacts the store down
    to one frame per index.
    """

    def __init__(self, root: "Path | str", strict: bool = False):
        self.root = Path(root)
        self.strict = strict
        self.stats = StoreStats()
        self.touched_keys: "set[str]" = set()
        self._root_key = os.path.realpath(self.root)
        self._check_format()

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, root: "Path | str", strict: bool = False) -> "ArtifactStore":
        """Open (or lazily create) the store at *root*.

        This is the blessed constructor of the public API; together with
        :meth:`get`, :meth:`put`, :meth:`iter_keys` and :attr:`stats` it
        forms the store's stable contract.
        """
        return cls(root, strict=strict)

    @staticmethod
    def coerce(store: "ArtifactStore | Path | str | None") -> "ArtifactStore | None":
        """Accept a store, a path to one, or ``None`` (no caching)."""
        if store is None or isinstance(store, ArtifactStore):
            return store
        return ArtifactStore(store)

    def close(self) -> None:
        """Flush and release this process's segment writer of this root.

        Every handle of the root shares that writer, so the next ``put``
        through any of them starts a fresh segment. Dropping a handle
        does not close it: a process keeps appending to one segment.
        """
        _WRITERS.get(self._root_key).release()

    # -- layout ------------------------------------------------------------

    def _marker_path(self) -> Path:
        return self.root / "FORMAT"

    def _segments_dir(self) -> Path:
        return self.root / "segments"

    def _index_dir(self) -> Path:
        return self.root / "index"

    def _records_dir(self) -> Path:
        return self.root / "records"

    def _check_format(self) -> None:
        try:
            marker = self._marker_path().read_text().strip()
        except OSError:
            return  # fresh directory: the marker is written with the first record
        if marker != str(FORMAT_VERSION):
            raise StoreError(
                f"{self.root} uses store format {marker!r}; this code reads "
                f"format {FORMAT_VERSION} only"
            )

    def _write_marker(self) -> None:
        path = self._marker_path()
        if path.exists():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{os.urandom(2).hex()}")
        tmp.write_text(f"{FORMAT_VERSION}\n")
        os.replace(tmp, path)

    def _maintenance_lock(self):
        """Cross-process critical section for index/segment rewrites.

        Rides the fleet's :class:`LeaseManager` lock files so store
        maintenance and fleet coordination share one fencing mechanism
        (and one ``fleet/locks/`` directory).
        """
        return LeaseManager(self.root / "fleet").locked(MAINTENANCE_LEASE)

    # -- public contract: get / put / iter_keys ----------------------------

    def get(self, key: str) -> "dict[int, dict[str, object]]":
        """All valid cached payloads of *key*, indexed by repetition.

        Frames are located through the index and re-verified (CRC) on
        read; corrupt or unreachable frames count into :attr:`stats` and
        are skipped (or raise under ``strict=True``).
        """
        with _obs_trace.span("store-get", key=key[:12]) as sp:
            payloads = self._read(key)
            sp.annotate(frames=len(payloads))
            return payloads

    def _entries(self, key: str) -> "list[IndexEntry]":
        """*key*'s index entries from this process's refreshed index view."""
        view = _VIEWS.get(self._root_key)
        with view.lock:
            self.stats.index_lines += view.refresh()
            return view.entries(key)

    def _read(self, key: str) -> "dict[int, dict[str, object]]":
        payloads: "dict[int, dict[str, object]]" = {}
        entries = self._entries(key)
        by_segment: "dict[str, list[IndexEntry]]" = {}
        for entry in entries:
            by_segment.setdefault(entry.segment, []).append(entry)
        for segment in sorted(by_segment):
            path = self._segments_dir() / segment
            try:
                handle = path.open("rb")
            except OSError:
                if self.strict:
                    raise StoreError(f"index references missing segment {segment}") from None
                continue  # segment gc'd under us: entries demote to misses
            with handle:
                for entry in by_segment[segment]:
                    self.stats.segment_reads += 1
                    try:
                        frame_key, frame_index, payload = read_frame(
                            handle, entry.offset, entry.length
                        )
                        if frame_key != key or frame_index != entry.index:
                            raise StoreError(
                                f"frame at {segment}@{entry.offset} stores "
                                f"{frame_key}:{frame_index}, index says {key}:{entry.index}"
                            )
                    except StoreError as error:
                        if self.strict:
                            raise StoreError(f"{path}: {error}") from None
                        self.stats.corrupt += 1
                        continue
                    payloads[frame_index] = payload
        return payloads

    def put(self, key: str, payloads: "Mapping[int, dict[str, object]]") -> None:
        """Store one frame per ``(index, payload)`` entry.

        Appends to this process's segment (one per store root, shared by
        every handle behind one lock), flushes, then publishes the index
        entries — so a crash at any point leaves either invisible bytes
        or a detectable torn line, never a record that reads back wrong.
        Safe to call concurrently from any number of threads and
        processes sharing the store directory.
        """
        if not payloads:
            return
        shared = _WRITERS.get(self._root_key)
        with _obs_trace.span("store-put", key=key[:12], frames=len(payloads)), shared.lock:
            writer = shared.writer
            if writer is not None and not writer.path.exists():
                writer.close()  # a gc elsewhere deleted the segment: start anew
                writer = None
            if writer is None:
                writer = shared.writer = SegmentWriter(self._segments_dir())
            batch: "list[IndexEntry]" = []
            try:
                for index, payload in sorted(payloads.items()):
                    offset, length = writer.append(key, int(index), dict(payload))
                    batch.append(
                        IndexEntry(segment=writer.name, offset=offset, length=length, index=index)
                    )
                writer.flush()
            except BaseException:
                shared.writer = None  # a failed write may leave its offsets wrong
                writer.close()
                raise
            append_delta(self._index_dir(), writer.name, {key: batch})
            self._write_marker()
            self.stats.writes += len(batch)

    def iter_keys(self) -> "Iterator[str]":
        """Every stored key, sorted.

        Reads the catalog header and live deltas only — no coordinate
        row is parsed and no segment opened.
        """
        known = set(load_catalog_summary(self._index_dir()))
        known.update(load_deltas(self._index_dir()))
        yield from sorted(known)

    # -- O(index) introspection --------------------------------------------

    @staticmethod
    def _winners(entries: "list[IndexEntry]") -> "dict[int, IndexEntry]":
        winners: "dict[int, IndexEntry]" = {}
        for entry in entries:
            winners[entry.index] = entry
        return winners

    def _key_summary(self, key: str, entries: "list[IndexEntry]") -> "dict[str, object]":
        winners = self._winners(entries)
        nbytes = sum(entry.length for entry in winners.values())
        return {"key": key, "records": len(winners), "bytes": nbytes}

    def key_stats(self, key: str) -> "dict[str, object]":
        """Record count and byte size of *key*, from the index alone.

        Never opens a record segment.
        """
        return self._key_summary(key, load_index(self._index_dir()).get(key, []))

    def describe(self) -> "dict[str, object]":
        """The machine-readable store summary (O(index), no segment reads).

        This document is the shared contract of ``repro store ls
        --format json`` and the service's ``GET /v1/store`` endpoint —
        field names here are stable API:

        ``root``, ``format``
            Store directory and on-disk format version.
        ``runs``
            One entry per run manifest: ``run_id``, ``command``,
            ``status``, ``keys``, ``created``.
        ``records``
            One entry per stored key: ``key``, ``records``, ``bytes``.
        ``totals``
            ``runs``, ``keys``, ``records``, ``bytes``.

        On a compacted store this is O(keys): summaries come from the
        catalog header without parsing a single coordinate row. Keys
        with live (uncompacted) delta entries fall back to the full
        index merge — still no segment is ever opened.
        """
        summaries = load_catalog_summary(self._index_dir())
        deltas = load_deltas(self._index_dir())
        full_index = None
        records = []
        for key in sorted(set(summaries) | set(deltas)):
            if key in deltas:
                if full_index is None:
                    full_index = load_index(self._index_dir())
                records.append(self._key_summary(key, full_index.get(key, [])))
            else:
                count, nbytes = summaries[key]
                records.append({"key": key, "records": count, "bytes": nbytes})
        runs = [
            {
                "run_id": manifest.run_id,
                "command": manifest.command,
                "status": manifest.status,
                "keys": len(manifest.keys),
                "created": manifest.created,
            }
            for manifest in self.list_manifests()
        ]
        return {
            "root": str(self.root),
            "format": FORMAT_VERSION,
            "runs": runs,
            "records": records,
            "totals": {
                "runs": len(runs),
                "keys": len(records),
                "records": sum(e["records"] for e in records),
                "bytes": sum(e["bytes"] for e in records),
            },
        }

    def verify(self, key: str) -> "tuple[int, list[str]]":
        """Validate every stored copy of *key*'s records.

        Returns
        -------
        tuple
            ``(valid_record_count, problems)`` where *problems* is one
            human-readable line per corrupt frame.
        """
        valid: "set[int]" = set()
        problems: "list[str]" = []
        entries = self._entries(key)
        if not entries:
            return 0, [f"no records for key {key}"]
        for entry in entries:
            path = self._segments_dir() / entry.segment
            try:
                with path.open("rb") as handle:
                    self.stats.segment_reads += 1
                    frame_key, frame_index, _ = read_frame(handle, entry.offset, entry.length)
                if frame_key != key or frame_index != entry.index:
                    raise StoreError(
                        f"frame stores {frame_key}:{frame_index}, "
                        f"index says {key}:{entry.index}"
                    )
            except OSError:
                problems.append(f"{entry.segment}@{entry.offset}: segment missing")
                continue
            except StoreError as error:
                problems.append(f"{entry.segment}@{entry.offset}: {error}")
                continue
            valid.add(entry.index)
        return len(valid), problems

    # -- run manifests ----------------------------------------------------

    def _runs_dir(self) -> Path:
        return self.root / "runs"

    def manifest_path(self, run_id: str) -> Path:
        """The manifest file of *run_id*."""
        return self._runs_dir() / f"{run_id}.json"

    def new_run_id(self, command: str) -> str:
        """A fresh collision-free run identifier (e.g. ``matrix-1a2b3c4d``)."""
        while True:
            run_id = f"{command}-{os.urandom(4).hex()}"
            if not self.manifest_path(run_id).exists():
                return run_id

    def save_manifest(self, manifest: RunManifest) -> Path:
        """Write (or overwrite) *manifest* under ``runs/``."""
        path = self.manifest_path(manifest.run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(manifest.to_json() + "\n")
        return path

    def load_manifest(self, run_id: str) -> RunManifest:
        """Load the manifest of *run_id* (StoreError when absent)."""
        path = self.manifest_path(run_id)
        if not path.exists():
            known = ", ".join(m.run_id for m in self.list_manifests()) or "none"
            raise StoreError(f"no run {run_id!r} under {self.root} (known: {known})")
        return RunManifest.from_json(path.read_text())

    def list_manifests(self) -> "list[RunManifest]":
        """Every stored manifest, sorted by run id."""
        runs = self._runs_dir()
        if not runs.is_dir():
            return []
        return [RunManifest.from_json(p.read_text()) for p in sorted(runs.glob("*.json"))]

    # -- maintenance ------------------------------------------------------

    def referenced_keys(self) -> "set[str]":
        """Keys referenced by any run manifest."""
        return {key for manifest in self.list_manifests() for key in manifest.keys}

    def drop(self, key: str) -> int:
        """Forget every stored record of *key*; returns records dropped.

        The key is removed from the index; its frames become dead bytes
        reclaimed by the next ``gc``.
        """
        dropped = 0
        with self._maintenance_lock():
            merged = load_index(self._index_dir())
            if key in merged:
                dropped = len(self._winners(merged.pop(key)))
                write_catalog(self._index_dir(), merged)
                for path in self._index_dir().glob("delta-*.jsonl"):
                    path.unlink(missing_ok=True)
        return dropped

    def gc(
        self,
        drop_unreferenced: bool = False,
        dry_run: bool = False,
        older_than: "float | None" = None,
    ) -> "dict[str, int]":
        """Compact the store; optionally delete orphaned keys.

        Parameters
        ----------
        drop_unreferenced : bool, optional
            Also delete records whose key no run manifest references
            (records written by ad-hoc library calls rather than CLI runs
            count as unreferenced — hence opt-in). Skipped whenever any
            manifest is still ``"running"``: an interrupted or in-flight
            run records its touched keys only on completion, so its
            resumable records would be indistinguishable from orphans.
        dry_run : bool, optional
            Report what would happen without modifying the store in any
            way — strictly read-only: no lock is taken, no directory is
            created, no file is touched.
        older_than : float, optional
            Age threshold in seconds: segments and files modified more
            recently are left exactly as they are (their keys are spared
            entirely), so a gc can run beside live writers without
            churning fresh data.

        Returns
        -------
        dict
            Counters: ``records_kept``, ``lines_dropped``,
            ``keys_dropped``, ``files_deleted``, ``segments_removed``,
            ``in_flight_runs``, ``dry_run``. ``files_deleted`` counts the
            files of a leftover v1 ``records/`` tree, which no key can
            hit.
        """
        in_flight = sum(1 for m in self.list_manifests() if m.status == "running")
        referenced: "set[str] | None" = None
        if drop_unreferenced and in_flight == 0:
            referenced = self.referenced_keys()
        cutoff = None if older_than is None else time.time() - float(older_than)
        counters = {
            "records_kept": 0,
            "lines_dropped": 0,
            "keys_dropped": 0,
            "files_deleted": 0,
            "segments_removed": 0,
            "in_flight_runs": in_flight,
            "dry_run": int(bool(dry_run)),
        }
        if dry_run:
            self._gc_segments(referenced, cutoff, dry_run, counters)
        else:
            with self._maintenance_lock():
                self._gc_segments(referenced, cutoff, dry_run, counters)
        self._gc_records_tree(cutoff, dry_run, counters)
        return counters

    def _gc_segments(
        self,
        referenced: "set[str] | None",
        cutoff: "float | None",
        dry_run: bool,
        counters: "dict[str, int]",
    ) -> None:
        index_dir = self._index_dir()
        segments_dir = self._segments_dir()
        merged = load_index(index_dir)
        if not merged and not segments_dir.is_dir():
            return
        existing = (
            {path.name for path in segments_dir.glob("*.seg")} if segments_dir.is_dir() else set()
        )

        def is_recent(segment: str) -> bool:
            if cutoff is None:
                return False
            try:
                return (segments_dir / segment).stat().st_mtime >= cutoff
            except OSError:
                return False

        recent = {segment for segment in existing if is_recent(segment)}
        keep: "dict[str, dict[int, IndexEntry]]" = {}
        for key, entries in merged.items():
            winners = self._winners(entries)
            counters["lines_dropped"] += len(entries) - len(winners)
            touches_recent = any(entry.segment in recent for entry in winners.values())
            if referenced is not None and key not in referenced and not touches_recent:
                counters["keys_dropped"] += 1
                continue
            keep[key] = winners

        if dry_run:
            for winners in keep.values():
                counters["records_kept"] += len(winners)
            # Every old segment disappears: rewritten ones are replaced by
            # the fresh compact segment, unreferenced ones are orphans.
            counters["segments_removed"] += len(existing - recent)
            return

        self.close()  # never rewrite under this process's open writer
        writer: "SegmentWriter | None" = None
        catalog: "dict[str, list[IndexEntry]]" = {}
        for key in sorted(keep):
            rewritten: "list[IndexEntry]" = []
            for index in sorted(keep[key]):
                entry = keep[key][index]
                if entry.segment in recent:
                    rewritten.append(entry)
                    counters["records_kept"] += 1
                    continue
                path = segments_dir / entry.segment
                try:
                    with path.open("rb") as handle:
                        self.stats.segment_reads += 1
                        frame_key, frame_index, payload = read_frame(
                            handle, entry.offset, entry.length
                        )
                    if frame_key != key or frame_index != entry.index:
                        raise StoreError("index/frame mismatch")
                except (OSError, StoreError):
                    counters["lines_dropped"] += 1
                    continue
                if writer is None:
                    writer = SegmentWriter(segments_dir)
                offset, length = writer.append(key, index, payload)
                rewritten.append(
                    IndexEntry(segment=writer.name, offset=offset, length=length, index=index)
                )
                counters["records_kept"] += 1
            if rewritten:
                catalog[key] = rewritten
        if writer is not None:
            writer.flush()
            writer.close()
        deltas = sorted(index_dir.glob("delta-*.jsonl")) if index_dir.is_dir() else []
        write_catalog(index_dir, catalog)
        for path in deltas:
            if cutoff is not None:
                try:
                    if path.stat().st_mtime >= cutoff:
                        continue  # a live writer may still hold this delta open
                except OSError:
                    continue
            path.unlink(missing_ok=True)
        for segment in sorted(existing - recent):
            (segments_dir / segment).unlink(missing_ok=True)
            counters["segments_removed"] += 1

    def _gc_records_tree(
        self, cutoff: "float | None", dry_run: bool, counters: "dict[str, int]"
    ) -> None:
        """Delete the files of a leftover v1 ``records/`` tree."""
        records = self._records_dir()
        if not records.is_dir():
            return
        for path in sorted(records.rglob("*")):
            if not path.is_file():
                continue
            if cutoff is not None:
                try:
                    if path.stat().st_mtime >= cutoff:
                        continue
                except OSError:
                    continue
            counters["files_deleted"] += 1
            if not dry_run:
                path.unlink(missing_ok=True)
        if not dry_run:
            for directory in sorted(records.rglob("*"), reverse=True) + [records]:
                if directory.is_dir() and not any(directory.iterdir()):
                    directory.rmdir()

    def compact_index(self) -> "dict[str, int]":
        """Fold live index deltas into the catalog (lease-fenced)."""
        with self._maintenance_lock():
            return index_module.compact(self._index_dir())
