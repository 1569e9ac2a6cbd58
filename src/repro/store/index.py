"""The store's durable indexed catalog (format v2).

The catalog maps every config key to the ``(segment, offset, length)``
coordinates of its record frames, so listings, integrity checks, gc
planning and cache lookups are O(index) — no record segment is ever
opened just to answer "what is stored?".

The index is itself written with the same crash discipline as the
segments, in two tiers under ``<root>/index/``:

``delta-<segment>.jsonl``
    Append-only per-writer index segments. After flushing frames to its
    record segment, a writer appends one checksummed JSON line per
    ``put`` batch to the delta file *named after that segment* — so a
    delta file has exactly one writer (the process owning the segment,
    which serialises its threads) and needs no cross-process locking. A
    torn tail line (crashed writer) is detected by its checksum and
    skipped; the frames it described are simply absent from the index,
    i.e. recomputable cache misses.

``catalog.json``
    The compacted sorted key → coordinates map, covering every delta
    absorbed so far. Published atomically via ``os.replace``, so readers
    see either the old or the new catalog, never a torn one. The file
    has two parts: a header line carrying a CRC32 of the body bytes and
    a per-key ``[records, bytes]`` summary, then the body with the full
    coordinate rows. Listings (``store ls``, ``describe``) parse only
    the header — O(keys), not O(entries) — while coordinate readers
    (``get``, ``gc``, ``verify``) parse the body. Compaction
    (:func:`compact`) merges the current catalog with all delta files
    and deletes the absorbed deltas; the store fences it with the
    :class:`~repro.store.leases.LeaseManager` so two maintenance
    processes never interleave.

Reading the index is always catalog + live deltas, so a reader needs no
compaction to see fresh writes. An :class:`IndexView` keeps what it has
parsed and, on each refresh, re-reads the catalog only when the file
changed and parses only the delta bytes appended since its last
refresh; the store's ``get`` keeps one view per process, so a read
costs the appended bytes, not the size of the index. :func:`load_index`
is a full read through a fresh view, with the same line parser. Entries are
*advisory*: every frame re-verifies its own CRC on read, so a stale or
duplicated index entry can at worst cause a recompute, never a wrong
result.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StoreError
from repro.store.keys import payload_checksum

__all__ = [
    "CATALOG_VERSION",
    "IndexEntry",
    "IndexView",
    "append_delta",
    "compact",
    "delta_path",
    "load_catalog",
    "load_catalog_summary",
    "load_deltas",
    "load_index",
    "write_catalog",
]

#: Catalog/delta document version (bumped on incompatible layout changes).
CATALOG_VERSION = 2


@dataclass(frozen=True)
class IndexEntry:
    """Coordinates of one record frame.

    Attributes
    ----------
    segment:
        Record segment file name under ``segments/``.
    offset, length:
        Byte position and size of the frame within the segment.
    index:
        Repetition index the frame stores (copied into the index so
        listings and prefix checks never open a segment).
    """

    segment: str
    offset: int
    length: int
    index: int

    def to_row(self) -> "list[object]":
        """Compact JSON row form ``[segment, offset, length, index]``."""
        return [self.segment, self.offset, self.length, self.index]

    @staticmethod
    def from_row(row: object) -> "IndexEntry":
        """Rebuild an entry from its row form (StoreError when malformed)."""
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise StoreError(f"malformed index row: {row!r}")
        segment, offset, length, index = row
        try:
            return IndexEntry(
                segment=str(segment), offset=int(offset), length=int(length), index=int(index)
            )
        except (TypeError, ValueError) as error:
            raise StoreError(f"malformed index row {row!r}: {error}") from None


def delta_path(index_dir: Path, segment: str) -> Path:
    """The append-only index segment paired with record segment *segment*."""
    return index_dir / f"delta-{segment}.jsonl"


def catalog_path(index_dir: Path) -> Path:
    """The compacted catalog document."""
    return index_dir / "catalog.json"


def append_delta(
    index_dir: Path, segment: str, entries: "Mapping[str, Iterable[IndexEntry]]"
) -> None:
    """Publish one ``put`` batch to *segment*'s index segment.

    The line is appended only after the record frames it describes are
    flushed; a crash before this call leaves unindexed (invisible)
    frames, a crash during it leaves a checksum-failing torn line —
    either way the index never points at bytes that were not written.
    """
    payload = {
        "segment": segment,
        "keys": {key: [entry.to_row() for entry in batch] for key, batch in entries.items()},
    }
    line = json.dumps(
        {"v": CATALOG_VERSION, "check": payload_checksum(payload), "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    index_dir.mkdir(parents=True, exist_ok=True)
    with delta_path(index_dir, segment).open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()


def _parse_line(line: bytes) -> "dict[str, list[IndexEntry]] | None":
    """One delta line's key → entries batch.

    ``None`` when the line is torn (a crashed writer), malformed or
    fails its checksum. This is the only delta parser: the incremental
    :class:`IndexView` and every full read go through it.
    """
    try:
        document = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict) or "payload" not in document:
        return None
    payload = document["payload"]
    if document.get("check") != payload_checksum(payload):
        return None
    keys = payload.get("keys") if isinstance(payload, dict) else None
    if not isinstance(keys, dict):
        return None
    entries: "dict[str, list[IndexEntry]]" = {}
    for key, rows in keys.items():
        if not isinstance(rows, list):
            continue
        batch = entries.setdefault(str(key), [])
        for row in rows:
            try:
                batch.append(IndexEntry.from_row(row))
            except StoreError:
                continue
    return entries


def _extend(merged: "dict[str, list[IndexEntry]]", entries: "Mapping | None") -> None:
    for key, batch in (entries or {}).items():
        merged.setdefault(key, []).extend(batch)


def _stamp(path: Path) -> "tuple[int, int, int] | None":
    """``(st_ino, st_mtime_ns, st_size)`` of *path*; ``None`` when absent."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


class _DeltaFile:
    """What an :class:`IndexView` has read of one delta file."""

    def __init__(self) -> None:
        self.stamp: "tuple[int, int, int] | None" = None
        self.head = b""  # first complete line: tells a rewrite in place
        self.offset = 0  # byte offset after the last complete line
        self.entries: "dict[str, list[IndexEntry]]" = {}
        self.tail: "dict[str, list[IndexEntry]]" = {}  # unterminated last line

    def refresh(self, path: Path) -> "int | None":
        """Parse what was appended to *path* since the last call.

        Returns the lines parsed, or ``None`` when the file is gone. A
        file replaced or rewritten in place (another inode, fewer bytes
        than already read, another first line) is re-read from byte 0.
        An unterminated last line is parsed but not consumed: it is read
        again, once, when the file grows.
        """
        stamp = _stamp(path)
        if stamp is None:
            return None
        if stamp == self.stamp:
            return 0
        try:
            with path.open("rb") as handle:
                if self.stamp is not None and (
                    stamp[0] != self.stamp[0]
                    or stamp[2] < self.offset
                    or handle.read(len(self.head)) != self.head
                ):
                    self.__init__()
                handle.seek(max(self.offset - 1, 0))
                chunk = handle.read()
        except OSError:
            return None
        if self.offset:
            if chunk[:1] != b"\n":  # line boundaries moved: rewritten
                self.__init__()
                return self.refresh(path)
            chunk = chunk[1:]
        end = chunk.rfind(b"\n") + 1
        if not self.offset and end:
            self.head = chunk[: chunk.find(b"\n") + 1]
        lines = [line for line in chunk[:end].splitlines() if line.strip()]
        for line in lines:
            _extend(self.entries, _parse_line(line))
        self.offset += end
        self.tail = {}
        if chunk[end:].strip():
            lines.append(chunk[end:])
            _extend(self.tail, _parse_line(chunk[end:]))
        self.stamp = stamp
        return len(lines)


class IndexView:
    """An incrementally refreshed read of one ``index/`` directory.

    Each :meth:`refresh` re-parses the catalog only when its
    ``(st_ino, st_mtime_ns, st_size)`` changed, and parses only the
    bytes appended to each delta file since the previous refresh — so a
    long-lived view answers a lookup in time that does not grow with
    the index. Deleted delta files drop out of the view; a changed
    catalog (compaction, ``drop``, ``gc``) re-reads every delta. The
    merged result is exactly a full read's: catalog entries first, then
    each delta file in sorted-name order, lines in file order.

    A view is not thread-safe by itself; hold :attr:`lock` around
    :meth:`refresh` and the reads that follow it.
    """

    def __init__(self, index_dir: "Path | str"):
        self.index_dir = Path(index_dir)
        self.lock = threading.Lock()
        self._catalog_stamp: "tuple[int, int, int] | None" = None
        self._catalog: "dict[str, list[IndexEntry]]" = {}
        self._deltas: "dict[str, _DeltaFile]" = {}  # sorted by file name

    def refresh(self) -> int:
        """Catch up with the directory; returns the delta lines parsed."""
        stamp = _stamp(catalog_path(self.index_dir))
        if stamp != self._catalog_stamp:
            self._catalog = load_catalog(self.index_dir) if stamp else {}
            self._catalog_stamp = stamp
            # Only maintenance (compaction, drop, gc) rewrites the catalog,
            # and it deletes deltas a writer may then recreate under the
            # same name: re-read every delta rather than trust its stamp.
            self._deltas = {}
        return self._refresh_deltas()

    def _refresh_deltas(self) -> int:
        try:
            names = sorted(
                name
                for name in os.listdir(self.index_dir)
                if name.startswith("delta-") and name.endswith(".jsonl")
            )
        except OSError:
            names = []
        parsed = 0
        deltas: "dict[str, _DeltaFile]" = {}
        for name in names:
            state = self._deltas.get(name) or _DeltaFile()
            lines = state.refresh(self.index_dir / name)
            if lines is not None:
                parsed += lines
                deltas[name] = state
        self._deltas = deltas
        return parsed

    def entries(self, key: str) -> "list[IndexEntry]":
        """Every entry of *key*, in full-read order (last entry wins)."""
        merged = list(self._catalog.get(key, ()))
        for state in self._deltas.values():
            merged.extend(state.entries.get(key, ()))
            merged.extend(state.tail.get(key, ()))
        return merged

    def snapshot(self) -> "dict[str, list[IndexEntry]]":
        """The whole key → entries map, in full-read order."""
        merged = {key: list(batch) for key, batch in self._catalog.items()}
        for state in self._deltas.values():
            _extend(merged, state.entries)
            _extend(merged, state.tail)
        return merged


def _summarise(batch: "list[IndexEntry]") -> "list[int]":
    """Per-key ``[records, bytes]`` under last-entry-wins semantics."""
    winners: "dict[int, int]" = {}
    for entry in batch:
        winners[entry.index] = entry.length
    return [len(winners), sum(winners.values())]


def _read_catalog_parts(index_dir: Path) -> "tuple[dict | None, bytes]":
    """The catalog's verified ``(header, body_bytes)``; ``(None, b"")`` when
    the file is absent, torn or fails its CRC."""
    try:
        blob = catalog_path(index_dir).read_bytes()
    except OSError:
        return None, b""
    header_bytes, sep, body = blob.partition(b"\n")
    if not sep:
        return None, b""
    try:
        header = json.loads(header_bytes)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, b""
    if not isinstance(header, dict) or header.get("crc") != zlib.crc32(body):
        return None, b""
    return header, body


def load_catalog_summary(index_dir: Path) -> "dict[str, tuple[int, int]]":
    """Per-key ``(records, bytes)`` from the catalog header alone.

    This is the O(keys) listing path: no coordinate row is parsed, no
    :class:`IndexEntry` constructed. Empty when the catalog is absent or
    torn (callers fall back to an empty index, same as
    :func:`load_catalog`).
    """
    header, _ = _read_catalog_parts(index_dir)
    summary = header.get("summary") if header else None
    if not isinstance(summary, dict):
        return {}
    parsed: "dict[str, tuple[int, int]]" = {}
    for key, pair in summary.items():
        if (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            parsed[str(key)] = (pair[0], pair[1])
    return parsed


def load_catalog(index_dir: Path) -> "dict[str, list[IndexEntry]]":
    """The compacted catalog's key → entries map (empty when absent/torn)."""
    _, body = _read_catalog_parts(index_dir)
    if not body:
        return {}
    try:
        document = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {}
    keys = document.get("keys") if isinstance(document, dict) else None
    if not isinstance(keys, dict):
        return {}
    catalog: "dict[str, list[IndexEntry]]" = {}
    for key, rows in keys.items():
        if not isinstance(rows, list):
            continue
        batch: "list[IndexEntry]" = []
        for row in rows:
            try:
                batch.append(IndexEntry.from_row(row))
            except StoreError:
                continue
        if batch:
            catalog[str(key)] = batch
    return catalog


def write_catalog(index_dir: Path, catalog: "Mapping[str, Iterable[IndexEntry]]") -> Path:
    """Atomically publish a compacted catalog (sorted keys, CRC-checked)."""
    batches = {key: batch for key in sorted(catalog) if (batch := list(catalog[key]))}
    body = json.dumps(
        {"keys": {key: [entry.to_row() for entry in batch] for key, batch in batches.items()}},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8") + b"\n"
    header = {
        "v": CATALOG_VERSION,
        "crc": zlib.crc32(body),
        "summary": {key: _summarise(batch) for key, batch in batches.items()},
    }
    index_dir.mkdir(parents=True, exist_ok=True)
    path = catalog_path(index_dir)
    tmp = path.with_suffix(f".tmp-{os.getpid()}-{os.urandom(2).hex()}")
    tmp.write_bytes(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n" + body
    )
    os.replace(tmp, path)
    return path


def load_deltas(index_dir: Path) -> "dict[str, list[IndexEntry]]":
    """Entries published in live (not yet compacted) delta files only.

    Listings use this to decide which keys need the full coordinate
    merge: a key with no delta entries is fully described by the catalog
    header's summary.
    """
    view = IndexView(index_dir)
    view._refresh_deltas()
    return view.snapshot()


def load_index(index_dir: Path) -> "dict[str, list[IndexEntry]]":
    """The full current index: compacted catalog merged with live deltas.

    A full read through a fresh :class:`IndexView` (maintenance paths
    use it under the store's lease; the store's ``get`` keeps one view
    per process and refreshes it instead). Duplicate coordinates are
    possible when a recompute re-stored an index that already had an
    entry; all of them are valid (records are pure functions of their
    ``(key, index)``), and the reader's last-entry-wins merge matches
    v1's last-line-wins semantics.
    """
    view = IndexView(index_dir)
    view.refresh()
    return view.snapshot()


def compact(index_dir: Path) -> "dict[str, int]":
    """Fold every delta file into the catalog and delete the absorbed deltas.

    Callers must fence this with the store's maintenance lease: two
    concurrent compactions could each absorb-and-delete deltas the other
    never read. A writer racing the compaction can lose freshly appended
    delta lines (its open handle keeps writing to the unlinked file) —
    that demotes cached repetitions to recomputable misses, never
    corrupts results, and is why compaction runs only inside explicit
    maintenance commands, not on the write path.

    Returns
    -------
    dict
        Counters: ``deltas_absorbed``, ``keys`` and ``entries`` in the
        published catalog.
    """
    merged = load_index(index_dir)
    deltas = sorted(index_dir.glob("delta-*.jsonl")) if index_dir.is_dir() else []
    write_catalog(index_dir, merged)
    for path in deltas:
        try:
            path.unlink()
        except OSError:
            pass
    return {
        "deltas_absorbed": len(deltas),
        "keys": len(merged),
        "entries": sum(len(batch) for batch in merged.values()),
    }
