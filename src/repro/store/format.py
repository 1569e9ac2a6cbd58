"""Store format v2: compact binary record segments.

A *segment* is an append-only file of length-prefixed frames, each frame
carrying one cached repetition record::

    segment file   = magic "RSEG2\\n" , frame*
    frame          = "FR" , length:uint32le , crc32:uint32le , body
    body           = canonical JSON bytes of {"key","index","payload"}

The body stays JSON — Python's ``repr``-based float serialisation is the
exact-round-trip guarantee every codec in :mod:`repro.store.codecs`
relies on, and format v2 must preserve it bit for bit. What changes is
everything around the payload: records are framed instead of line-based,
integrity is a CRC32 over the exact bytes instead of a re-serialising
checksum, and a record is located by ``(segment, offset, length)`` from
the index (:mod:`repro.store.index`) instead of by scanning a file.

Torn writes degrade safely: a frame whose length prefix runs past the
end of the file, or whose CRC does not match, is *absent* — the caller
treats it as a cache miss and recomputes, exactly like a truncated JSONL
line in format v1. Readers reach every frame through the index
(:func:`read_frame` at its coordinates), which is published only after
the segment bytes are flushed, so a torn or corrupt frame never hides
its neighbours.

Writers never share a segment: each :class:`SegmentWriter` owns a
freshly named file (``seg-<pid>-<random>.seg``), so concurrent processes
on a shared filesystem append without coordination. All cross-writer
merging happens in the index layer.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Mapping
from pathlib import Path

from repro.errors import StoreError
from repro.store.keys import canonical_json

__all__ = [
    "FRAME_HEADER",
    "FRAME_MAGIC",
    "SEGMENT_MAGIC",
    "SegmentWriter",
    "encode_frame",
    "new_segment_name",
    "read_frame",
]

#: First bytes of every v2 segment file.
SEGMENT_MAGIC = b"RSEG2\n"
#: First bytes of every frame.
FRAME_MAGIC = b"FR"
#: Frame header layout after the magic: body length, CRC32 of the body.
FRAME_HEADER = struct.Struct("<II")


def encode_frame(key: str, index: int, payload: Mapping[str, object]) -> bytes:
    """Encode one record as a self-verifying binary frame.

    Parameters
    ----------
    key : str
        The record's :func:`~repro.store.keys.config_key`.
    index : int
        Repetition index within the key.
    payload : Mapping
        The codec-encoded repetition result (JSON-serialisable; floats
        round-trip exactly).

    Returns
    -------
    bytes
        ``FRAME_MAGIC + header + body``; ``len()`` of the result is the
        frame length the index records.
    """
    body = canonical_json({"key": key, "index": int(index), "payload": dict(payload)}).encode(
        "utf-8"
    )
    return FRAME_MAGIC + FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes) -> "tuple[str, int, dict[str, object]]":
    import json

    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise StoreError(f"unreadable frame body: {error}") from None
    if not isinstance(document, dict):
        raise StoreError("frame body is not an object")
    try:
        key = document["key"]
        index = document["index"]
        payload = document["payload"]
    except KeyError as error:
        raise StoreError(f"frame body misses field {error}") from None
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise StoreError(f"frame index {index!r} is not a non-negative integer")
    if not isinstance(payload, dict):
        raise StoreError("frame payload is not an object")
    return str(key), index, payload


def read_frame(handle, offset: int, length: int) -> "tuple[str, int, dict[str, object]]":
    """Read and verify one frame at ``(offset, length)`` of an open segment.

    Parameters
    ----------
    handle : binary file object
        The segment, opened for reading.
    offset, length : int
        Index coordinates of the frame (as recorded at write time).

    Returns
    -------
    tuple
        ``(key, index, payload)``.

    Raises
    ------
    StoreError
        On a short read, wrong magic, CRC mismatch or undecodable body —
        all the ways a torn or bit-rotted frame announces itself.
    """
    handle.seek(offset)
    frame = handle.read(length)
    if len(frame) != length:
        raise StoreError(f"frame at offset {offset} truncated ({len(frame)}/{length} bytes)")
    prefix = len(FRAME_MAGIC) + FRAME_HEADER.size
    if frame[: len(FRAME_MAGIC)] != FRAME_MAGIC or length < prefix:
        raise StoreError(f"no frame magic at offset {offset}")
    body_length, crc = FRAME_HEADER.unpack_from(frame, len(FRAME_MAGIC))
    body = frame[prefix:]
    if body_length != len(body):
        raise StoreError(f"frame at offset {offset} has inconsistent length")
    if zlib.crc32(body) != crc:
        raise StoreError(f"frame at offset {offset} fails its CRC")
    return _decode_body(body)


def new_segment_name() -> str:
    """A collision-free segment file name unique to this writer."""
    return f"seg-{os.getpid()}-{os.urandom(4).hex()}.seg"


class SegmentWriter:
    """Append-only writer of one exclusively-owned segment file.

    Parameters
    ----------
    directory : Path
        The store's ``segments/`` directory (created on first append).
    name : str, optional
        Segment file name; defaults to a fresh :func:`new_segment_name`.

    Notes
    -----
    The file is created lazily on the first append and opened in append
    mode for the writer's lifetime. ``append`` returns the frame's
    ``(offset, length)`` so the caller can publish index entries *after*
    the bytes are flushed — the ordering that makes a crash between the
    two leave an unindexed (invisible) frame rather than a dangling
    index entry.
    """

    def __init__(self, directory: "Path | str", name: "str | None" = None):
        self.directory = Path(directory)
        self.name = name or new_segment_name()
        self._handle = None
        self._offset = 0

    @property
    def path(self) -> Path:
        """The segment file this writer owns."""
        return self.directory / self.name

    def _ensure_open(self) -> None:
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("ab")
            if self._handle.tell() == 0:
                self._handle.write(SEGMENT_MAGIC)
                self._handle.flush()
            self._offset = self._handle.tell()

    def append(self, key: str, index: int, payload: Mapping[str, object]) -> "tuple[int, int]":
        """Append one record frame; returns its ``(offset, length)``."""
        self._ensure_open()
        frame = encode_frame(key, index, payload)
        offset = self._offset
        self._handle.write(frame)
        self._offset += len(frame)
        return offset, len(frame)

    def flush(self) -> None:
        """Flush buffered frames to the filesystem."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the segment (the writer may not append again)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
