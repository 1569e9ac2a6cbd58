"""Tests of the v2 binary segment format: frames and writers."""

import zlib

import pytest

from repro.errors import StoreError
from repro.store.format import (
    FRAME_HEADER,
    FRAME_MAGIC,
    SEGMENT_MAGIC,
    SegmentWriter,
    encode_frame,
    new_segment_name,
    read_frame,
)

KEY = "ab" + "2" * 30
PAYLOAD = {"estimate": 3.3e-05, "nested": {"pi": 3.141592653589793}, "text": "x"}


class TestFrameCodec:
    def test_round_trip(self, tmp_path):
        frame = encode_frame(KEY, 7, PAYLOAD)
        blob = tmp_path / "seg"
        blob.write_bytes(frame)
        with blob.open("rb") as handle:
            key, index, payload = read_frame(handle, 0, len(frame))
        assert (key, index, payload) == (KEY, 7, PAYLOAD)

    def test_floats_round_trip_exactly(self, tmp_path):
        awkward = {"a": 0.1 + 0.2, "b": 1e-323, "c": -0.0}
        frame = encode_frame(KEY, 0, awkward)
        blob = tmp_path / "seg"
        blob.write_bytes(frame)
        with blob.open("rb") as handle:
            _, _, payload = read_frame(handle, 0, len(frame))
        assert [repr(payload[k]) for k in "abc"] == [repr(awkward[k]) for k in "abc"]

    def test_layout_is_magic_header_body(self):
        frame = encode_frame(KEY, 1, {"x": 1})
        assert frame.startswith(FRAME_MAGIC)
        body_length, crc = FRAME_HEADER.unpack_from(frame, len(FRAME_MAGIC))
        body = frame[len(FRAME_MAGIC) + FRAME_HEADER.size :]
        assert body_length == len(body)
        assert crc == zlib.crc32(body)

    def test_flipped_byte_fails_crc(self, tmp_path):
        frame = bytearray(encode_frame(KEY, 0, PAYLOAD))
        frame[-1] ^= 0xFF
        blob = tmp_path / "seg"
        blob.write_bytes(bytes(frame))
        with blob.open("rb") as handle:
            with pytest.raises(StoreError, match="CRC"):
                read_frame(handle, 0, len(frame))

    def test_truncated_frame_is_a_short_read(self, tmp_path):
        frame = encode_frame(KEY, 0, PAYLOAD)
        blob = tmp_path / "seg"
        blob.write_bytes(frame[:-4])
        with blob.open("rb") as handle:
            with pytest.raises(StoreError, match="truncated"):
                read_frame(handle, 0, len(frame))

    def test_wrong_magic_rejected(self, tmp_path):
        frame = b"XX" + encode_frame(KEY, 0, PAYLOAD)[2:]
        blob = tmp_path / "seg"
        blob.write_bytes(frame)
        with blob.open("rb") as handle:
            with pytest.raises(StoreError, match="magic"):
                read_frame(handle, 0, len(frame))

    def test_valid_crc_but_malformed_body_rejected(self, tmp_path):
        # A frame whose bytes are intact but whose body is not a record.
        body = b'{"not": "a record"}'
        frame = FRAME_MAGIC + FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body
        blob = tmp_path / "seg"
        blob.write_bytes(frame)
        with blob.open("rb") as handle:
            with pytest.raises(StoreError, match="misses field"):
                read_frame(handle, 0, len(frame))

    def test_negative_or_bool_index_rejected(self, tmp_path):
        import json

        for bad in (-1, True):
            body = json.dumps({"key": KEY, "index": bad, "payload": {}}).encode()
            frame = FRAME_MAGIC + FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body
            blob = tmp_path / "seg"
            blob.write_bytes(frame)
            with blob.open("rb") as handle:
                with pytest.raises(StoreError, match="non-negative"):
                    read_frame(handle, 0, len(frame))


class TestSegmentWriter:
    def test_append_returns_index_coordinates(self, tmp_path):
        writer = SegmentWriter(tmp_path)
        offset0, length0 = writer.append(KEY, 0, PAYLOAD)
        offset1, length1 = writer.append(KEY, 1, PAYLOAD)
        writer.close()
        assert offset0 == len(SEGMENT_MAGIC)
        assert offset1 == offset0 + length0
        with writer.path.open("rb") as handle:
            assert read_frame(handle, offset1, length1)[1] == 1

    def test_file_created_lazily(self, tmp_path):
        writer = SegmentWriter(tmp_path / "segments")
        assert not (tmp_path / "segments").exists()
        writer.append(KEY, 0, {})
        writer.close()
        assert writer.path.read_bytes().startswith(SEGMENT_MAGIC)

    def test_reopening_appends_after_existing_frames(self, tmp_path):
        first = SegmentWriter(tmp_path, name="seg-fixed.seg")
        coordinates = [first.append(KEY, 0, PAYLOAD)]
        first.close()
        second = SegmentWriter(tmp_path, name="seg-fixed.seg")
        coordinates.append(second.append(KEY, 1, PAYLOAD))
        second.close()
        assert coordinates[1][0] == sum(coordinates[0])
        with second.path.open("rb") as handle:
            frames = [read_frame(handle, *where) for where in coordinates]
        assert frames == [(KEY, 0, PAYLOAD), (KEY, 1, PAYLOAD)]

    def _segment(self, tmp_path, count):
        writer = SegmentWriter(tmp_path, name="seg-three.seg")
        coordinates = [writer.append(KEY, i, {"i": i}) for i in range(count)]
        writer.close()
        return writer.path, coordinates

    def test_torn_tail_leaves_earlier_frames_readable(self, tmp_path):
        path, coordinates = self._segment(tmp_path, 3)
        offset, _ = coordinates[2]
        path.write_bytes(path.read_bytes()[: offset + 5])  # tear the last frame mid-header
        with path.open("rb") as handle:
            assert [read_frame(handle, *where)[1] for where in coordinates[:2]] == [0, 1]
            with pytest.raises(StoreError, match="truncated"):
                read_frame(handle, *coordinates[2])

    def test_corrupt_frame_leaves_its_neighbours_readable(self, tmp_path):
        path, coordinates = self._segment(tmp_path, 3)
        offset, length = coordinates[1]
        blob = bytearray(path.read_bytes())
        blob[offset + length - 1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with path.open("rb") as handle:
            with pytest.raises(StoreError, match="CRC"):
                read_frame(handle, *coordinates[1])
            assert [read_frame(handle, *coordinates[i])[2] for i in (0, 2)] == [{"i": 0}, {"i": 2}]

    def test_fresh_names_do_not_collide(self):
        names = {new_segment_name() for _ in range(64)}
        assert len(names) == 64
        assert all(name.endswith(".seg") for name in names)
