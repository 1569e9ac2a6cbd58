"""Tests of the on-disk store: record round-trips, corruption detection,
run manifests, garbage collection and the removed v1 layout."""

import json
import os
import time

import pytest

from repro.errors import StoreError
from repro.store.store import ArtifactStore, RunManifest

KEY = "ab" + "0" * 30
OTHER_KEY = "cd" + "0" * 30


def corrupt_one_frame(store_root):
    """Flip a payload byte inside the last frame of some segment file."""
    segment = sorted((store_root / "segments").glob("*.seg"))[0]
    blob = bytearray(segment.read_bytes())
    blob[-2] ^= 0xFF
    segment.write_bytes(bytes(blob))


def write_v1_leftover(store_root, key=KEY):
    """A record file in the removed v1 layout (``records/<kk>/<key>.jsonl``)."""
    path = store_root / "records" / key[:2] / f"{key}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    line = {"v": 1, "key": key, "index": 0, "check": "", "payload": {"x": 1.0}}
    path.write_text(json.dumps(line) + "\n")
    return path


class TestArtifactStore:
    def test_get_of_absent_key_is_empty(self, tmp_path):
        assert ArtifactStore(tmp_path).get(KEY) == {}

    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payloads = {0: {"x": 1.5}, 2: {"x": float("nan")}, 1: {"x": -0.0}}
        store.put(KEY, payloads)
        loaded = store.get(KEY)
        assert set(loaded) == {0, 1, 2}
        assert loaded[0] == {"x": 1.5}
        assert str(loaded[2]["x"]) == "nan"
        assert store.stats.writes == 3

    def test_incremental_put_merges(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.put(KEY, {1: {"x": 2}})
        assert set(store.get(KEY)) == {0, 1}

    def test_fresh_handle_sees_prior_writes(self, tmp_path):
        ArtifactStore(tmp_path).put(KEY, {0: {"x": 1.25}})
        assert ArtifactStore(tmp_path).get(KEY) == {0: {"x": 1.25}}

    def test_corrupt_frame_skipped_and_counted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}, 1: {"x": 2}})
        store.close()
        corrupt_one_frame(tmp_path)
        fresh = ArtifactStore(tmp_path)
        loaded = fresh.get(KEY)
        assert set(loaded) == {0}
        assert fresh.stats.corrupt == 1

    def test_strict_store_raises_on_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.close()
        corrupt_one_frame(tmp_path)
        with pytest.raises(StoreError, match="CRC"):
            ArtifactStore(tmp_path, strict=True).get(KEY)

    def test_verify_reports_problems(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}, 1: {"x": 2}})
        store.close()
        corrupt_one_frame(tmp_path)
        valid, problems = store.verify(KEY)
        assert valid == 1
        assert len(problems) == 1 and "CRC" in problems[0]

    def test_verify_of_absent_key(self, tmp_path):
        valid, problems = ArtifactStore(tmp_path).verify(KEY)
        assert valid == 0
        assert problems and "no records" in problems[0]

    def test_iter_keys_sorted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(OTHER_KEY, {0: {}})
        store.put(KEY, {0: {}})
        assert list(store.iter_keys()) == sorted([KEY, OTHER_KEY])

    def test_listing_reads_no_segment(self, tmp_path):
        """ls/describe/key_stats are O(index): the counter stays at zero."""
        store = ArtifactStore(tmp_path)
        store.put(KEY, {i: {"x": float(i)} for i in range(10)})
        store.put(OTHER_KEY, {0: {"x": 0.5}})
        fresh = ArtifactStore(tmp_path)
        document = fresh.describe()
        list(fresh.iter_keys())
        fresh.key_stats(KEY)
        assert fresh.stats.segment_reads == 0
        totals = document["totals"]
        assert (totals["runs"], totals["keys"], totals["records"]) == (0, 2, 11)
        assert totals["bytes"] > 0
        assert [e["key"] for e in document["records"]] == sorted([KEY, OTHER_KEY])
        assert all(set(e) == {"key", "records", "bytes"} for e in document["records"])

    def test_open_facade_and_coerce(self, tmp_path):
        store = ArtifactStore.open(tmp_path)
        assert isinstance(store, ArtifactStore)
        assert ArtifactStore.coerce(None) is None
        assert ArtifactStore.coerce(store) is store
        assert ArtifactStore.coerce(tmp_path).root == tmp_path

    def test_unknown_format_version_rejected(self, tmp_path):
        for marker in ("9", "1"):
            (tmp_path / "FORMAT").write_text(f"{marker}\n")
            with pytest.raises(StoreError, match="format"):
                ArtifactStore(tmp_path)
            with pytest.raises(StoreError, match="format"):
                ArtifactStore.open(tmp_path)
        (tmp_path / "FORMAT").write_text("2\n")
        assert ArtifactStore.open(tmp_path).describe()["format"] == 2


class TestV1Removed:
    """The v1 layout is no longer read; gc clears a leftover tree."""

    def test_leftover_v1_records_are_never_read(self, tmp_path):
        write_v1_leftover(tmp_path)
        store = ArtifactStore(tmp_path)
        assert store.get(KEY) == {}
        assert list(store.iter_keys()) == []
        assert store.describe()["totals"]["keys"] == 0
        assert store.verify(KEY) == (0, [f"no records for key {KEY}"])

    def test_gc_deletes_leftover_records_tree(self, tmp_path):
        write_v1_leftover(tmp_path, KEY)
        write_v1_leftover(tmp_path, OTHER_KEY)
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 2.0}})
        planned = store.gc(dry_run=True)
        assert planned["files_deleted"] == 2
        assert (tmp_path / "records").is_dir()
        counters = store.gc()
        assert counters["files_deleted"] == 2
        assert counters["records_kept"] == 1
        assert not (tmp_path / "records").exists()
        assert ArtifactStore(tmp_path).get(KEY) == {0: {"x": 2.0}}

    def test_gc_older_than_spares_fresh_leftovers(self, tmp_path):
        old = write_v1_leftover(tmp_path, KEY)
        stale = time.time() - 7200
        os.utime(old, (stale, stale))
        fresh = write_v1_leftover(tmp_path, OTHER_KEY)
        counters = ArtifactStore(tmp_path).gc(older_than=3600.0)
        assert counters["files_deleted"] == 1
        assert not old.exists() and fresh.exists()


class TestManifests:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        manifest = RunManifest(
            run_id="matrix-cafe0123",
            command="matrix",
            config={"seed": 11, "studies": ["illustrative"]},
            status="running",
            created="2026-07-28T00:00:00+0000",
        )
        store.save_manifest(manifest)
        assert store.load_manifest("matrix-cafe0123") == manifest
        assert store.list_manifests() == [manifest]

    def test_unknown_run_rejected_with_known_runs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save_manifest(RunManifest(run_id="matrix-aa", command="matrix", config={}))
        with pytest.raises(StoreError, match="matrix-aa"):
            store.load_manifest("matrix-bb")

    def test_new_run_id_avoids_collisions(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_id = store.new_run_id("matrix")
        assert run_id.startswith("matrix-")
        assert not store.manifest_path(run_id).exists()

    def test_unreadable_manifest_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.manifest_path("matrix-bad")
        path.parent.mkdir(parents=True)
        path.write_text("{}")
        with pytest.raises(StoreError, match="unreadable"):
            store.load_manifest("matrix-bad")


class TestGc:
    def test_gc_compacts_duplicates_and_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.put(KEY, {0: {"x": 1}, 1: {"x": 2}})
        store.close()
        counters = store.gc()
        assert counters["records_kept"] == 2
        assert counters["lines_dropped"] == 1  # the duplicate index-0 frame
        assert set(store.get(KEY)) == {0, 1}
        # Everything now lives in one fresh compact segment.
        assert len(list((tmp_path / "segments").glob("*.seg"))) == 1

    def test_gc_drops_corrupt_frames(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}, 1: {"x": 2}})
        store.close()
        corrupt_one_frame(tmp_path)
        counters = store.gc()
        assert counters["records_kept"] == 1
        assert counters["lines_dropped"] == 1
        assert set(ArtifactStore(tmp_path).get(KEY)) == {0}

    def test_gc_keeps_referenced_drops_orphans(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.put(OTHER_KEY, {0: {"x": 1}})
        store.close()
        store.save_manifest(
            RunManifest(
                run_id="matrix-aa",
                command="matrix",
                config={},
                status="complete",
                keys=(KEY,),
            )
        )
        counters = store.gc(drop_unreferenced=True)
        assert counters["keys_dropped"] == 1
        assert list(store.iter_keys()) == [KEY]
        assert ArtifactStore(tmp_path).get(OTHER_KEY) == {}

    def test_gc_without_flag_keeps_unreferenced(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.close()
        assert store.gc()["keys_dropped"] == 0
        assert list(store.iter_keys()) == [KEY]

    def test_gc_spares_orphans_while_a_run_is_in_flight(self, tmp_path):
        """An interrupted run records its keys only on completion — its
        resumable records must not be collected as orphans."""
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.close()
        store.save_manifest(
            RunManifest(run_id="matrix-aa", command="matrix", config={}, status="running")
        )
        counters = store.gc(drop_unreferenced=True)
        assert counters["keys_dropped"] == 0
        assert counters["in_flight_runs"] == 1
        assert list(store.iter_keys()) == [KEY]

    def test_gc_older_than_spares_fresh_segments(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.put(KEY, {0: {"x": 1}})  # duplicate that gc would normally fold
        store.close()
        segments = sorted((tmp_path / "segments").glob("*.seg"))
        counters = store.gc(older_than=3600.0)
        assert counters["segments_removed"] == 0
        assert sorted((tmp_path / "segments").glob("*.seg")) == segments
        assert ArtifactStore(tmp_path).get(KEY) == {0: {"x": 1}}


def snapshot_tree(root):
    """Every file under *root* with its exact bytes and mtime."""
    return {
        str(path.relative_to(root)): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestGcDryRun:
    def test_dry_run_with_older_than_is_strictly_read_only(self, tmp_path):
        """Regression: dry-run combined with --older-than must not rewrite,
        delete or create anything — not even lock or directory entries."""
        write_v1_leftover(tmp_path, OTHER_KEY)
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.put(KEY, {0: {"x": 1}, 1: {"x": 2}})
        store.close()
        before = snapshot_tree(tmp_path)
        dirs_before = sorted(str(p) for p in tmp_path.rglob("*") if p.is_dir())
        counters = store.gc(dry_run=True, older_than=0.0, drop_unreferenced=True)
        assert counters["dry_run"] == 1
        assert counters["files_deleted"] == 1
        assert snapshot_tree(tmp_path) == before
        assert sorted(str(p) for p in tmp_path.rglob("*") if p.is_dir()) == dirs_before

    def test_dry_run_counters_match_a_real_gc(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}})
        store.put(KEY, {0: {"x": 1}, 1: {"x": 2}})
        store.close()
        planned = store.gc(dry_run=True)
        actual = store.gc()
        for field in ("records_kept", "lines_dropped", "keys_dropped"):
            assert planned[field] == actual[field]


class TestDrop:
    def test_drop_forgets_a_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {0: {"x": 1}, 1: {"x": 2}})
        store.put(OTHER_KEY, {0: {"x": 3}})
        assert store.drop(KEY) == 2
        assert store.get(KEY) == {}
        assert store.get(OTHER_KEY) == {0: {"x": 3}}
        assert list(store.iter_keys()) == [OTHER_KEY]
