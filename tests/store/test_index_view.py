"""Tests of the incremental index view and the per-process segment writer.

A store read parses only the index bytes appended since the previous
read, and every handle of one store root in one process appends to one
shared segment. Both must stay invisible in the results: a view answers
exactly what a full :func:`load_index` read answers.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

from repro.errors import StoreError
from repro.obs import metrics
from repro.store import ArtifactStore
from repro.store.format import SegmentWriter
from repro.store.index import (
    IndexEntry,
    IndexView,
    append_delta,
    delta_path,
    load_index,
    write_catalog,
)

KEY = "ee" + "1" * 30
OTHER_KEY = "ff" + "2" * 30

#: Run by a writer subprocess: put one record under argv[2] at index argv[3].
PUT_SCRIPT = """
import sys
from repro.store import ArtifactStore

ArtifactStore.open(sys.argv[1]).put(sys.argv[2], {int(sys.argv[3]): {"from": "child"}})
"""


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH", "")) if p)
    return env


def segments(root):
    return sorted((root / "segments").glob("*.seg"))


def delta_line(tmp_path, key, index):
    """The exact bytes :func:`append_delta` writes for one entry."""
    scratch = tmp_path / "scratch-index"
    append_delta(scratch, "seg-x.seg", {key: [IndexEntry("seg-x.seg", 6, 40, index)]})
    blob = delta_path(scratch, "seg-x.seg").read_bytes()
    delta_path(scratch, "seg-x.seg").unlink()
    return blob


def refreshed(view):
    with view.lock:
        lines = view.refresh()
    return view.snapshot(), lines


class TestViewMatchesFullRead:
    def test_put_from_another_process_shows_on_next_get(self, tmp_path):
        reader = ArtifactStore.open(tmp_path)
        reader.put(KEY, {0: {"from": "parent"}})
        assert reader.get(KEY) == {0: {"from": "parent"}}
        proc = subprocess.run(
            [sys.executable, "-c", PUT_SCRIPT, str(tmp_path), KEY, "1"],
            env=subprocess_env(),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert reader.get(KEY) == {0: {"from": "parent"}, 1: {"from": "child"}}

    def test_torn_tail_skipped_then_read_once_when_completed(self, tmp_path):
        line = delta_line(tmp_path, KEY, 0)
        second = delta_line(tmp_path, KEY, 1)
        path = delta_path(tmp_path, "seg-1.seg")
        path.write_bytes(line + second[:20])  # crashed mid-append
        view = IndexView(tmp_path)
        snapshot, _ = refreshed(view)
        assert [e.index for e in snapshot[KEY]] == [0]
        with path.open("ab") as handle:
            handle.write(second[20:])
        snapshot, lines = refreshed(view)
        assert [e.index for e in snapshot[KEY]] == [0, 1]
        assert lines == 1
        assert refreshed(view) == (snapshot, 0)
        assert snapshot == load_index(tmp_path)

    def test_unterminated_valid_line_counts_as_a_full_read_does(self, tmp_path):
        path = delta_path(tmp_path, "seg-1.seg")
        path.write_bytes(delta_line(tmp_path, KEY, 0).rstrip(b"\n"))
        view = IndexView(tmp_path)
        snapshot, _ = refreshed(view)
        assert snapshot == load_index(tmp_path)
        assert [e.index for e in snapshot[KEY]] == [0]
        with path.open("ab") as handle:
            handle.write(b"\n" + delta_line(tmp_path, KEY, 1))
        snapshot, _ = refreshed(view)
        assert [e.index for e in snapshot[KEY]] == [0, 1]  # the tail, exactly once

    def test_rewrite_in_place_rereads_from_byte_zero(self, tmp_path):
        path = delta_path(tmp_path, "seg-1.seg")
        path.write_bytes(delta_line(tmp_path, KEY, 0))
        view = IndexView(tmp_path)
        refreshed(view)
        inode = path.stat().st_ino
        # Same inode, longer file, and a first line of the same length:
        # only the first-line comparison tells the rewrite from an append.
        path.write_bytes(delta_line(tmp_path, OTHER_KEY, 0) + delta_line(tmp_path, OTHER_KEY, 1))
        assert path.stat().st_ino == inode
        snapshot, lines = refreshed(view)
        assert lines == 2
        assert snapshot == load_index(tmp_path)
        assert KEY not in snapshot
        assert [e.index for e in snapshot[OTHER_KEY]] == [0, 1]

    def test_rewrite_keeping_the_first_line_is_reread(self, tmp_path):
        path = delta_path(tmp_path, "seg-1.seg")
        head = delta_line(tmp_path, KEY, 0)
        path.write_bytes(head + delta_line(tmp_path, KEY, 1))
        view = IndexView(tmp_path)
        refreshed(view)
        # Same first line, but the old read offset now falls mid-line.
        path.write_bytes(head + delta_line(tmp_path, KEY, 10) + delta_line(tmp_path, KEY, 2))
        snapshot, _ = refreshed(view)
        assert snapshot == load_index(tmp_path)
        assert [e.index for e in snapshot[KEY]] == [0, 10, 2]

    def test_order_is_catalog_then_sorted_deltas(self, tmp_path):
        store = ArtifactStore.open(tmp_path)
        store.put(KEY, {0: {"v": 0}})
        store.compact_index()
        view = IndexView(tmp_path / "index")
        append_delta(tmp_path / "index", "seg-b.seg", {KEY: [IndexEntry("seg-b.seg", 6, 9, 1)]})
        append_delta(tmp_path / "index", "seg-a.seg", {KEY: [IndexEntry("seg-a.seg", 6, 9, 2)]})
        snapshot, _ = refreshed(view)
        assert snapshot == load_index(tmp_path / "index")
        assert [e.index for e in view.entries(KEY)] == [0, 2, 1]

    def test_store_written_by_per_handle_writers_reads_back(self, tmp_path):
        """The layout of a store whose every handle owned its own segment
        and delta file (several per process), partly compacted."""
        expected = {}
        for writer_no in range(4):
            writer = SegmentWriter(tmp_path / "segments")
            for key in (KEY, OTHER_KEY):
                batch = []
                for index in range(writer_no, writer_no + 3):
                    payload = {"key": key[:2], "index": index}  # pure in (key, index)
                    offset, length = writer.append(key, index, payload)
                    batch.append(IndexEntry(writer.name, offset, length, index))
                    expected.setdefault(key, {})[index] = payload
                writer.flush()
                append_delta(tmp_path / "index", writer.name, {key: batch})
            writer.close()
            if writer_no == 1:
                ArtifactStore.open(tmp_path).compact_index()
        (tmp_path / "FORMAT").write_text("2\n")
        reader = ArtifactStore.open(tmp_path)
        for key in (KEY, OTHER_KEY):
            assert reader.get(key) == expected[key]
            assert reader.key_stats(key)["records"] == len(expected[key])
        view = IndexView(tmp_path / "index")
        assert refreshed(view)[0] == load_index(tmp_path / "index")


class TestViewReloads:
    def test_after_compact_drop_and_gc(self, tmp_path):
        reader = ArtifactStore.open(tmp_path)
        writer = ArtifactStore.open(tmp_path)
        writer.put(KEY, {0: {"v": 0}})
        writer.put(OTHER_KEY, {0: {"v": 1}})
        assert reader.get(KEY) == {0: {"v": 0}}
        writer.compact_index()
        assert list((tmp_path / "index").glob("delta-*.jsonl")) == []
        assert reader.get(KEY) == {0: {"v": 0}}
        writer.put(KEY, {1: {"v": 2}})
        assert reader.get(KEY) == {0: {"v": 0}, 1: {"v": 2}}
        assert writer.drop(KEY) == 2
        assert reader.get(KEY) == {}
        writer.put(KEY, {3: {"v": 3}})  # recreates the dropped delta file
        assert reader.get(KEY) == {3: {"v": 3}}
        assert reader.get(OTHER_KEY) == {0: {"v": 1}}
        writer.gc()
        assert reader.get(KEY) == {3: {"v": 3}}
        assert reader.get(OTHER_KEY) == {0: {"v": 1}}
        assert len(segments(tmp_path)) == 1

    def test_catalog_change_rereads_deltas_with_unchanged_stamps(self, tmp_path):
        """A delta recreated after maintenance can match the old file's
        inode, size and mtime; the catalog rewrite alone must force it
        to be read again."""
        path = delta_path(tmp_path, "seg-1.seg")
        path.write_bytes(delta_line(tmp_path, KEY, 0))
        view = IndexView(tmp_path)
        refreshed(view)
        stat = path.stat()
        path.write_bytes(delta_line(tmp_path, OTHER_KEY, 0))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_ino, path.stat().st_size) == (stat.st_ino, stat.st_size)
        write_catalog(tmp_path, {})
        snapshot, _ = refreshed(view)
        assert snapshot == load_index(tmp_path)
        assert list(snapshot) == [OTHER_KEY]


class TestSharedWriter:
    def test_threads_with_per_thread_handles_share_one_segment(self, tmp_path):
        def work(thread_no):
            store = ArtifactStore.open(tmp_path)
            for i in range(25):
                store.put(f"{thread_no:02d}" + "0" * 30, {i: {"t": thread_no, "i": i}})

        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the puts as much as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        reader = ArtifactStore.open(tmp_path)
        for thread_no in range(8):
            records = reader.get(f"{thread_no:02d}" + "0" * 30)
            assert records == {i: {"t": thread_no, "i": i} for i in range(25)}
        assert reader.stats.corrupt == 0
        assert len(segments(tmp_path)) == 1

    def test_dropped_handles_keep_the_segment_close_releases_it(self, tmp_path):
        for i in range(3):
            ArtifactStore.open(tmp_path).put(KEY, {i: {"v": i}})
            gc.collect()
        assert len(segments(tmp_path)) == 1
        ArtifactStore.open(tmp_path).close()
        ArtifactStore.open(tmp_path).put(KEY, {3: {"v": 3}})
        assert len(segments(tmp_path)) == 2
        assert sorted(ArtifactStore.open(tmp_path).get(KEY)) == [0, 1, 2, 3]

    def test_deleted_segment_starts_a_new_one(self, tmp_path):
        store = ArtifactStore.open(tmp_path)
        store.put(KEY, {0: {"v": 0}})
        segments(tmp_path)[0].unlink()  # a gc in another process
        store.put(KEY, {1: {"v": 1}})
        assert len(segments(tmp_path)) == 1
        assert store.get(KEY) == {1: {"v": 1}}

    def test_failed_put_releases_the_writer(self, tmp_path):
        store = ArtifactStore.open(tmp_path)
        store.put(KEY, {0: {"v": 0}})
        with pytest.raises(StoreError, match="not canonically serialisable"):
            store.put(KEY, {1: {"v": object()}})
        store.put(KEY, {2: {"v": 2}})
        assert store.get(KEY) == {0: {"v": 0}, 2: {"v": 2}}
        assert len(segments(tmp_path)) == 2

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_forked_child_writes_its_own_segment(self, tmp_path):
        store = ArtifactStore.open(tmp_path)
        store.put(KEY, {0: {"v": 0}})
        child = multiprocessing.get_context("fork").Process(
            target=_put_in_child, args=(str(tmp_path),)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 0
        store.put(KEY, {2: {"v": 2}})
        assert len(segments(tmp_path)) == 2
        assert store.get(KEY) == {0: {"v": 0}, 1: {"v": "child"}, 2: {"v": 2}}
        assert store.stats.corrupt == 0


def _put_in_child(root):
    ArtifactStore.open(root).put(KEY, {1: {"v": "child"}})


class TestReadCost:
    def test_each_get_parses_only_lines_appended_since_the_last(self, tmp_path):
        """1000 puts, each through a fresh handle (the service's pattern),
        each followed by one get on a long-lived handle."""
        reader = ArtifactStore.open(tmp_path)
        metric = metrics.registry().counter("repro_store_index_lines_total")
        before = metric.value()
        for n in range(1000):
            key = f"{n:032x}"
            ArtifactStore.open(tmp_path).put(key, {0: {"n": n}})
            parsed = reader.stats.index_lines
            assert reader.get(key) == {0: {"n": n}}
            assert reader.stats.index_lines - parsed <= 1
        assert reader.stats.index_lines == 1000
        assert metric.value() - before >= 1000
        assert len(segments(tmp_path)) == 1
        assert "repro_store_index_lines_total" in metrics.registry().render()
