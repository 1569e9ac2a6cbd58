"""Concurrency and crash-recovery acceptance tests of store format v2.

Two real processes share one store directory without locks; a crashed
writer leaves at worst a torn tail that readers degrade to a cache miss.
"""

import os
import subprocess
import sys

from repro.store import ArtifactStore
from repro.store.format import SegmentWriter
from repro.store.index import append_delta, delta_path

KEY = "cc" + "4" * 30

#: Run by each writer subprocess: put a contiguous index range under KEY.
WRITER_SCRIPT = """
import sys
from repro.store import ArtifactStore

root, start, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ArtifactStore.open(root)
store.put(
    "{key}",
    {{i: {{"value": float(i), "writer": start}} for i in range(start, start + count)}},
)
store.close()
""".format(key=KEY)


class TestTwoProcessAppends:
    def test_concurrent_writers_on_one_key_both_land(self, tmp_path):
        """Two processes put to the same config key on a shared tmpdir;
        a fresh reader sees the union without any writer coordination."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(tmp_path), str(start), "5"],
                env=env,
                stderr=subprocess.PIPE,
            )
            for start in (0, 5)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        store = ArtifactStore.open(tmp_path)
        records = store.get(KEY)
        assert sorted(records) == list(range(10))
        assert records[3] == {"value": 3.0, "writer": 0}
        assert records[7] == {"value": 7.0, "writer": 5}
        # Each writer owned its own segment and its own delta file.
        assert len(list((tmp_path / "segments").glob("*.seg"))) == 2
        assert store.key_stats(KEY)["records"] == 10


class TestCrashMidWrite:
    def test_truncated_tail_frame_degrades_to_miss(self, tmp_path):
        """A writer that dies mid-frame leaves a torn tail; readers keep
        every intact record and treat the torn one as absent."""
        store = ArtifactStore.open(tmp_path)
        store.put(KEY, {i: {"value": float(i)} for i in range(3)})
        store.close()
        segment = sorted((tmp_path / "segments").glob("*.seg"))[0]
        blob = segment.read_bytes()
        segment.write_bytes(blob[:-7])  # tear the last frame mid-body
        fresh = ArtifactStore.open(tmp_path)
        records = fresh.get(KEY)
        assert sorted(records) == [0, 1]
        assert fresh.stats.corrupt == 1
        # The miss is recomputable: a new put restores the record.
        fresh.put(KEY, {2: {"value": 2.0}})
        fresh.close()
        assert ArtifactStore.open(tmp_path).get(KEY)[2] == {"value": 2.0}

    def test_unpublished_frames_are_invisible_not_wrong(self, tmp_path):
        """Frames flushed before the crash but never indexed simply do
        not exist for readers — the publication ordering guarantees the
        index never points past what was written."""
        store = ArtifactStore.open(tmp_path)
        store.put(KEY, {0: {"value": 0.0}})
        store.close()
        orphan = SegmentWriter(tmp_path / "segments")
        orphan.append(KEY, 1, {"value": 1.0})
        orphan.close()  # crash before append_delta
        fresh = ArtifactStore.open(tmp_path)
        assert sorted(fresh.get(KEY)) == [0]
        assert fresh.stats.corrupt == 0

    def test_torn_delta_line_skipped_segment_unaffected(self, tmp_path):
        """A crash mid delta-append leaves a checksum-failing line; the
        batch it described is lost from the index but earlier batches in
        the same delta file stay visible."""
        store = ArtifactStore.open(tmp_path)
        store.put(KEY, {0: {"value": 0.0}})
        store.close()
        segment = sorted((tmp_path / "segments").glob("*.seg"))[0]
        path = delta_path(tmp_path / "index", segment.name)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 2, "check": "never-fini')
        fresh = ArtifactStore.open(tmp_path)
        assert sorted(fresh.get(KEY)) == [0]
        valid, problems = fresh.verify(KEY)
        assert (valid, problems) == (1, [])

    def test_crashed_writer_process_leaves_recoverable_store(self, tmp_path):
        """An actual subprocess killed via os._exit mid-put must not make
        the store unreadable for the next process."""
        script = """
import os, sys
import repro.store.store as store_module
from repro.store import ArtifactStore

# Crash immediately after the frames are flushed, before the index line.
store_module.append_delta = lambda *a, **k: os._exit(9)
store = ArtifactStore.open(sys.argv[1])
store.put("{key}", {{0: {{"value": 0.0}}}})
""".format(key=KEY)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, timeout=120
        )
        assert proc.returncode == 9
        survivor = ArtifactStore.open(tmp_path)
        assert survivor.get(KEY) == {}  # invisible, not corrupt
        survivor.put(KEY, {0: {"value": 0.0}})
        survivor.close()
        assert ArtifactStore.open(tmp_path).get(KEY) == {0: {"value": 0.0}}
