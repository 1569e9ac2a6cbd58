"""Unit tests for tracing spans, the ring buffer and the JSONL sink."""

import json
import threading

import pytest

from repro.obs import trace


@pytest.fixture()
def tracing():
    """Enable tracing for one test, restoring the prior state afterwards."""
    prior = trace.status()
    trace.reset()
    trace.configure(enabled=True)
    yield
    trace.configure(
        enabled=bool(prior["enabled"]),
        trace_file=str(prior["trace_file"] or ""),
        ring_size=int(prior["ring_size"]),
    )
    trace.reset()


class TestDisabled:
    def test_span_is_shared_noop(self):
        trace.configure(enabled=False)
        first = trace.span("simulate", traces=10)
        second = trace.span("store-get")
        assert first is second  # one shared null instance, no allocation
        with first as sp:
            sp.annotate(anything=1)
        trace.event("ignored")
        trace.annotate(ignored=True)
        assert trace.events() == []
        assert not trace.enabled()


class TestSpans:
    def test_span_records_duration_and_fields(self, tracing):
        with trace.span("simulate", backend="kernel", traces=100) as sp:
            sp.annotate(satisfied=42)
        (record,) = trace.events()
        assert record["kind"] == "span"
        assert record["name"] == "simulate"
        assert record["dur_s"] >= 0.0
        assert record["depth"] == 0
        assert record["parent"] is None
        assert record["fields"] == {"backend": "kernel", "traces": 100, "satisfied": 42}

    def test_nesting_links_parent_and_depth(self, tracing):
        with trace.span("optimize") as outer:
            with trace.span("simulate"):
                pass
        inner, outer_record = trace.events()
        assert inner["name"] == "simulate"
        assert inner["depth"] == 1
        assert inner["parent"] == outer_record["id"]
        assert outer_record["depth"] == 0

    def test_exception_is_recorded_and_propagates(self, tracing):
        with pytest.raises(RuntimeError, match="boom"):
            with trace.span("store-put"):
                raise RuntimeError("boom")
        (record,) = trace.events()
        assert record["error"] == "RuntimeError"

    def test_module_level_annotate_hits_innermost_span(self, tracing):
        with trace.span("store-get"):
            trace.annotate(cache_hits=3)
        (record,) = trace.events()
        assert record["fields"] == {"cache_hits": 3}

    def test_point_event_under_span(self, tracing):
        with trace.span("optimize") as sp:
            trace.event("ce-round", round=1, ess=17.5)
        point, span_record = trace.events()
        assert point["kind"] == "event"
        assert point["name"] == "ce-round"
        assert point["parent"] == span_record["id"]
        assert "dur_s" not in point
        assert point["fields"] == {"round": 1, "ess": 17.5}
        assert sp is not None

    def test_threads_keep_independent_stacks(self, tracing):
        seen = {}

        def work():
            with trace.span("simulate") as sp:
                seen["thread_parent"] = sp.parent

        with trace.span("optimize"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        # The worker thread's span must not adopt this thread's span as
        # parent: span stacks are thread-local.
        assert seen["thread_parent"] is None


class TestRing:
    def test_ring_is_bounded_and_resizable(self, tracing):
        trace.configure(ring_size=4)
        for index in range(10):
            trace.event("tick", n=index)
        captured = trace.events()
        assert len(captured) == 4
        assert [record["fields"]["n"] for record in captured] == [6, 7, 8, 9]

    def test_events_clear_drains(self, tracing):
        trace.event("once")
        assert len(trace.events(clear=True)) == 1
        assert trace.events() == []

    def test_bad_ring_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            trace.configure(ring_size=0)


class TestSink:
    def test_sink_mirrors_events_as_jsonl(self, tracing, tmp_path):
        sink = tmp_path / "trace.jsonl"
        trace.configure(trace_file=str(sink))
        with trace.span("simulate", traces=5):
            pass
        trace.event("ce-round", ess=3.0)
        trace.configure(trace_file="")  # detach, flushing is immediate
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [record["name"] for record in lines] == ["simulate", "ce-round"]
        assert lines[0]["fields"] == {"traces": 5}

    def test_setting_sink_enables_tracing(self, tmp_path):
        prior = trace.status()
        try:
            trace.configure(enabled=False)
            trace.configure(trace_file=str(tmp_path / "t.jsonl"))
            assert trace.enabled()
            assert trace.status()["trace_file"] == str(tmp_path / "t.jsonl")
        finally:
            trace.configure(
                enabled=bool(prior["enabled"]), trace_file=str(prior["trace_file"] or "")
            )


class TestStatus:
    def test_status_document(self, tracing):
        trace.event("x")
        status = trace.status()
        assert status["enabled"] is True
        assert status["buffered"] == 1
        assert status["ring_size"] >= 1
        assert status["trace_file"] is None
