"""Unit tests for the JSON-lines span sink (repro.obs.trace)."""

import json
import os

import pytest

from repro.obs import trace as t


@pytest.fixture()
def sink(tmp_path):
    path = tmp_path / "trace.jsonl"
    t.trace_to(str(path))
    try:
        yield path
    finally:
        t.trace_to(None)
        # never leak a thread-local trace into other tests
        t._LOCAL.trace_id = None
        t._LOCAL.span_id = None


def _spans(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestDisabledPath:
    def test_span_is_cached_noop_singleton(self):
        assert not t.enabled()
        assert t.span("compile") is t.span("fixpoint") is t._NULL_SPAN
        with t.span("anything", key=1) as span:
            span.set(more=2)  # must be a silent no-op

    def test_emit_record_is_noop(self, tmp_path):
        t.emit_record({"kind": "x"})  # no sink: nothing raised, no file


class TestSink:
    def test_span_record_schema(self, sink):
        with t.root("abc123"):
            with t.span("compile", source="test") as span:
                span.set(keys=3)
        records = _spans(sink)
        assert len(records) == 1
        record = records[0]
        assert record["trace"] == "abc123"
        assert record["name"] == "compile"
        assert record["parent"] is None
        assert record["pid"] == os.getpid()
        assert record["dur_ms"] >= 0
        assert record["attrs"] == {"source": "test", "keys": 3}

    def test_nested_spans_parent_correctly(self, sink):
        with t.root("trace0"):
            with t.span("dispatch"):
                with t.span("fixpoint"):
                    pass
        inner, outer = _spans(sink)  # inner closes (and writes) first
        assert inner["name"] == "fixpoint" and outer["name"] == "dispatch"
        assert inner["trace"] == outer["trace"] == "trace0"
        assert inner["parent"] == outer["span"]

    def test_dfa_interning_is_a_compile_span(self, sink):
        """A lazily built DFA kernel is charged to ``compile``, not to
        whichever fixpoint first asked for it — and only on the miss."""
        from repro.strings.dfa import DFA

        dfa = DFA({0, 1}, {"a"}, {(0, "a"): 1}, 0, {1})
        with t.root("trace1"):
            with t.span("fixpoint"):
                dfa.kernel()
                dfa.kernel()
        inner, outer = _spans(sink)
        assert inner["name"] == "compile"
        assert inner["attrs"] == {"artifact": "dfa_kernel"}
        assert inner["parent"] == outer["span"] and outer["name"] == "fixpoint"

    def test_orphan_span_mints_a_trace_id(self, sink):
        with t.span("fixpoint"):
            pass
        (record,) = _spans(sink)
        assert record["trace"] and len(record["trace"]) == 16

    def test_error_recorded_as_attribute(self, sink):
        with pytest.raises(ValueError):
            with t.span("dispatch"):
                raise ValueError("boom")
        (record,) = _spans(sink)
        assert record["attrs"]["error"] == "ValueError"

    def test_lines_are_valid_json(self, sink):
        for index in range(5):
            with t.span("wire", index=index):
                pass
        assert len(_spans(sink)) == 5


class TestContextTransport:
    def test_wire_context_round_trip(self, sink):
        assert t.wire_context() is None  # no active trace yet
        with t.root("feedbeef00000000"):
            with t.span("wire") as outer:
                context = t.wire_context()
        assert context == {
            "trace_id": "feedbeef00000000",
            "parent": outer._span_id,
        }
        # ... shipped across a process/queue boundary, then:
        with t.activate(context):
            with t.span("pinned"):
                pass
        child = _spans(sink)[-1]
        assert child["trace"] == "feedbeef00000000"
        assert child["parent"] == context["parent"]

    def test_activate_restores_previous_context(self, sink):
        with t.root("aaaa000000000000"):
            with t.activate({"trace_id": "bbbb000000000000"}):
                assert t.current_trace_id() == "bbbb000000000000"
            assert t.current_trace_id() == "aaaa000000000000"

    def test_activate_none_preserves_current(self, sink):
        with t.root("cccc000000000000"):
            with t.activate(None):
                assert t.current_trace_id() == "cccc000000000000"

    def test_emit_span_explicit(self, sink):
        t.emit_span("dispatch", "dddd000000000000", 123.0, 4.5, attrs={"op": "x"})
        (record,) = _spans(sink)
        assert record["name"] == "dispatch"
        assert record["trace"] == "dddd000000000000"
        assert record["dur_ms"] == 4.5
        assert record["attrs"] == {"op": "x"}


class TestLineSink:
    def test_partial_os_write_is_resumed(self, tmp_path, monkeypatch):
        """A short write (pipe/full-disk semantics) must not tear a line."""
        path = tmp_path / "partial.jsonl"
        sink = t.LineSink(str(path))
        real_write = os.write
        calls = []

        def short_write(fd, payload):
            # First call writes a single byte; the loop must resume.
            if not calls:
                calls.append(len(payload))
                return real_write(fd, payload[:1])
            return real_write(fd, payload)

        monkeypatch.setattr(os, "write", short_write)
        sink.emit({"kind": "x", "value": "y" * 100})
        monkeypatch.undo()
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["value"] == "y" * 100
        assert calls  # the short-write path actually ran

    def test_rotation_keeps_bounded_segments(self, tmp_path):
        path = tmp_path / "rotated.jsonl"
        sink = t.LineSink(str(path), max_bytes=512)
        for index in range(100):
            sink.emit({"n": index, "pad": "p" * 32})
        sink.close()
        assert path.stat().st_size <= 512
        rotated = tmp_path / "rotated.jsonl.1"
        assert rotated.exists()
        assert rotated.stat().st_size <= 512
        # Every surviving line is whole JSON (rotation never tears).
        for segment in (path, rotated):
            for line in segment.read_text().splitlines():
                json.loads(line)

    def test_concurrent_writers_interleave_whole_lines(self, tmp_path):
        import threading

        path = tmp_path / "concurrent.jsonl"
        sink = t.LineSink(str(path), max_bytes=8 * 1024)
        per_thread = 200

        def write(tid):
            for index in range(per_thread):
                sink.emit({"tid": tid, "n": index, "pad": "x" * 20})

        threads = [
            threading.Thread(target=write, args=(tid,)) for tid in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        survivors = 0
        for segment in (path, tmp_path / "concurrent.jsonl.1"):
            if not segment.exists():
                continue
            for line in segment.read_text().splitlines():
                record = json.loads(line)  # no torn lines anywhere
                assert 0 <= record["n"] < per_thread
                survivors += 1
        assert survivors > 0

    def test_emit_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "closed.jsonl"
        sink = t.LineSink(str(path))
        sink.close()
        sink.emit({"dropped": True})  # must not raise
        assert path.read_text() == ""

    def test_trace_to_max_bytes_plumbs_through(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        t.trace_to(str(path), max_bytes=4096)
        try:
            assert t.enabled()
            assert t._SINK.max_bytes == 4096
        finally:
            t.trace_to(None)
