"""Structured trace spans with cross-process trace-ID propagation.

A trace ID is minted once per request (in ``ServiceClient.call`` or the
CLI), rides the wire protocol as an optional ``trace_id`` field (old
servers ignore unknown fields), travels through pool dispatch as a small
context dict, and is re-activated inside each worker — so every span a
single query produces, across every process it touches, carries the same
ID.  Spans are JSON-lines records appended to a shared sink file; each
record is written with a single ``write`` on an ``O_APPEND`` descriptor
so concurrent processes interleave whole lines, never bytes.

Span record schema (one JSON object per line)::

    {"trace": "<16-hex>", "span": "<8-hex>", "parent": "<8-hex>"|null,
     "name": "wire|dispatch|pinned|compile|fixpoint|...",
     "ts": <epoch seconds at start>, "dur_ms": <float>, "pid": <int>,
     "attrs": {...}}

Tracing is disabled unless a sink is configured (:func:`trace_to`); the
disabled path is one module-global ``None`` check and a cached no-op
context manager — no allocation, no I/O.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Any, Dict, Optional

__all__ = [
    "LineSink",
    "trace_to",
    "trace_path",
    "enabled",
    "new_trace_id",
    "current_trace_id",
    "wire_context",
    "activate",
    "root",
    "span",
    "emit_span",
    "emit_record",
]

_LOCAL = threading.local()


class LineSink:
    """Append-only JSON-lines file shared by concurrent writers.

    Each record goes out as one ``os.write`` loop on an ``O_APPEND``
    descriptor — pipes and full disks can return partial writes, so the
    loop resumes mid-buffer rather than dropping the tail of a line.
    With ``max_bytes`` set the sink rotates: when the file would exceed
    the budget it is renamed to ``<path>.1`` (replacing any previous
    segment) and a fresh file is opened, so ``path`` plus ``path.1``
    together hold at most ~2×``max_bytes``.  Rotation re-checks the
    inode before renaming, so concurrent *processes* sharing the path
    rotate it once, not once each.
    """

    __slots__ = ("path", "max_bytes", "_fd", "_lock")

    def __init__(self, path: str, max_bytes: Optional[int] = None) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None

    def _write_all(self, payload: bytes) -> None:
        fd = self._fd
        if fd is None:
            return
        written = 0
        while written < len(payload):
            written += os.write(fd, payload[written:])

    def _maybe_rotate(self, incoming: int) -> None:
        if self.max_bytes is None or self._fd is None:
            return
        try:
            if os.fstat(self._fd).st_size + incoming <= self.max_bytes:
                return
        except OSError:
            return
        with self._lock:
            fd = self._fd
            if fd is None:
                return
            try:
                if os.fstat(fd).st_size + incoming <= self.max_bytes:
                    return  # another thread already rotated
                # Only the process still holding the live segment renames;
                # a process whose fd points at an already-rotated segment
                # just reopens the fresh file.
                try:
                    same_file = os.stat(self.path).st_ino == os.fstat(fd).st_ino
                except OSError:
                    same_file = False
                if same_file:
                    os.replace(self.path, self.path + ".1")
                os.close(fd)
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            except OSError:
                pass

    def emit(self, record: Dict[str, Any]) -> None:
        """Append one JSON record; telemetry must never break the caller."""
        if self._fd is None:
            return
        try:
            payload = (json.dumps(record, default=str) + "\n").encode("utf-8")
            self._maybe_rotate(len(payload))
            self._write_all(payload)
        except (OSError, TypeError, ValueError):
            pass


_SINK: Optional[LineSink] = None
_SINK_LOCK = threading.Lock()


def trace_to(path: Optional[str], max_bytes: Optional[int] = None) -> None:
    """Configure (or, with ``None``, tear down) the JSON-lines span sink."""
    global _SINK
    with _SINK_LOCK:
        if _SINK is not None:
            _SINK.close()
            _SINK = None
        if path is not None:
            _SINK = LineSink(path, max_bytes=max_bytes)


def trace_path() -> Optional[str]:
    sink = _SINK
    return sink.path if sink is not None else None


def enabled() -> bool:
    return _SINK is not None


def new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def _new_span_id() -> str:
    return uuid.uuid4().hex[:8]


def current_trace_id() -> Optional[str]:
    return getattr(_LOCAL, "trace_id", None)


def _current_span_id() -> Optional[str]:
    return getattr(_LOCAL, "span_id", None)


def wire_context() -> Optional[Dict[str, Any]]:
    """The active trace as a picklable dict for queue/wire transport."""
    trace_id = current_trace_id()
    if trace_id is None:
        return None
    context: Dict[str, Any] = {"trace_id": trace_id}
    parent = _current_span_id()
    if parent is not None:
        context["parent"] = parent
    return context


class _Activation:
    """Context manager installing a trace context on the current thread."""

    __slots__ = ("_trace_id", "_parent", "_saved")

    def __init__(self, trace_id: Optional[str], parent: Optional[str]) -> None:
        self._trace_id = trace_id
        self._parent = parent
        self._saved = (None, None)

    def __enter__(self) -> "_Activation":
        self._saved = (current_trace_id(), _current_span_id())
        _LOCAL.trace_id = self._trace_id
        _LOCAL.span_id = self._parent
        return self

    def __exit__(self, *exc) -> None:
        _LOCAL.trace_id, _LOCAL.span_id = self._saved


def activate(context: Optional[Dict[str, Any]]) -> _Activation:
    """Adopt a transported trace context (from the wire or a pool queue)."""
    if not context:
        return _Activation(current_trace_id(), _current_span_id())
    return _Activation(context.get("trace_id"), context.get("parent"))


def root(trace_id: Optional[str] = None) -> _Activation:
    """Start a fresh trace on this thread (CLI / client entry points)."""
    return _Activation(trace_id or new_trace_id(), None)


def emit_record(record: Dict[str, Any]) -> None:
    """Append one raw JSON record to the sink (no-op when disabled)."""
    sink = _SINK
    if sink is None:
        return
    sink.emit(record)


def emit_span(
    name: str,
    trace_id: Optional[str],
    start_ts: float,
    dur_ms: float,
    parent: Optional[str] = None,
    span_id: Optional[str] = None,
    attrs: Optional[Dict[str, Any]] = None,
) -> None:
    """Emit a span record directly (for async code that can't use ``span``)."""
    if _SINK is None:
        return
    emit_record(
        {
            "trace": trace_id,
            "span": span_id or _new_span_id(),
            "parent": parent,
            "name": name,
            "ts": start_ts,
            "dur_ms": dur_ms,
            "pid": os.getpid(),
            "attrs": attrs or {},
        }
    )


class _Span:
    """Live span: times itself, parents nested spans, records attributes."""

    __slots__ = ("name", "attrs", "_span_id", "_saved_span", "_start_ts", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        if getattr(_LOCAL, "trace_id", None) is None:
            _LOCAL.trace_id = new_trace_id()  # orphan span starts its own trace
        self._span_id = _new_span_id()
        self._saved_span = _current_span_id()
        _LOCAL.span_id = self._span_id
        self._start_ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur_ms = (time.perf_counter() - self._start) * 1e3
        _LOCAL.span_id = self._saved_span
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        emit_span(
            self.name,
            current_trace_id(),
            self._start_ts,
            dur_ms,
            parent=self._saved_span,
            span_id=self._span_id,
            attrs=self.attrs,
        )


class _NullSpan:
    """Shared no-op span for the disabled path: no allocation, no writes."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """Open a span; returns a cached no-op context when tracing is off."""
    if _SINK is None:
        return _NULL_SPAN
    return _Span(name, attrs)
