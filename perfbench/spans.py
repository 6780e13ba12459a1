"""In-memory spans around the benchmark's calls into the program.

A traced run wraps every public call in a span (name, start, end, parent,
and the op id shared by all spans of one op).  Spans stay in memory and
are written out once, when the run ends.  The program's own span records
(``repro.obs.trace_to``: ``compile``, ``fixpoint``, ``wire``, ``dispatch``,
...) are folded in by op id — the benchmark runs each op under a trace
root whose id is the op id — and nested by time.  A span's self time is
its duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from repro.obs import trace as program_trace

#: Tolerance for nesting spans recorded by other processes (clock reads
#: of two processes on one host differ by far less).
_SKEW_S = 5e-4


class Tracer:
    """Collects spans of the benchmark's own calls (one caller thread)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._offset = time.time() - time.perf_counter()

    def _now(self) -> float:
        return self._offset + time.perf_counter()

    @contextlib.contextmanager
    def op(self, op_id: str, kind: str):
        """The root span of one op; program spans inside it share its id."""
        self._op = op_id
        with program_trace.root(op_id), self.span("op", kind=kind) as record:
            yield record
        self._op = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "op": self._op,
            "name": name,
            "start": self._now(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self._now()
            stack.pop()
            self.spans.append(record)


class NullTracer:
    """The untraced path: spans cost one shared no-op context."""

    enabled = False
    _null = contextlib.nullcontext({})

    def op(self, op_id: str, kind: str):
        return self._null

    def span(self, name: str, **attrs):
        return self._null


def program_spans(path: str, op_ids: Iterable[str]) -> List[Dict[str, object]]:
    """The program's span records for the given ops, in this module's
    span shape (names prefixed ``prog.``)."""
    wanted = set(op_ids)
    out: List[Dict[str, object]] = []
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return out
    with handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("trace") not in wanted or "dur_ms" not in record:
                continue
            start = float(record["ts"])
            out.append(
                {
                    "id": f"p{record.get('span')}",
                    "parent": None,
                    "op": record["trace"],
                    "name": "prog." + str(record["name"]),
                    "start": start,
                    "end": start + float(record["dur_ms"]) / 1e3,
                    "attrs": record.get("attrs") or {},
                }
            )
    return out


def _covered(intervals: List[tuple], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Dict[str, object]]) -> Dict[str, List[float]]:
    """``{span name: [self ms, ...]}`` over every span of every op.

    Within one op, spans nest by time containment (a span's parent is the
    innermost span whose interval holds it); a span's self time is its
    duration minus the union of its children's intervals, so it is never
    negative.
    """
    by_op: Dict[object, List[Dict[str, object]]] = defaultdict(list)
    for span in spans:
        if span["op"] is not None:
            by_op[span["op"]].append(span)
    result: Dict[str, List[float]] = defaultdict(list)
    for members in by_op.values():
        members.sort(key=lambda s: (s["start"], -s["end"]))
        children: Dict[int, List[tuple]] = defaultdict(list)
        stack: List[Dict[str, object]] = []
        for span in members:
            while stack and stack[-1]["end"] + _SKEW_S < span["end"]:
                stack.pop()
            if stack:
                children[id(stack[-1])].append((span["start"], span["end"]))
            stack.append(span)
        for span in members:
            low, high = span["start"], span["end"]
            covered = _covered(children[id(span)], low, high)
            result[str(span["name"])].append(max(0.0, high - low - covered) * 1e3)
    return result


def nesting_errors(spans: List[Dict[str, object]]) -> List[str]:
    """Benchmark spans that do not lie inside their recorded parent."""
    by_id = {span["id"]: span for span in spans}
    errors = []
    for span in spans:
        parent: Optional[Dict[str, object]] = by_id.get(span["parent"])
        if span["parent"] is not None and parent is None:
            errors.append(f"span {span['id']} has a missing parent")
        elif parent is not None and not (
            parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        ):
            errors.append(f"span {span['id']} ({span['name']}) escapes its parent")
        elif parent is not None and parent["op"] != span["op"]:
            errors.append(f"span {span['id']} changes op id inside its parent")
    return errors


def dump(path: str, spans: List[Dict[str, object]]) -> None:
    """Write the spans as JSON lines (once, when the run ends)."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, default=str) + "\n")
