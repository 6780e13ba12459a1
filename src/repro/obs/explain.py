"""Per-query explain reports: attribute work to one typechecking query.

PR 8's metrics are process-cumulative and its spans need a trace file;
neither answers "what did *this* query cost and why" at the call site.
A :class:`QueryReport` does: which engine ran and its measured ms,
cache provenance per stage, the query's own kernel counters (captured with
:class:`repro.obs.metrics.DeltaScope` around the run — the global
counters are snapshotted, never forked), and the counterexample
shape.  Reports are plain-data
(:meth:`QueryReport.to_dict` is JSON-safe), ship over the wire as an
optional ``explain`` response field, and render human-readable with
:func:`render_report` (the CLI ``--explain`` view).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "QueryReport",
    "query_scope",
    "kernel_section",
    "build_report",
    "render_report",
]

#: Kernel metric names → short report keys.
_KERNEL_SHORT = {
    "repro.kernel.node_expansions": "node_expansions",
    "repro.kernel.cells_created": "cells_created",
    "repro.kernel.frontier_hwm": "frontier_hwm",
}


@contextmanager
def query_scope():
    """Delta-scope one query's kernel counters.

    When the metered kernel drain is off globally (the shipped default)
    it is enabled just for the scope and restored afterwards, so
    ``explain=True`` works standalone while a server running with
    ``--metrics-port`` pays the metered drain exactly once.
    """
    was_enabled = _metrics.kernel_metrics_enabled()
    if not was_enabled:
        _metrics.enable_kernel_metrics()
    scope = _metrics.registry.delta_scope()
    try:
        with scope:
            yield scope
    finally:
        if not was_enabled:
            _metrics.disable_kernel_metrics()


def kernel_section(
    counters: Mapping[str, int], gauges: Mapping[str, float]
) -> Dict[str, int]:
    """Delta-scope output as the report's short-named kernel section."""
    section: Dict[str, int] = {}
    for name, short in _KERNEL_SHORT.items():
        value = counters.get(name, gauges.get(name, 0))
        if value:
            section[short] = int(value)
    return section


@dataclass
class QueryReport:
    """One query's attribution record (see module docstring).

    ``engines`` maps the engine that ran to its ``measured_ms``; a
    section that does not apply to the query (``counterexample`` on a
    passing one) is ``None``.  A ``retypecheck`` query is a plain typecheck of the
    edited transducer and reports exactly like one.
    """

    kind: str  # typecheck | retypecheck
    method: str  # the requested method ("auto" included)
    engine: Optional[str]  # the engine that actually ran
    verdict: Dict[str, Any]
    measured_ms: float
    trace_id: Optional[str] = None
    engines: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)
    kernel: Dict[str, int] = field(default_factory=dict)
    counterexample: Optional[Dict[str, Any]] = None
    engine_stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (the wire/slow-query-log form)."""
        data: Dict[str, Any] = {
            "kind": self.kind,
            "method": self.method,
            "engine": self.engine,
            "verdict": dict(self.verdict),
            "measured_ms": round(self.measured_ms, 3),
            "trace_id": self.trace_id,
            "engines": {
                name: dict(values) for name, values in self.engines.items()
            },
            "cache": _json_safe(self.cache),
            "kernel": dict(self.kernel),
            "engine_stats": _json_safe(self.engine_stats),
        }
        if self.counterexample is not None:
            data["counterexample"] = _json_safe(self.counterexample)
        return data

    def render(self) -> str:
        return render_report(self.to_dict())


def _json_safe(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def build_report(
    kind: str,
    *,
    method: str,
    result,
    measured_ms: float,
    scope=None,
    session_source: Optional[str] = None,
) -> QueryReport:
    """Assemble a :class:`QueryReport` from a finished run.

    Reads only the result's ``stats`` (every engine already records its
    routing and cache facts there) plus the delta ``scope`` captured
    around the run, so building a report never re-enters an engine.
    """
    stats: Mapping[str, Any] = result.stats

    engine = stats.get("auto_method")
    if engine is None:
        engine = method if method != "auto" else str(result.algorithm)

    engines = {str(engine): {"measured_ms": round(measured_ms, 3)}}

    cache: Dict[str, Any] = {}
    if session_source:
        cache["session_source"] = session_source
    if "table_cache" in stats:
        cache["table_cache"] = stats["table_cache"]

    kernel: Dict[str, int] = {}
    if scope is not None:
        kernel = kernel_section(scope.counters, scope.gauges)

    counterexample: Optional[Dict[str, Any]] = None
    cex = result.counterexample
    if cex is not None:
        counterexample = {"kind": type(cex).__name__}
        nodes = getattr(cex, "nodes", None)
        if isinstance(nodes, (list, dict)):
            counterexample["distinct_nodes"] = len(nodes)

    engine_stats: Dict[str, Any] = {}
    try:
        from repro.engines import get_engine

        engine_stats = get_engine(str(engine)).explain_stats(stats)
    except (ValueError, ImportError):
        pass

    return QueryReport(
        kind=kind,
        method=method,
        engine=str(engine),
        verdict={
            "typechecks": bool(result.typechecks),
            "reason": str(result.reason),
        },
        measured_ms=measured_ms,
        trace_id=_trace.current_trace_id(),
        engines=engines,
        cache=cache,
        kernel=kernel,
        counterexample=counterexample,
        engine_stats=engine_stats,
    )


def render_report(data: Mapping[str, Any]) -> str:
    """A report dict (local or off the wire) as human-readable lines."""
    verdict = data.get("verdict") or {}
    outcome = "typechecks" if verdict.get("typechecks") else "REJECTED"
    head = (
        f"explain: {data.get('kind', 'typecheck')} via {data.get('engine')}"
        f" (method={data.get('method')}) — {data.get('measured_ms')} ms — {outcome}"
    )
    lines = [head]
    if verdict.get("reason"):
        lines.append(f"  reason: {verdict['reason']}")
    if data.get("trace_id"):
        lines.append(f"  trace: {data['trace_id']}")
    engines = data.get("engines") or {}
    if engines:
        parts = []
        for name in sorted(engines):
            values = engines[name]
            bits = []
            if "measured_ms" in values:
                bits.append(f"measured {values['measured_ms']} ms")
            ran = " (ran)" if name == data.get("engine") else ""
            parts.append(f"{name}{ran}: {', '.join(bits) or '-'}")
        lines.append("  engines: " + "; ".join(parts))
    cache = data.get("cache") or {}
    if cache:
        rendered = ", ".join(f"{key}={value}" for key, value in cache.items())
        lines.append(f"  cache: {rendered}")
    kernel = data.get("kernel") or {}
    if kernel:
        rendered = " ".join(f"{key}={value}" for key, value in kernel.items())
        lines.append(f"  kernel: {rendered}")
    counterexample = data.get("counterexample")
    if counterexample:
        rendered = ", ".join(
            f"{key}={value}" for key, value in counterexample.items()
        )
        lines.append(f"  counterexample: {rendered}")
    engine_stats = data.get("engine_stats") or {}
    if engine_stats:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(engine_stats.items())
        )
        lines.append(f"  engine_stats: {rendered}")
    return "\n".join(lines)
