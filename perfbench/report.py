"""Metric definitions and their computation from op records and spans.

``END_TO_END`` come from the untraced run only; ``PER_LAYER`` from the
separate traced run.  A per-layer metric whose layer does no work on a
workload reads 0 there (no compile on a served op, no pool in process).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from common import loglog_slope, median, percentile

END_TO_END = {  # name: unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Symbol-count buckets (input plus output DTD) of the compile readout.
BUCKETS = (("small", 0, 24), ("medium", 25, 64), ("large", 65, 10**9))
ROUTES = ("forward", "backward", "replus", "delrelab")
#: Span names whose self time is reported (benchmark spans, then the
#: program's own spans folded in by op id).
SELF_SPANS = (
    "op", "compile", "analysis", "typecheck", "retypecheck", "request",
    "prog.compile", "prog.fixpoint", "prog.retypecheck_diff", "prog.wire",
    "prog.dispatch", "prog.pinned",
)

PER_LAYER = {  # name: unit
    "compile.ms": "ms",
    "compile.share": "ratio",
    "compile.ms_per_symbol": "ms/symbol",
    **{f"compile.ms_per_symbol.{b}": "ms/symbol" for b, _, _ in BUCKETS},
    "compile.size_exponent": "slope",
    "compile.footprint_bytes": "bytes",
    "analysis.ms": "ms",
    **{f"route.share.{r}": "ratio" for r in ROUTES},
    "route.auto_over_best": "ratio",
    "route.predicted_over_measured": "ratio",
    "engine.ms.forward": "ms",
    "engine.ms.backward": "ms",
    "engine.ms.replus": "ms",
    "kernel.node_expansions": "count/op",
    "kernel.cells_created": "count/op",
    "table_cache.hit_ratio": "ratio",
    "cex.dag_nodes": "count",
    "cex.unfolded_nodes": "count",
    "op.fail.ms": "ms",
    "op.pass.ms": "ms",
    "retypecheck.ms": "ms",
    "retypecheck.incremental_share": "ratio",
    "delrelab.ms": "ms",
    "pool.hop_ms": "ms",
    "pool.retries": "count",
    "pool.respawns": "count",
    "wire.ms": "ms",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "worker.pair_evictions": "count",
    "trace.overhead_ratio": "ratio",
    **{f"self_ms.{name}": "ms/op" for name in SELF_SPANS},
}


def latencies(records: List[dict]) -> List[float]:
    return [r["ms"] for r in records if "error" not in r]


def latencies_by_kind(records: List[dict]) -> Dict[str, List[float]]:
    """Latencies of the ops that did not raise, by op kind."""
    kinds: Dict[str, List[float]] = defaultdict(list)
    for r in records:
        if "error" not in r:
            kinds[r["kind"]].append(r["ms"])
    return dict(sorted(kinds.items()))


def end_to_end(records: List[dict], busy_s: float, setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    samples = latencies(records)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / busy_s if busy_s > 0 else 0.0,
        "latency_p50_ms": percentile(samples, 0.50),
        "latency_p90_ms": percentile(samples, 0.90),
        "peak_rss_mb": peak_rss_mb,
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _share(values: List[object], wanted) -> float:
    return sum(1 for v in values if v == wanted) / len(values) if values else 0.0


def per_layer(
    records: List[dict],
    spans: List[dict],
    self_ms: Dict[str, List[float]],
    extras: Dict[str, object],
    overhead_ratio: float,
) -> Dict[str, float]:
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    ok = [r for r in records if "error" not in r]
    n_ops = max(1, len(ok))
    by_op = {r["op_id"]: r for r in ok if "op_id" in r}

    # Schema compile (schemas / strings / kernel).
    points = [(r["symbols"], r["compile_ms"]) for r in ok if "compile_ms" in r]
    points += list(zip(extras.get("symbols", []), extras.get("compile_ms", [])))
    if points:
        m["compile.ms"] = median(ms for _, ms in points)
        m["compile.ms_per_symbol"] = sum(ms for _, ms in points) / sum(s for s, _ in points)
        for bucket, low, high in BUCKETS:
            inside = [(s, ms) for s, ms in points if low <= s <= high]
            if inside:
                m[f"compile.ms_per_symbol.{bucket}"] = (
                    sum(ms for _, ms in inside) / sum(s for s, _ in inside))
        m["compile.size_exponent"] = loglog_slope(points)
    compiled_ops = [r for r in ok if "compile_ms" in r]
    if compiled_ops:
        m["compile.share"] = (sum(r["compile_ms"] for r in compiled_ops)
                              / sum(r["ms"] for r in compiled_ops))
    footprints = extras.get("footprints") or [r["footprint_bytes"] for r in ok
                                              if "footprint_bytes" in r]
    m["compile.footprint_bytes"] = median(footprints)

    # Span durations by name, and by the engine their op was routed to.
    durations: Dict[str, List[float]] = defaultdict(list)
    by_engine: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        ms = (span["end"] - span["start"]) * 1e3
        durations[span["name"]].append(ms)
        record = by_op.get(span["op"])
        if record is not None and span["name"] in ("typecheck", "prog.pinned"):
            by_engine[str(record.get("engine"))].append(ms)
    m["analysis.ms"] = median(durations.get("analysis", []))

    # Routing (core.session).
    engines = [r["engine"] for r in ok if r.get("engine")]
    for route in ROUTES:
        m[f"route.share.{route}"] = _share(engines, route)
    m["route.auto_over_best"] = median(r["auto_over_best"] for r in ok
                                       if r.get("auto_over_best") is not None)
    m["route.predicted_over_measured"] = median(
        r["predicted_over_measured"] for r in ok
        if r.get("predicted_over_measured") is not None)

    # Engine fixpoints, kernel counters, table cache.
    for engine in ("forward", "backward", "replus"):
        m[f"engine.ms.{engine}"] = median(by_engine.get(engine, []))
    m["delrelab.ms"] = median(by_engine.get("delrelab", []))
    for name in ("node_expansions", "cells_created"):
        m[f"kernel.{name}"] = float(extras.get(f"repro.kernel.{name}", 0)) / n_ops
    lookups = [r["table_cache"] for r in ok if r.get("table_cache") in ("hit", "miss")]
    m["table_cache.hit_ratio"] = _share(lookups, "hit")

    # Counterexamples and the verdict split.
    cex = [r["cex"] for r in ok if r.get("cex")]
    m["cex.dag_nodes"] = _mean([c[0] for c in cex])
    m["cex.unfolded_nodes"] = _mean([c[1] for c in cex])
    m["op.fail.ms"] = median(r["ms"] for r in ok if r.get("verdict") is False)
    m["op.pass.ms"] = median(r["ms"] for r in ok if r.get("verdict") is True)

    # Incremental re-checking (updates).
    edits = [r for r in ok if r["kind"] == "edit"]
    m["retypecheck.ms"] = median(r["ms"] for r in edits)
    m["retypecheck.incremental_share"] = _share([r.get("mode") for r in edits], "incremental")

    # Serving plane.
    hops: Optional[dict] = extras.get("hops")  # type: ignore[assignment]
    if hops:
        m["pool.hop_ms"] = hops["pool_ms"] - hops["in_process_ms"]
        m["wire.ms"] = hops["tcp_v2_ms"] - hops["pool_ms"]
    m["pool.retries"] = float(extras.get("repro.pool.retries", 0))
    m["pool.respawns"] = float(extras.get("repro.pool.respawns", 0))
    m["worker.pair_evictions"] = float(extras.get("repro.worker.pair_evictions", 0))
    m["wire.request_bytes"] = _mean([r["request_bytes"] for r in ok if "request_bytes" in r])
    m["wire.response_bytes"] = _mean([r["response_bytes"] for r in ok if "response_bytes" in r])

    # Tracing cost and per-span self time.
    m["trace.overhead_ratio"] = overhead_ratio
    for name in SELF_SPANS:
        m[f"self_ms.{name}"] = sum(self_ms.get(name, [])) / n_ops
    return m
