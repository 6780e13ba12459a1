"""repro.obs — unified tracing, metrics, and engine profiling.

Three surfaces, all stdlib-only and dependency-free so every layer of the
codebase (kernel, core, backward, service) can import this package:

- :mod:`repro.obs.metrics` — process-local registry of counters, gauges,
  and fixed-log-bucket histograms; snapshots merge across processes and
  render as Prometheus text exposition.
- :mod:`repro.obs.trace` — request-scoped trace IDs and JSON-lines span
  records, propagated over the wire protocol and through the worker pool.
- the **router audit log** below — bounded in-memory record of predicted
  vs. actual engine cost for every ``method="auto"`` routing decision,
  the data needed to re-fit ``FORWARD_MS_PER_UNIT``/``BACKWARD_MS_PER_UNIT``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs import metrics, trace
from repro.obs.metrics import (
    merge_snapshots,
    render_prometheus,
    enable_kernel_metrics,
    disable_kernel_metrics,
    kernel_metrics_enabled,
)
from repro.obs.trace import span, trace_to

__all__ = [
    "metrics",
    "trace",
    "span",
    "trace_to",
    "merge_snapshots",
    "render_prometheus",
    "enable_kernel_metrics",
    "disable_kernel_metrics",
    "kernel_metrics_enabled",
    "record_router_decision",
    "router_audit",
    "ROUTER_AUDIT_LIMIT",
]

ROUTER_AUDIT_LIMIT = 256

_ROUTER_AUDIT: Deque[Dict[str, Any]] = deque(maxlen=ROUTER_AUDIT_LIMIT)


def record_router_decision(
    choice: str,
    actual_ms: float = 0.0,
    predicted_ms: Optional[Dict[str, float]] = None,
    **extra: Any,
) -> None:
    """Log one ``auto`` routing decision: predicted vs. measured cost.

    ``predicted_ms`` maps each routable engine's name to its predicted
    cost; the entry carries them as ``predicted_<engine>_ms`` (what
    ``python -m repro calibrate`` reads).
    """
    entry: Dict[str, Any] = {"choice": choice}
    if predicted_ms:
        for name, cost in predicted_ms.items():
            entry[f"predicted_{name}_ms"] = cost
    entry["actual_ms"] = actual_ms
    entry.update(extra)
    _ROUTER_AUDIT.append(entry)
    metrics.counter("repro.router.decisions", choice=choice).inc()
    predicted_choice = entry.get(f"predicted_{choice}_ms")
    if predicted_choice and actual_ms > 0:
        # Residual of the routing model for the engine that actually ran:
        # ratio 1.0 = perfectly calibrated ms_per_unit, >1 = model too
        # optimistic.  `python -m repro calibrate` summarizes these.
        metrics.histogram("repro.router.calibration_ratio", engine=choice).observe(
            actual_ms / predicted_choice
        )
    trace.emit_record({"kind": "router_audit", **entry})


def router_audit() -> List[Dict[str, Any]]:
    """The bounded in-memory router audit log, oldest first."""
    return list(_ROUTER_AUDIT)
