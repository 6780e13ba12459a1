"""repro.obs — unified tracing, metrics, and engine profiling.

Three surfaces, all stdlib-only and dependency-free so every layer of the
codebase (kernel, core, backward, service) can import this package:

- :mod:`repro.obs.metrics` — process-local registry of counters, gauges,
  and fixed-log-bucket histograms; snapshots merge across processes and
  render as Prometheus text exposition.
- :mod:`repro.obs.trace` — request-scoped trace IDs and JSON-lines span
  records, propagated over the wire protocol and through the worker pool.
- :mod:`repro.obs.explain` — per-query attribution reports (which engine
  ran, cache provenance, the query's own kernel counters).
"""

from __future__ import annotations

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
]
