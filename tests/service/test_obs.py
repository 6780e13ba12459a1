"""Observability across the service: trace propagation (crash retry
included), the ``metrics`` wire op, the ``stats`` latency section, and the
Prometheus listener."""

import asyncio
import json
import threading
import time
import urllib.request

import pytest

import repro
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.client import ServiceClient
from repro.service.pool import WorkerPool
from repro.service.server import serve
from repro.workloads.families import nd_bc_family
from repro.workloads.updates import edit_arm_pair, edit_arm_transducer


def _spans(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if '"name"' in line
    ]


@pytest.fixture()
def traced_server(tmp_path):
    """A private server+pool with tracing and the metrics listener on."""
    trace_file = tmp_path / "trace.jsonl"
    loop = asyncio.new_event_loop()
    holder = {}
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        holder["sp"] = loop.run_until_complete(
            serve(
                port=0,
                workers=2,
                trace_path=str(trace_file),
                metrics_port=0,
            )
        )
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(30)
    service, pool = holder["sp"]
    try:
        yield service, pool, trace_file
    finally:
        asyncio.run_coroutine_threadsafe(service.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        pool.close()
        obs_trace.trace_to(None)
        obs_metrics.disable_kernel_metrics()


class TestEndToEndTrace:
    def test_pinned_queries_share_one_trace_id(self, traced_server):
        """Bare v2 requests: each query's client wire span, server dispatch
        span and worker pinned span carry the query's one trace ID."""
        service, pool, trace_file = traced_server
        din, dout = edit_arm_pair(4)
        base = edit_arm_transducer(4)
        edited = edit_arm_transducer(4, edited=1, variant="unsafe")
        with ServiceClient(port=service.port) as client:
            pair = client.pair(din, dout)
            # A fresh root per query: an earlier test may have left a
            # trace ID active on this thread.
            with obs_trace.root():
                assert pair.typecheck(base)["typechecks"] is True
            with obs_trace.root():
                assert pair.retypecheck(edited, base)["typechecks"] is False
        time.sleep(0.3)  # let worker span writes land

        by_trace = {}
        for record in _spans(trace_file):
            by_trace.setdefault(record["trace"], []).append(record)
        queries = {
            record["attrs"]["op"]: trace
            for trace, records in by_trace.items()
            for record in records
            if record["name"] == "dispatch"
            and record["attrs"].get("op") in ("typecheck", "retypecheck")
        }
        assert set(queries) == {"typecheck", "retypecheck"}
        assert queries["typecheck"] != queries["retypecheck"]
        import os

        for op, trace in queries.items():
            names = {record["name"] for record in by_trace[trace]}
            assert {"wire", "dispatch", "pinned"} <= names, (op, names)
            pinned = [r for r in by_trace[trace] if r["name"] == "pinned"]
            assert len(pinned) == 1 and pinned[0]["pid"] != os.getpid()
            assert pinned[0]["attrs"]["op"] == "pinned"

    def test_metrics_op_returns_documented_names(self, traced_server):
        service, pool, _ = traced_server
        transducer, din, dout, _ = nd_bc_family(5)
        with ServiceClient(port=service.port) as client:
            client.typecheck(transducer, din, dout)
            merged = client.metrics()["merged"]
        counters = merged["counters"]
        assert counters["repro.pool.requests"] >= 1
        assert counters["repro.pool.completed"] >= 1
        assert counters["repro.session.registry.misses"] >= 1
        # kernel counters are live (metrics_port enables the metered drain)
        assert counters.get("repro.kernel.node_expansions", 0) >= 1
        assert "repro.server.latency_ms{op=typecheck}" in merged["histograms"]

    def test_stats_has_server_latency_section(self, traced_server):
        service, pool, _ = traced_server
        with ServiceClient(port=service.port) as client:
            client.ping()
            stats = client.stats()
        server = stats["server"]
        assert server["connections"] >= 1
        assert server["inflight"] >= 1  # the stats request itself
        assert "ping" in server["latency_ms"]
        assert server["latency_ms"]["ping"]["count"] >= 1

    def test_prometheus_scrape(self, traced_server):
        service, pool, _ = traced_server
        transducer, din, dout, _ = nd_bc_family(4)
        with ServiceClient(port=service.port) as client:
            client.typecheck(transducer, din, dout)
        url = f"http://127.0.0.1:{service.metrics_port}/metrics"
        body = urllib.request.urlopen(url, timeout=30).read().decode()
        assert "# TYPE repro_pool_requests counter" in body
        assert "# TYPE repro_server_latency_ms histogram" in body
        assert 'le="+Inf"' in body


class TestCrashRetryTrace:
    def test_retry_reemits_spans_under_same_trace_id(self, tmp_path):
        """Satellite: a worker killed mid-request must re-emit its spans
        on the healthy worker under the SAME trace ID, with the retry
        visible both as the ``repro.pool.retries`` counter and a
        ``retry=1`` span attribute."""
        trace_file = tmp_path / "crash_trace.jsonl"
        retries_before = obs_metrics.counter("repro.pool.retries").value
        with WorkerPool(
            2, cache_max_bytes=None, trace_path=str(trace_file)
        ) as pool:
            trace = {"trace_id": "feedc0de00000000"}
            ticket = pool.submit("sleep", 1.5, slot=0, trace=trace)
            time.sleep(0.4)
            pool._slots[0].process.terminate()
            assert ticket.result(timeout=60) == {"slept": 1.5}
            time.sleep(0.3)  # let the retried worker's span write land
        assert (
            obs_metrics.counter("repro.pool.retries").value
            == retries_before + 1
        )
        spans = [
            r for r in _spans(trace_file) if r["trace"] == "feedc0de00000000"
        ]
        # the killed attempt never writes (it died mid-span); the retry does
        assert spans, "no spans re-emitted for the retried request"
        retried = [r for r in spans if r["attrs"].get("retry") == 1]
        assert retried and retried[-1]["attrs"]["op"] == "sleep"

    def test_untraced_requests_ship_no_context(self, tmp_path):
        """Without an active trace, pool queue items carry trace=None and
        the sink file stays empty even when workers could write to it."""
        # Earlier traced tests may have left a trace ID on this thread;
        # this test is about a thread with no active trace.
        obs_trace._LOCAL.trace_id = None
        obs_trace._LOCAL.span_id = None
        trace_file = tmp_path / "quiet.jsonl"
        with WorkerPool(
            1, cache_max_bytes=None, trace_path=str(trace_file)
        ) as pool:
            assert pool.submit("ping", None).result(timeout=30)["pong"]
            time.sleep(0.2)
        assert not trace_file.exists() or _spans(trace_file) == []
