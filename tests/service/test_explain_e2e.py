"""Serving-plane observability v2: explain over the wire, the slow-query
log, windowed telemetry on the Prometheus listener, and health endpoints."""

import asyncio
import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.client import ServiceClient
from repro.service.server import serve
from repro.workloads.families import filtering_family, nd_bc_family


@pytest.fixture()
def observed_server(tmp_path):
    """A server with every observability surface armed: tracing, metrics
    listener, and a slow-query log with a zero threshold (every
    single-instance query logs, so tests need no artificial delays)."""
    trace_file = tmp_path / "trace.jsonl"
    slow_file = tmp_path / "slow.jsonl"
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
                slow_query_log=str(slow_file),
                slow_ms=0.0,
            )
        )
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(30)
    service, pool = holder["sp"]
    try:
        yield service, pool, slow_file
    finally:
        asyncio.run_coroutine_threadsafe(service.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        pool.close()
        obs_trace.trace_to(None)
        obs_metrics.disable_kernel_metrics()


def _slow_entries(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestSlowQueryLog:
    def test_auto_query_reconstructable_from_one_entry(self, observed_server):
        """The acceptance criterion: one slow-query-log line carries the
        trace ID, the chosen engine with its measured ms, and the query's
        own kernel counters."""
        service, pool, slow_file = observed_server
        transducer, din, dout, expected = filtering_family(5)
        with ServiceClient(port=service.port) as client:
            result = client.typecheck(transducer, din, dout, method="auto")
        assert result["typechecks"] == expected
        # The response itself carries the report (the server forces
        # explain on while the slow log is armed).
        assert "explain" in result
        entries = [
            e for e in _slow_entries(slow_file) if e.get("op") == "typecheck"
        ]
        assert entries, "no slow-query entry for the query"
        entry = entries[-1]
        # Wire identifiers: threshold, method, trace ID (tracing was on).
        assert entry["elapsed_ms"] >= entry["slow_ms"] == 0.0
        assert entry["method"] == "auto"
        assert entry.get("trace_id")
        explain = entry["explain"]
        assert explain["kind"] == "typecheck"
        assert explain["trace_id"] == entry["trace_id"]
        # Engine choice and its measurement.
        assert explain["engine"] == "backward"
        assert explain["engines"]["backward"]["measured_ms"] > 0
        # The query's own kernel counters, measured in the worker.
        assert explain["kernel"].get("node_expansions", 0) > 0
        assert explain["cache"]["table_cache"] == "miss"

    def test_explain_request_field_works_without_slow_log_forcing(
        self, observed_server
    ):
        service, pool, _ = observed_server
        transducer, din, dout, _ = nd_bc_family(5)
        with ServiceClient(port=service.port) as client:
            result = client.typecheck(transducer, din, dout, explain=True)
        explain = result["explain"]
        assert explain["kind"] == "typecheck"
        assert explain["engine"] in explain["engines"]
        assert explain["kernel"].get("node_expansions", 0) > 0

    def test_retypecheck_entries_carry_mode(self, observed_server):
        service, pool, slow_file = observed_server
        transducer, din, dout, _ = nd_bc_family(5)
        with ServiceClient(port=service.port) as client:
            client.typecheck(transducer, din, dout)
            client.retypecheck(transducer, transducer, din, dout)
        entries = [
            e for e in _slow_entries(slow_file) if e.get("op") == "retypecheck"
        ]
        assert entries
        assert entries[-1]["explain"]["kind"] == "retypecheck"


class TestWindowedTelemetry:
    def test_recent_p95_and_pair_rates_in_live_scrape(self, observed_server):
        service, pool, _ = observed_server
        transducer, din, dout, _ = nd_bc_family(5)
        with ServiceClient(port=service.port) as client:
            # Pin the pair (v2) so per-pair accounting sees bare requests.
            pair = client.pair(din, dout)
            for _ in range(3):
                assert "typechecks" in pair.typecheck(transducer)
        url = f"http://127.0.0.1:{service.metrics_port}/metrics"
        body = urllib.request.urlopen(url, timeout=30).read().decode()
        assert "# TYPE repro_server_latency_ms_recent_p95 gauge" in body
        assert 'repro_server_latency_ms_recent_p95{op="typecheck"}' in body
        assert "# TYPE repro_server_pair_request_rate gauge" in body
        rate_lines = [
            line
            for line in body.splitlines()
            if line.startswith("repro_server_pair_request_rate{digest=")
        ]
        assert rate_lines
        assert any(float(line.split()[-1]) > 0 for line in rate_lines)
        assert "repro_server_pair_requests{digest=" in body

    def test_stats_op_has_recent_sections(self, observed_server):
        service, pool, _ = observed_server
        transducer, din, dout, _ = nd_bc_family(4)
        with ServiceClient(port=service.port) as client:
            client.typecheck(transducer, din, dout)
            stats = client.stats()
        server = stats["server"]
        recent = server["latency_recent_ms"]["typecheck"]
        assert recent["count"] >= 1
        assert recent["p95"] is not None
        assert isinstance(server["pair_rates"], dict)


class TestHealthEndpoints:
    def test_healthz_and_readyz(self, observed_server):
        service, pool, _ = observed_server
        base = f"http://127.0.0.1:{service.metrics_port}"
        health = urllib.request.urlopen(f"{base}/healthz", timeout=30)
        assert health.status == 200
        assert health.read().decode().strip() == "ok"
        ready = urllib.request.urlopen(f"{base}/readyz", timeout=30)
        assert ready.status == 200
        assert "ready" in ready.read().decode()

    def test_readyz_503_when_workers_dead(self, observed_server):
        service, pool, _ = observed_server
        # Kill one worker without letting the pool respawn it first.
        pool._slots[0].process.terminate()
        pool._slots[0].process.join(timeout=10)
        base = f"http://127.0.0.1:{service.metrics_port}"
        try:
            response = urllib.request.urlopen(f"{base}/readyz", timeout=30)
            status = response.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        # Either the pool already respawned (200) or readiness dipped
        # (503); what must never happen is a hang or a 500.
        assert status in (200, 503)


class TestConcurrentScrapes:
    def test_parallel_scrapes_all_succeed(self, observed_server):
        """Satellite: the Prometheus listener under concurrent scrapes."""
        service, pool, _ = observed_server
        transducer, din, dout, _ = nd_bc_family(4)
        with ServiceClient(port=service.port) as client:
            client.typecheck(transducer, din, dout)
        url = f"http://127.0.0.1:{service.metrics_port}/metrics"
        bodies = [None] * 8
        errors = []

        def scrape(index):
            try:
                bodies[index] = (
                    urllib.request.urlopen(url, timeout=30).read().decode()
                )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=scrape, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for body in bodies:
            assert body is not None
            assert "# TYPE repro_pool_requests counter" in body


class TestGaugePolicyOverWire:
    def test_merged_metrics_op_respects_sum_policy(self, observed_server):
        """Satellite: the pool-merged ``metrics`` op must carry the
        parent's gauge policies so point-in-time gauges merge by sum,
        not high-water."""
        service, pool, _ = observed_server
        with ServiceClient(port=service.port) as client:
            client.ping()
            metrics = client.metrics()
        parent = metrics["parent"]
        policies = parent.get("gauge_policies", {})
        assert policies.get("repro.server.connections") == "sum"
        assert policies.get("repro.server.inflight") == "sum"
        # The merged view kept the gauge (one process → sum == value).
        assert metrics["merged"]["gauges"]["repro.server.connections"] >= 1


class TestEphemeralMetricsPort:
    def test_metrics_port_zero_prints_chosen_port(self, tmp_path):
        """Satellite: ``--metrics-port 0`` binds an ephemeral port and the
        ready line names the port actually chosen."""
        repo_src = Path(__file__).resolve().parents[2] / "src"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1", "--metrics-port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                "PYTHONPATH": str(repo_src),
                "PYTHONDONTWRITEBYTECODE": "1",
                "PATH": "/usr/bin:/bin",
                "HOME": str(tmp_path),
            },
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            metrics_line = process.stdout.readline()
            assert "metrics on" in metrics_line, metrics_line
            metrics_port = int(metrics_line.rsplit(":", 1)[1])
            assert metrics_port > 0
            deadline = time.time() + 30
            while True:
                try:
                    body = (
                        urllib.request.urlopen(
                            f"http://127.0.0.1:{metrics_port}/healthz",
                            timeout=5,
                        )
                        .read()
                        .decode()
                    )
                    break
                except OSError:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.2)
            assert body.strip() == "ok"
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
