"""Unit tests for the process-local metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import metrics as m


@pytest.fixture()
def registry():
    reg = m.MetricsRegistry()
    yield reg


class TestInstruments:
    def test_counter_monotonic(self, registry):
        counter = registry.counter("repro.test.hits")
        counter.inc()
        counter.inc(3)
        assert registry.snapshot()["counters"]["repro.test.hits"] == 4

    def test_counter_identity_per_name(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_labels_flatten_sorted(self, registry):
        registry.counter("reqs", op="x", worker="1").inc()
        assert "reqs{op=x,worker=1}" in registry.snapshot()["counters"]

    def test_gauge_set_and_set_max(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.set_max(3)  # lower: no-op
        assert gauge.value == 7
        gauge.set_max(11)
        assert registry.snapshot()["gauges"]["depth"] == 11

    def test_histogram_observe_and_quantile(self, registry):
        hist = registry.histogram("lat")
        for value in (0.5, 1.0, 2.0, 100.0):
            hist.observe(value)
        data = registry.snapshot()["histograms"]["lat"]
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(103.5)
        assert sum(data["counts"]) == 4
        # p50 lands on a bucket bound covering the 1.0 observation
        assert 0.5 <= hist.quantile(0.5) <= 2.0

    def test_histogram_overflow_bucket(self, registry):
        hist = registry.histogram("big")
        hist.observe(10.0 ** 9)
        assert hist.counts[-1] == 1


class TestSnapshots:
    def test_merge_sums_counters_and_buckets_maxes_gauges(self, registry):
        other = m.MetricsRegistry()
        registry.counter("c").inc(2)
        other.counter("c").inc(5)
        registry.gauge("g").set(3)
        other.gauge("g").set(9)
        registry.histogram("h").observe(1.0)
        other.histogram("h").observe(1.0)
        merged = m.merge_snapshots([registry.snapshot(), other.snapshot(), {}])
        assert merged["counters"]["c"] == 7
        assert merged["gauges"]["g"] == 9
        assert merged["histograms"]["h"]["count"] == 2
        assert sum(merged["histograms"]["h"]["counts"]) == 2

    def test_histogram_summary(self, registry):
        hist = registry.histogram("h")
        for _ in range(10):
            hist.observe(4.0)
        summary = m.histogram_summary(registry.snapshot()["histograms"]["h"])
        assert summary["count"] == 10
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["p50"] is not None and summary["p50"] >= 4.0

    def test_summary_of_empty_histogram(self, registry):
        registry.histogram("empty")
        summary = m.histogram_summary(registry.snapshot()["histograms"]["empty"])
        assert summary["count"] == 0
        assert summary["mean"] is None and summary["p50"] is None

    def test_snapshot_is_json_safe(self, registry):
        import json

        registry.counter("c", op="x").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.5)
        json.dumps(registry.snapshot())  # must not raise


class TestPrometheus:
    def test_render_counters_gauges_histograms(self, registry):
        registry.counter("repro.pool.requests").inc(3)
        registry.gauge("repro.kernel.frontier_hwm").set(5)
        registry.histogram("repro.server.latency_ms", op="typecheck").observe(2.0)
        text = m.render_prometheus(registry.snapshot())
        assert "# TYPE repro_pool_requests counter" in text
        assert "repro_pool_requests 3" in text
        assert "repro_kernel_frontier_hwm 5" in text
        assert '# TYPE repro_server_latency_ms histogram' in text
        assert 'le="+Inf"' in text
        assert 'repro_server_latency_ms_count{op="typecheck"} 1' in text

    def test_bucket_counts_are_cumulative(self, registry):
        hist = registry.histogram("h")
        hist.observe(0.001)
        hist.observe(1000.0)
        text = m.render_prometheus(registry.snapshot())
        final = [
            line for line in text.splitlines() if line.startswith('h_bucket{le="+Inf"')
        ]
        assert final == ['h_bucket{le="+Inf"} 2']


class TestKernelSeam:
    def test_enable_swaps_metered_drain_and_disable_restores(self):
        from repro.kernel.product import ProductBFS

        plain = ProductBFS.drain
        assert not m.kernel_metrics_enabled()
        m.enable_kernel_metrics()
        try:
            assert m.kernel_metrics_enabled()
            assert ProductBFS.drain is ProductBFS._drain_metered
        finally:
            m.disable_kernel_metrics()
        assert not m.kernel_metrics_enabled()
        assert ProductBFS.drain is plain is ProductBFS._drain_plain

    def test_metered_drain_counts_kernel_work(self):
        from repro.core.forward import typecheck_forward
        from repro.workloads.families import nd_bc_family

        transducer, din, dout, expected = nd_bc_family(4)
        baseline = m.counter("repro.kernel.node_expansions").value
        m.enable_kernel_metrics()
        try:
            result = typecheck_forward(transducer, din, dout)
        finally:
            m.disable_kernel_metrics()
        assert result.typechecks == expected
        assert m.counter("repro.kernel.node_expansions").value > baseline
        assert m.gauge("repro.kernel.frontier_hwm").value >= 1

    def test_disabled_kernel_counters_do_not_move(self):
        from repro.core.forward import typecheck_forward
        from repro.core.session import clear_registry
        from repro.workloads.families import nd_bc_family

        clear_registry()
        transducer, din, dout, _ = nd_bc_family(5)
        before = m.counter("repro.kernel.node_expansions").value
        typecheck_forward(transducer, din, dout)
        assert m.counter("repro.kernel.node_expansions").value == before


class TestAbsorbedCounters:
    def test_session_registry_hits_and_misses(self):
        import repro
        from repro.core.session import clear_registry
        from repro.workloads.families import nd_bc_family

        clear_registry()
        _, din, dout, _ = nd_bc_family(6)
        hits = m.counter("repro.session.registry.hits").value
        misses = m.counter("repro.session.registry.misses").value
        repro.compile(din, dout, eager=False)
        assert m.counter("repro.session.registry.misses").value == misses + 1
        repro.compile(din, dout, eager=False)
        assert m.counter("repro.session.registry.hits").value == hits + 1

    def test_artifact_cache_hits_and_publishes(self, tmp_path):
        import repro
        from repro.core.session import clear_registry
        from repro.workloads.families import nd_bc_family

        _, din, dout, _ = nd_bc_family(7)
        publishes = m.counter("repro.cache.publishes").value
        hits = m.counter("repro.cache.hits").value
        clear_registry()
        repro.compile(din, dout, cache_dir=tmp_path).warm()
        assert m.counter("repro.cache.publishes").value > publishes
        clear_registry()
        repro.compile(din, dout, cache_dir=tmp_path)
        assert m.counter("repro.cache.hits").value > hits

    def test_forward_table_cache_hits(self):
        import repro
        from repro.core.session import clear_registry
        from repro.workloads.families import nd_bc_family

        clear_registry()  # the table cache lives on the session-shared schema
        transducer, din, dout, _ = nd_bc_family(4)
        session = repro.compile(din, dout, eager=False)
        hits = m.counter("repro.table_cache.hits", engine="forward")
        misses = m.counter("repro.table_cache.misses", engine="forward")
        hits_before, misses_before = hits.value, misses.value
        session.typecheck(transducer, method="forward")  # cold: miss
        session.typecheck(transducer, method="forward")  # warm: hit
        assert misses.value > misses_before
        assert hits.value > hits_before
