"""Per-query attribution: DeltaScope, gauge merge policies, QueryReport."""

import json

import pytest

import repro
from repro.core.session import Session, clear_registry
from repro.obs import explain as ex
from repro.obs import metrics as m
from repro.workloads.families import filtering_family, nd_bc_family


@pytest.fixture()
def registry():
    return m.MetricsRegistry()


class TestGaugePolicies:
    def test_policy_fixed_at_registration(self, registry):
        assert registry.gauge("g.sum", policy="sum").policy == "sum"
        # Re-fetching without a policy keeps the registered one.
        assert registry.gauge("g.sum").policy == "sum"
        assert registry.gauge("g.default").policy == "max"

    def test_unknown_policy_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.gauge("bad", policy="average")

    def test_snapshot_carries_nondefault_policies_only(self, registry):
        registry.gauge("hwm").set(3)
        registry.gauge("inflight", policy="sum").set(2)
        registry.gauge("rate", policy="last").set(0.5)
        snap = registry.snapshot()
        assert snap["gauge_policies"] == {"inflight": "sum", "rate": "last"}
        json.dumps(snap)  # still JSON-safe

    def test_merge_applies_policies(self, registry):
        other = m.MetricsRegistry()
        for reg, hwm, inflight, rate in ((registry, 5, 2, 0.1), (other, 3, 4, 0.9)):
            reg.gauge("hwm").set(hwm)
            reg.gauge("inflight", policy="sum").set(inflight)
            reg.gauge("rate", policy="last").set(rate)
        merged = m.merge_snapshots([registry.snapshot(), other.snapshot()])
        assert merged["gauges"]["hwm"] == 5  # max (default)
        assert merged["gauges"]["inflight"] == 6  # sum
        assert merged["gauges"]["rate"] == pytest.approx(0.9)  # last wins
        # Policies survive so a merge of merges stays correct.
        assert merged["gauge_policies"]["inflight"] == "sum"
        remerged = m.merge_snapshots([merged, other.snapshot()])
        assert remerged["gauges"]["inflight"] == 10

    def test_old_snapshots_without_policies_merge_as_max(self, registry):
        registry.gauge("g").set(7)
        legacy = {"counters": {}, "gauges": {"g": 9}, "histograms": {}}
        merged = m.merge_snapshots([registry.snapshot(), legacy])
        assert merged["gauges"]["g"] == 9


class TestDeltaScope:
    def test_counter_deltas_without_resetting_globals(self, registry):
        registry.counter("repro.kernel.node_expansions").inc(100)
        registry.counter("repro.other.stuff").inc(5)
        with registry.delta_scope() as scope:
            registry.counter("repro.kernel.node_expansions").inc(7)
            registry.counter("repro.kernel.cells_created").inc(3)
            registry.counter("repro.other.stuff").inc(1)
        assert scope.counters == {
            "repro.kernel.node_expansions": 7,
            "repro.kernel.cells_created": 3,
        }
        # Globals kept their full history — nothing was double-metered.
        assert registry.counter("repro.kernel.node_expansions").value == 107

    def test_hwm_gauge_scoped_and_restored(self, registry):
        gauge = registry.gauge("repro.kernel.frontier_hwm")
        gauge.set_max(50)  # process-lifetime high-water before the query
        with registry.delta_scope() as scope:
            registry.gauge("repro.kernel.frontier_hwm").set_max(12)
        assert scope.gauges["repro.kernel.frontier_hwm"] == 12
        # The lifetime max survives the smaller per-query observation.
        assert gauge.value == 50
        with registry.delta_scope() as scope:
            registry.gauge("repro.kernel.frontier_hwm").set_max(80)
        assert scope.gauges["repro.kernel.frontier_hwm"] == 80
        assert gauge.value == 80


class TestQueryReport:
    def test_typecheck_explain_report(self):
        clear_registry()
        transducer, din, dout, expected = nd_bc_family(6, typechecks=True)
        session = Session(din, dout, eager=False)
        result = session.typecheck(transducer, method="auto", explain=True)
        assert result.typechecks == expected
        report = result.report
        assert report is not None
        assert report.kind == "typecheck"
        assert report.method == "auto"
        assert report.engine in report.engines
        assert report.engines[report.engine]["measured_ms"] > 0
        assert report.measured_ms > 0
        # Kernel counters were captured for this query alone.
        assert report.kernel.get("node_expansions", 0) > 0
        data = report.to_dict()
        json.dumps(data)  # wire/log form is JSON-safe
        assert data["verdict"]["typechecks"] is True
        assert "explain:" in report.render()

    def test_explain_off_attaches_no_report(self):
        clear_registry()
        transducer, din, dout, _ = nd_bc_family(4)
        session = Session(din, dout, eager=False)
        result = session.typecheck(transducer)
        assert result.report is None

    def test_report_carries_only_the_engine_that_ran(self):
        """Auto routes by schema class and prices nothing, so a regex
        DTD pair's report names ``backward`` alone, measured."""
        clear_registry()
        transducer, din, dout, _ = filtering_family(5)
        session = Session(din, dout, eager=False)
        report = session.typecheck(transducer, explain=True).report
        assert report.engine == "backward"
        assert set(report.engines) == {"backward"}
        assert set(report.engines["backward"]) == {"measured_ms"}

    def test_retypecheck_explain_reports_mode(self):
        clear_registry()
        transducer, din, dout, _ = nd_bc_family(5)
        session = Session(din, dout, eager=False)
        session.typecheck(transducer)
        result = session.retypecheck(transducer, transducer, explain=True)
        report = result.report
        assert report.kind == "retypecheck"
        plain = session.typecheck(transducer, explain=True).report
        assert (report.engine, report.verdict) == (plain.engine, plain.verdict)

    def test_query_scope_restores_kernel_metering(self):
        was = m.kernel_metrics_enabled()
        if was:
            m.disable_kernel_metrics()
        try:
            with ex.query_scope():
                assert m.kernel_metrics_enabled()
            assert not m.kernel_metrics_enabled()
        finally:
            if was:
                m.enable_kernel_metrics()


class TestTableCacheEngineLabels:
    def test_both_metric_names_increment(self):
        """The miss and the hit counter both increment under the
        per-engine label; the flat ``repro.<engine>.table_cache.*`` names
        are gone."""
        clear_registry()
        transducer, din, dout, _ = nd_bc_family(4)
        session = repro.compile(din, dout, eager=False)
        before = {
            name: m.counter(name).value
            for name in (
                "repro.table_cache.misses{engine=forward}",
                "repro.table_cache.hits{engine=forward}",
            )
        }
        session.typecheck(transducer, method="forward")  # cold: miss
        session.typecheck(transducer, method="forward")  # warm: hit
        for name, value in before.items():
            assert m.counter(name).value > value, name
        flat = [
            key for key in m.snapshot()["counters"]
            if key.startswith("repro.forward.table_cache.")
        ]
        assert flat == []

    def test_backward_miss_and_hit_counted(self):
        clear_registry()
        transducer, din, dout, _ = nd_bc_family(4)
        session = repro.compile(din, dout, eager=False)
        before = {
            name: m.counter(name).value
            for name in (
                "repro.table_cache.misses{engine=backward}",
                "repro.table_cache.hits{engine=backward}",
            )
        }
        session.typecheck(transducer, method="backward")
        session.typecheck(transducer, method="backward")
        for name, value in before.items():
            assert m.counter(name).value > value, name
