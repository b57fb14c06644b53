"""Tests for the observability layer: metrics, events, spans, trace export.

The unit classes exercise the collaborators in isolation; the integration
classes drive real (tiny) training runs and check the recorded traces
against the execution schedules -- span nesting, src/dst tagging of comm
spans, virtual-clock reconciliation -- plus the two hard guarantees:
disabled runs are bit-identical to traced runs, and the observability
payload never leaks into the sweep cache's keys or entries.
"""

import json

import pytest

from repro.api import ObservabilitySpec, RunResult, RunSpec
from repro.api import run as api_run
from repro.api.spec import ClusterSpec, ExecutionSpec, OptimizerSpec
from repro.observability import (
    EVENTS,
    NULL_METRICS,
    NULL_TRACER,
    EventBus,
    MetricsRegistry,
    Observability,
    PHASES,
    SpanTracer,
)
from repro.sparsifiers import build_sparsifier
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer
from tests.conftest import make_smoke_lm_task


def small_spec(execution="synchronous", trace=True, metrics=False, seed=0, **cluster):
    cluster.setdefault("n_workers", 3)
    cluster.setdefault("straggler_profile", "lognormal")
    return RunSpec(
        workload="lm",
        scale="smoke",
        seed=seed,
        cluster=ClusterSpec(**cluster),
        optimizer=OptimizerSpec(epochs=1, max_iterations_per_epoch=3),
        execution=ExecutionSpec(model=execution),
        observability=ObservabilitySpec(trace=trace, metrics=metrics),
    )


def make_trainer(n_workers=2, iterations=3, **config_kwargs):
    task = make_smoke_lm_task()
    config = RunSpec.from_flat(
        n_workers=n_workers,
        batch_size=8,
        epochs=1,
        lr=0.2,
        seed=0,
        max_iterations_per_epoch=iterations,
        evaluate_each_epoch=False,
        **config_kwargs,
    ).resolve()
    return DistributedTrainer(task, build_sparsifier("deft", 0.05), config)


# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("iterations_total")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("virtual_time_seconds")
        gauge.set(1.5)
        gauge.add(0.5)
        assert gauge.value == 2.0

    def test_histogram_summary(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", op="push") is registry.histogram("h", op="push")

    def test_label_sets_are_distinct_instruments(self):
        registry = MetricsRegistry()
        push = registry.histogram("comm_hops", op="push")
        pull = registry.histogram("comm_hops", op="pull")
        assert push is not pull
        push.observe(2.0)
        assert pull.summary()["count"] == 0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c", x="1", y="2")
        b = registry.counter("c", y="2", x="1")
        assert a is b

    def test_snapshot_shape_and_rendered_names(self):
        registry = MetricsRegistry()
        registry.counter("runs_total").inc()
        registry.gauge("depth").set(4.0)
        registry.histogram("hops", op="send").observe(1.0)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["runs_total"] == 1.0
        assert snapshot["gauges"]["depth"] == 4.0
        assert snapshot["histograms"]["hops{op=send}"]["count"] == 1

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="x").inc()
        registry.histogram("h").observe(1.0)
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()

    def test_histogram_memory_bounded_by_reservoir(self):
        histogram = MetricsRegistry().histogram("latency")
        n = histogram.DEFAULT_MAX_OBSERVATIONS * 3
        for value in range(n):
            histogram.observe(float(value))
        summary = histogram.summary()
        # Exact aggregates survive the bound; the sample set does not grow.
        assert summary["count"] == n
        assert summary["min"] == 0.0
        assert summary["max"] == float(n - 1)
        assert summary["mean"] == pytest.approx((n - 1) / 2.0)
        assert summary["observations_kept"] == histogram.DEFAULT_MAX_OBSERVATIONS
        assert len(histogram.values) == histogram.DEFAULT_MAX_OBSERVATIONS
        # Reservoir quantiles stay representative of the uniform stream.
        assert summary["p50"] == pytest.approx(n / 2.0, rel=0.15)

    def test_histogram_below_cap_is_exact(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["observations_kept"] == 4
        assert summary["p50"] == 2.5

    def test_histogram_reservoir_deterministic_per_name(self):
        a = MetricsRegistry().histogram("latency", op="push")
        b = MetricsRegistry().histogram("latency", op="push")
        for value in range(10_000):
            a.observe(float(value))
            b.observe(float(value))
        assert a.values == b.values
        assert a.summary() == b.summary()

    def test_histogram_custom_cap(self):
        from repro.observability.metrics import Histogram

        histogram = Histogram("h", max_observations=16)
        for value in range(100):
            histogram.observe(float(value))
        assert len(histogram.values) == 16
        assert histogram.summary()["count"] == 100

    def test_null_registry_absorbs_everything(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.counter("anything", label="x").inc(5.0)
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.histogram("h").observe(2.0)
        snapshot = NULL_METRICS.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}


# ---------------------------------------------------------------------- #
class TestEventBus:
    def test_subscribe_emit_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe("round_complete", lambda p: seen.append(("a", p["n"])))
        bus.subscribe("round_complete", lambda p: seen.append(("b", p["n"])))
        bus.emit("round_complete", {"n": 1})
        assert seen == [("a", 1), ("b", 1)]

    def test_unsubscribe_thunk(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("push", seen.append)
        unsubscribe()
        bus.emit("push", {"n": 1})
        assert seen == []
        unsubscribe()  # idempotent

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            EventBus().subscribe("no_such_event", lambda p: None)

    def test_has_subscribers(self):
        bus = EventBus()
        assert not bus.has_subscribers("pull")
        off = bus.subscribe("pull", lambda p: None)
        assert bus.has_subscribers("pull")
        off()
        assert not bus.has_subscribers("pull")

    def test_emit_without_subscribers_is_noop(self):
        EventBus().emit("before_aggregation", {"x": 1})

    def test_event_vocabulary(self):
        assert set(EVENTS) == {
            "before_aggregation", "after_aggregation", "push", "pull",
            "round_complete",
        }


# ---------------------------------------------------------------------- #
class TestSpanTracer:
    def test_record_validates_phase(self):
        with pytest.raises(ValueError):
            SpanTracer().record("not_a_phase", "x", 0, None, 0.0, 1.0)

    def test_simulated_phase_totals_take_round_maximum(self):
        tracer = SpanTracer(n_workers=2)
        # Two overlapping compute spans in the same round: the slower one
        # is what the group waits for.
        tracer.record("compute", "fb", 0, 0, 0.0, 1.0)
        tracer.record("compute", "fb", 0, 1, 0.0, 3.0)
        tracer.record("compute", "fb", 1, 0, 3.5, 5.5)
        tracer.record("collective", "x", 0, None, 3.0, 3.5)
        totals = tracer.simulated_phase_totals()
        assert totals["compute"] == 3.0 + 2.0
        assert totals["collective"] == 0.5
        assert totals["push_pull"] == 0.0

    def test_chrome_trace_structure(self):
        tracer = SpanTracer(n_workers=2, run_name="demo")
        tracer.record("compute", "fb", 0, 1, 0.0, 0.25, host=(10.0, 10.5), k=3)
        tracer.record("collective", "xchg", 0, None, 0.25, 0.5)
        trace = tracer.to_chrome_trace(extra="yes")
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["n_spans"] == 2
        assert trace["otherData"]["extra"] == "yes"

        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        # Both timelines are named: 2 process rows + (group + 2 workers) each.
        assert len(meta) == 2 * (1 + 1 + 2)
        # The host-stamped span appears on both timelines, the virtual-only
        # span once.
        assert len(spans) == 3
        virtual = [e for e in spans if e["pid"] == 1]
        host = [e for e in spans if e["pid"] == 2]
        assert len(virtual) == 2 and len(host) == 1
        fb = next(e for e in virtual if e["name"] == "fb")
        assert fb["tid"] == 2  # worker 1 -> tid rank+1
        assert fb["ts"] == 0.0 and fb["dur"] == pytest.approx(0.25e6)
        assert fb["args"]["k"] == 3 and fb["args"]["iteration"] == 0
        group = next(e for e in virtual if e["name"] == "xchg")
        assert group["tid"] == 0  # group row

    def test_chrome_trace_json_round_trip(self):
        tracer = SpanTracer(n_workers=1, run_name="rt")
        tracer.record("eval", "evaluate", 2, None, 1.0, 1.0, host=(0.0, 0.1))
        trace = tracer.to_chrome_trace()
        assert json.loads(json.dumps(trace)) == trace

    def test_null_tracer_records_nothing(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.record("compute", "x", 0, 0, 0.0, 1.0) is None
        assert len(NULL_TRACER) == 0

    def test_phases_vocabulary(self):
        assert set(PHASES) == {
            "compute", "sparsify", "encode", "collective", "push_pull",
            "aggregate", "eval",
        }


# ---------------------------------------------------------------------- #
class TestObservabilityHub:
    def test_disabled_by_default(self):
        obs = Observability()
        assert not obs.enabled
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is NULL_METRICS
        assert obs.snapshot() is None

    def test_spec_flags_select_collaborators(self):
        obs = Observability(ObservabilitySpec(trace=True), n_workers=4)
        assert obs.trace_enabled and not obs.metrics_enabled
        assert obs.tracer is not NULL_TRACER
        assert obs.tracer.n_workers == 4
        assert obs.metrics is NULL_METRICS

    def test_bus_is_always_live(self):
        seen = []
        obs = Observability()  # fully disabled
        obs.events.subscribe("round_complete", seen.append)
        obs.events.emit("round_complete", {"n": 0})
        assert seen == [{"n": 0}]

    def test_observability_spec_enabled_property(self):
        assert not ObservabilitySpec().enabled
        assert ObservabilitySpec(trace=True).enabled
        assert ObservabilitySpec(metrics=True).enabled


# ---------------------------------------------------------------------- #
class TestTraceIntegration:
    def test_lockstep_trace_reconciles_with_virtual_clock(self):
        for execution in ("synchronous", "local_sgd", "gossip"):
            result = api_run(small_spec(execution=execution))
            totals = result.observability["trace"]["otherData"]["simulated_phase_totals"]
            on_clock = totals["compute"] + totals["collective"] + totals["push_pull"]
            assert on_clock == pytest.approx(result.estimated_wallclock, abs=1e-12), execution

    def test_span_nesting_matches_synchronous_schedule(self):
        result = api_run(small_spec())
        spans = result.observability["trace"]["traceEvents"]
        virtual = [e for e in spans if e.get("ph") == "X" and e["pid"] == 1]
        n_workers, iterations = 3, result.iterations_run
        compute = [e for e in virtual if e["cat"] == "compute"]
        collective = [e for e in virtual if e["cat"] == "collective"]
        sparsify = [e for e in virtual if e["cat"] == "sparsify"]
        evals = [e for e in virtual if e["cat"] == "eval"]
        assert len(compute) == n_workers * iterations
        assert len(collective) == iterations
        assert len(sparsify) == n_workers * iterations
        assert len(evals) == 1  # one epoch
        # Within one iteration the collective starts when the slowest
        # worker's compute ends, and every selection sits at that sync point.
        it0_compute = [e for e in compute if e["args"]["iteration"] == 0]
        it0_collective = next(e for e in collective if e["args"]["iteration"] == 0)
        slowest_end = max(e["ts"] + e["dur"] for e in it0_compute)
        assert it0_collective["ts"] == pytest.approx(slowest_end)
        for e in sparsify:
            if e["args"]["iteration"] == 0:
                assert e["ts"] == pytest.approx(slowest_end)

    def test_gossip_spans_are_src_dst_tagged(self):
        result = api_run(small_spec(execution="gossip", n_workers=4))
        spans = result.observability["trace"]["traceEvents"]
        messages = [
            e for e in spans
            if e.get("ph") == "X" and e["pid"] == 1 and e["name"] == "gossip_message"
        ]
        assert messages
        for e in messages:
            assert e["args"]["dst"] == e["tid"] - 1  # receiver's worker row
            assert 0 <= e["args"]["src"] < 4
            assert e["args"]["src"] != e["args"]["dst"]
        # On a 4-ring each worker hears from both neighbours every round.
        it0 = [e for e in messages if e["args"]["iteration"] == 0]
        assert len(it0) == 4 * 2

    def test_async_bsp_push_pull_spans_are_src_dst_tagged(self):
        result = api_run(small_spec(execution="async_bsp"))
        spans = result.observability["trace"]["traceEvents"]
        pushes = [
            e for e in spans
            if e.get("ph") == "X" and e["pid"] == 1 and e["name"] == "push"
        ]
        pulls = [
            e for e in spans
            if e.get("ph") == "X" and e["pid"] == 1 and e["name"] == "pull"
        ]
        assert pushes and pulls
        for e in pushes:
            assert e["args"]["src"] == e["tid"] - 1
            assert e["args"]["dst"] == "server"
        for e in pulls:
            assert e["args"]["src"] == "server"
            assert e["args"]["dst"] == e["tid"] - 1

    def test_host_timeline_present(self):
        result = api_run(small_spec())
        spans = result.observability["trace"]["traceEvents"]
        host_compute = [
            e for e in spans
            if e.get("ph") == "X" and e["pid"] == 2 and e["cat"] == "compute"
        ]
        assert host_compute
        assert all(e["dur"] > 0 for e in host_compute)

    def test_trace_payload_round_trips_through_run_result(self):
        result = api_run(small_spec(metrics=True))
        data = result.to_dict()
        assert "observability" in data
        rehydrated = RunResult.from_dict(json.loads(json.dumps(data)))
        assert rehydrated.observability == json.loads(json.dumps(result.observability))

    def test_disabled_run_has_no_observability_payload(self):
        result = api_run(small_spec(trace=False, metrics=False))
        assert result.observability is None
        assert "observability" not in result.to_dict()

    def test_disabled_and_traced_runs_are_bit_identical(self):
        plain = api_run(small_spec(trace=False, metrics=False, seed=7))
        traced = api_run(small_spec(trace=True, metrics=True, seed=7))
        assert plain.final_metrics == traced.final_metrics
        assert plain.series("loss").values == traced.series("loss").values
        assert plain.estimated_wallclock == traced.estimated_wallclock


# ---------------------------------------------------------------------- #
class TestMetricsIntegration:
    def test_trainer_metrics_snapshot(self):
        result = api_run(small_spec(trace=False, metrics=True))
        snapshot = result.observability["metrics"]
        assert snapshot["counters"]["iterations_total"] == result.iterations_run
        assert snapshot["gauges"]["virtual_time_seconds"] == pytest.approx(
            result.estimated_wallclock
        )
        assert snapshot["histograms"]["communication_seconds"]["count"] == result.iterations_run
        assert snapshot["histograms"]["worker_idle_seconds"]["count"] == 3 * result.iterations_run

    def test_async_bsp_staleness_metrics(self):
        result = api_run(small_spec(execution="async_bsp", trace=False, metrics=True))
        snapshot = result.observability["metrics"]
        assert snapshot["counters"]["rounds_total"] == result.iterations_run
        assert snapshot["histograms"]["staleness_observed"]["count"] > 0
        assert snapshot["histograms"]["arrivals_per_round"]["count"] == result.iterations_run

    def test_topology_hops_histogram(self):
        result = api_run(
            small_spec(execution="gossip", trace=False, metrics=True,
                       n_workers=4, topology="ring")
        )
        hops = result.observability["metrics"]["histograms"]["comm_hops{op=send}"]
        assert hops["count"] > 0
        assert hops["max"] == 1.0  # ring neighbours are one hop apart


# ---------------------------------------------------------------------- #
class TestEventIntegration:
    def test_aggregation_and_round_hooks_fire_in_lockstep_run(self):
        trainer = make_trainer(n_workers=2, iterations=3)
        counts = {"before": 0, "after": 0, "rounds": []}
        trainer.obs.events.subscribe(
            "before_aggregation",
            lambda p: counts.__setitem__("before", counts["before"] + 1),
        )
        trainer.obs.events.subscribe(
            "after_aggregation",
            lambda p: counts.__setitem__("after", counts["after"] + 1),
        )
        trainer.obs.events.subscribe(
            "round_complete", lambda p: counts["rounds"].append(p["iteration"])
        )
        result = trainer.train()
        assert counts["before"] == result.iterations_run
        assert counts["after"] == result.iterations_run
        assert counts["rounds"] == list(range(result.iterations_run))

    def test_before_aggregation_payload_carries_contributions(self):
        trainer = make_trainer(n_workers=2, iterations=1)
        payloads = []
        trainer.obs.events.subscribe("before_aggregation", payloads.append)
        trainer.train()
        (payload,) = payloads
        assert payload["contributions"].shape[0] == 2
        assert payload["contributions"].shape[1] == payload["indices"].shape[0]

    def test_push_pull_hooks_fire_under_async_bsp(self):
        trainer = make_trainer(n_workers=2, iterations=2, execution="async_bsp")
        pushes, pulls = [], []
        trainer.obs.events.subscribe("push", pushes.append)
        trainer.obs.events.subscribe("pull", pulls.append)
        trainer.train()
        assert pushes and len(pushes) == len(pulls)
        assert all(0 <= p["worker"] < 2 for p in pushes)

    def test_hooks_fire_even_with_observability_disabled(self):
        # The bus is live on every run -- no flags needed to subscribe.
        trainer = make_trainer(n_workers=2, iterations=2)
        assert trainer.obs.enabled is False
        seen = []
        trainer.obs.events.subscribe("round_complete", seen.append)
        trainer.train()
        assert len(seen) == 2


# ---------------------------------------------------------------------- #
class TestCacheInteraction:
    def test_spec_key_ignores_observability(self):
        from repro.sweep.cache import spec_key

        base = small_spec(trace=False, metrics=False)
        traced = small_spec(trace=True, metrics=True)
        assert spec_key(base) == spec_key(traced)

    def test_cache_entry_strips_observability_payload(self, tmp_path):
        from repro.sweep.cache import ResultCache

        result = api_run(small_spec(metrics=True))
        assert result.observability is not None
        cache = ResultCache(root=tmp_path)
        path = cache.put(result.spec, result)
        stored = json.loads(path.read_text())
        assert "observability" not in stored["result"]
        hit = cache.get(result.spec)
        assert hit is not None
        assert hit.observability is None
        assert hit.final_metrics == result.final_metrics

    def test_traced_spec_hits_untraced_entry(self, tmp_path):
        from repro.sweep.cache import ResultCache

        cache = ResultCache(root=tmp_path)
        plain = api_run(small_spec(trace=False, metrics=False))
        cache.put(plain.spec, plain)
        hit = cache.get(small_spec(trace=True, metrics=True).resolve())
        assert hit is not None
        assert hit.final_metrics == plain.final_metrics
