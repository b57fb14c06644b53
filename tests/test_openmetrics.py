"""Tests for the OpenMetrics exposition and the live round monitor."""

import io
import json

import pytest

from repro.api import RunSpec, Session
from repro.observability import (
    LiveMonitor,
    MetricsRegistry,
    parse_openmetrics,
    render_openmetrics,
)


def tiny_spec(**overrides) -> RunSpec:
    base = {
        "workload": "lm",
        "cluster": {"n_workers": 2},
        "optimizer": {"epochs": 1, "max_iterations_per_epoch": 3},
        "compression": {"sparsifier": "deft", "density": 0.05},
    }
    data = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            merged = dict(data[key])
            merged.update(value)
            data[key] = merged
        else:
            data[key] = value
    return RunSpec.from_dict(data)


def sample_snapshot() -> dict:
    registry = MetricsRegistry()
    registry.counter("iterations").inc(4)
    registry.counter("cache", outcome="hit").inc(2)
    registry.counter("cache", outcome="miss").inc(1)
    registry.gauge("virtual_time_seconds").set(1.5)
    hist = registry.histogram("latency_seconds", source="run")
    for value in (0.1, 0.2, 0.3, 0.4):
        hist.observe(value)
    return registry.snapshot()


# ---------------------------------------------------------------------- #
class TestRender:
    def test_ends_with_eof(self):
        text = render_openmetrics(sample_snapshot())
        assert text.endswith("# EOF\n")

    def test_counters_normalised_to_total(self):
        text = render_openmetrics(sample_snapshot())
        assert "# TYPE iterations counter" in text
        assert "iterations_total 4.0" in text

    def test_labelled_counters_share_one_family(self):
        text = render_openmetrics(sample_snapshot())
        assert text.count("# TYPE cache counter") == 1
        assert 'cache_total{outcome="hit"} 2.0' in text
        assert 'cache_total{outcome="miss"} 1.0' in text

    def test_histogram_as_summary_with_quantiles(self):
        text = render_openmetrics(sample_snapshot())
        assert "# TYPE latency_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert 'quantile="0.99"' in text
        assert 'latency_seconds_count{source="run"} 4.0' in text

    def test_prefix_prepended(self):
        text = render_openmetrics(sample_snapshot(), prefix="repro_")
        assert "repro_iterations_total 4.0" in text
        assert "# TYPE repro_latency_seconds summary" in text

    def test_empty_snapshot_is_just_eof(self):
        assert render_openmetrics({}) == "# EOF\n"


class TestParseRoundTrip:
    def test_round_trip_values(self):
        snapshot = sample_snapshot()
        parsed = parse_openmetrics(render_openmetrics(snapshot))
        assert parsed.families["iterations"] == "counter"
        assert parsed.families["virtual_time_seconds"] == "gauge"
        assert parsed.families["latency_seconds"] == "summary"
        assert parsed.value("iterations_total") == 4.0
        assert parsed.value("cache_total", outcome="hit") == 2.0
        assert parsed.value("virtual_time_seconds") == 1.5
        assert parsed.value(
            "latency_seconds_count", source="run"
        ) == 4.0
        # sum = mean * count, exact for the reservoir-backed histogram
        assert parsed.value("latency_seconds_sum", source="run") == pytest.approx(1.0)
        assert parsed.value(
            "latency_seconds", source="run", quantile="0.5"
        ) == pytest.approx(0.25)

    def test_label_escaping_round_trips(self):
        snapshot = {
            "gauges": {'g{path=a\\b,msg=x"y}': 1.0},
        }
        parsed = parse_openmetrics(render_openmetrics(snapshot))
        assert parsed.value("g", path="a\\b", msg='x"y') == 1.0

    def test_missing_eof_raises(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("iterations_total 4.0\n")

    def test_content_after_eof_raises(self):
        with pytest.raises(ValueError, match="after"):
            parse_openmetrics("# EOF\niterations_total 4.0\n")

    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_openmetrics("!!! not a line\n# EOF\n")

    def test_value_returns_none_for_unknown(self):
        parsed = parse_openmetrics(render_openmetrics(sample_snapshot()))
        assert parsed.value("nope_total") is None
        assert parsed.value("iterations_total", extra="label") is None


class TestRunSnapshotRenders:
    def test_real_run_snapshot_parses(self):
        spec = tiny_spec(observability={"metrics": True})
        result = Session().run(spec)
        snapshot = result.observability["metrics"]
        parsed = parse_openmetrics(render_openmetrics(snapshot))
        assert parsed.value("iterations_total") == float(result.iterations_run)


# ---------------------------------------------------------------------- #
class TestLiveMonitor:
    def test_one_line_per_round(self):
        stream = io.StringIO()
        monitor = LiveMonitor(stream)
        result = Session().run(tiny_spec(), hooks=monitor.hooks())
        lines = stream.getvalue().splitlines()
        assert len(lines) == result.iterations_run
        assert monitor.rounds == result.iterations_run
        records = [json.loads(line) for line in lines]
        assert [r["round"] for r in records] == list(range(len(records)))
        assert all(r["schedule"] == "synchronous" for r in records)
        assert all(r["staleness_p95"] is None for r in records)
        # Virtual time advances monotonically round over round.
        times = [r["virtual_time"] for r in records]
        assert times == sorted(times)
        assert records[-1]["loss"] == pytest.approx(
            result.series("loss").values[-1]
        )

    def test_async_bsp_reports_staleness(self):
        stream = io.StringIO()
        monitor = LiveMonitor(stream)
        spec = tiny_spec(
            cluster={"n_workers": 4, "straggler_profile": "lognormal"},
            execution={"model": "async_bsp"},
        )
        Session().run(spec, hooks=monitor.hooks())
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert records
        assert all(r["schedule"] == "async_bsp" for r in records)
        assert all(isinstance(r["staleness_p95"], float) for r in records)

    def test_monitor_does_not_perturb_training(self):
        plain = Session().run(tiny_spec())
        monitored = Session().run(
            tiny_spec(), hooks=LiveMonitor(io.StringIO()).hooks()
        )
        assert plain.final_metrics == monitored.final_metrics
        assert plain.estimated_wallclock == monitored.estimated_wallclock

    def test_hook_sequences_accepted(self):
        seen = []
        Session().run(
            tiny_spec(),
            hooks={"round_complete": [seen.append, lambda p: None]},
        )
        assert len(seen) == 3
