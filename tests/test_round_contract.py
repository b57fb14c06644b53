"""The per-round contract every execution schedule honours.

Each schedule ends a round by advancing the virtual clock, recording one
``IterationTiming``, logging the per-round series, updating the metrics
registry and emitting ``round_complete``.  This pins what that produces --
series names, event payload keys, instrument names and the cross-series
identities the paper's figures rely on -- so the round tail can be shared
or rearranged without any schedule's observable output drifting.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.api import RunSpec, Session

ROUND_SERIES = {"communication_elements", "communication_seconds", "density", "error",
                "k_global", "loss", "virtual_time"}
EPOCH_SERIES = {"cross_entropy", "epoch_density", "epoch_loss", "perplexity"}
ROUND_METRICS = {"density", "error", "k_global", "loss", "lr"}

CONTRACT = {
    "synchronous": {
        "series": {"partition_seconds", "selection_cost_analytic", "selection_seconds"},
        "payload": {"iteration", "metrics", "schedule", "virtual_time"},
        "metrics": {"k_local_mean"},
        "counters": {"exchanges_total", "iterations_total"},
        "histograms": {"communication_elements", "communication_seconds",
                       "selection_seconds", "union_size", "worker_idle_seconds"},
        "round_counter": "iterations_total",
    },
    "local_sgd": {
        "series": {"partition_seconds", "selection_seconds"},
        "payload": {"iteration", "metrics", "schedule", "sync", "virtual_time"},
        "metrics": set(),
        "counters": {"exchanges_total", "iterations_total", "sync_rounds_total"},
        "histograms": {"communication_elements", "communication_seconds",
                       "selection_seconds", "union_size"},
        "round_counter": "iterations_total",
    },
    "async_bsp": {
        "series": {"n_arrived", "selection_seconds", "staleness"},
        "payload": {"arrived", "iteration", "metrics", "schedule", "version", "virtual_time"},
        "metrics": {"n_arrived", "staleness"},
        "counters": {"rounds_total"},
        "histograms": {"arrivals_per_round", "comm_hops{op=pull}", "comm_hops{op=push}",
                       "staleness_observed"},
        "round_counter": "rounds_total",
    },
    "elastic": {
        "series": {"elastic_spread"},
        "payload": {"iteration", "metrics", "schedule", "sync", "virtual_time"},
        "metrics": {"elastic_spread"},
        "counters": {"iterations_total", "sync_rounds_total"},
        "histograms": {"comm_hops{op=pull}", "comm_hops{op=push}"},
        "round_counter": "iterations_total",
    },
    "gossip": {
        "series": {"selection_seconds"},
        "payload": {"iteration", "metrics", "schedule", "virtual_time"},
        "metrics": set(),
        "counters": {"iterations_total"},
        "histograms": {"comm_hops{op=send}", "communication_elements", "communication_seconds"},
        "round_counter": "iterations_total",
    },
}


def contract_spec(model: str) -> RunSpec:
    return RunSpec.from_dict({
        "workload": "lm",
        "cluster": {"n_workers": 3, "straggler_profile": "straggler"},
        "optimizer": {"epochs": 2, "max_iterations_per_epoch": 4},
        "compression": {"sparsifier": "deft", "density": 0.05},
        "execution": {"model": model},
        "observability": {"metrics": True},
    })


@pytest.fixture(scope="module", params=sorted(CONTRACT))
def run(request):
    model = request.param
    payloads = []
    result = Session().run(contract_spec(model), hooks={"round_complete": payloads.append})
    return model, result, payloads


def test_series_names(run):
    model, result, _ = run
    # series_names() first: series(name) would create a missing name.
    expected = ROUND_SERIES | EPOCH_SERIES | CONTRACT[model]["series"]
    assert result.logger.series_names() == sorted(expected)


def test_round_complete_payload_keys(run):
    model, result, payloads = run
    assert len(payloads) == result.iterations_run
    assert [p["iteration"] for p in payloads] == list(range(result.iterations_run))
    for payload in payloads:
        assert set(payload) == CONTRACT[model]["payload"]
        assert payload["schedule"] == model
        assert set(payload["metrics"]) == ROUND_METRICS | CONTRACT[model]["metrics"]


def test_payload_metrics_match_logged_series(run):
    _, result, payloads = run
    names = set(result.logger.series_names())
    for key in set(payloads[0]["metrics"]) & names:
        assert result.series(key).values == [p["metrics"][key] for p in payloads], key
    assert result.series("virtual_time").values == [p["virtual_time"] for p in payloads]


def test_instrument_names(run):
    model, result, _ = run
    snapshot = result.observability["metrics"]
    assert set(snapshot["counters"]) == CONTRACT[model]["counters"]
    assert set(snapshot["histograms"]) == CONTRACT[model]["histograms"]
    assert "virtual_time_seconds" in snapshot["gauges"]


def test_one_timing_per_round(run):
    _, result, _ = run
    assert len(result.timing) == result.iterations_run


def test_density_is_union_over_gradients(run):
    _, result, _ = run
    n_gradients = result.logger.metadata["n_gradients"]
    density = result.series("density").values
    k_global = result.series("k_global").values
    assert len(density) == len(k_global) == result.iterations_run
    for d, k in zip(density, k_global):
        assert d == k / n_gradients


def test_virtual_time_ends_at_estimated_wallclock(run):
    _, result, _ = run
    assert result.series("virtual_time").values[-1] == result.estimated_wallclock


def test_round_counters(run):
    model, result, payloads = run
    counters = result.observability["metrics"]["counters"]
    assert counters[CONTRACT[model]["round_counter"]] == result.iterations_run
    if "sync" in CONTRACT[model]["payload"]:
        sync_rounds = sum(1 for p in payloads if p["sync"])
        assert sync_rounds > 0
        assert counters["sync_rounds_total"] == sync_rounds


def _round_tail_calls(tree: ast.AST):
    """Names of the round-tail calls in a module: timing records, the error
    metric and ``round_complete`` emissions."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("IterationTiming", "mean_error_norm"):
            yield name
        elif (
            name == "emit"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "round_complete"
        ):
            yield "emit(round_complete)"


def test_round_tail_lives_only_in_finish_round():
    package = Path(repro.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        calls = sorted(set(_round_tail_calls(ast.parse(path.read_text(), filename=str(path)))))
        if calls:
            found[path.relative_to(package).as_posix()] = calls
    assert found == {
        "execution/base.py": ["IterationTiming", "emit(round_complete)", "mean_error_norm"]
    }
