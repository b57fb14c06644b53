"""Self-check of the layered benchmark (collected by the tier-1 suite).

Runs ``bench/run.py --quick`` once -- every workload, untraced and traced,
at about a twentieth of its length -- and asserts structure only: every name
``BENCHMARK.json`` declares is reported with a finite value, every
correctness check inside the run passed, and no trace target went missing at
this commit.  Nothing here depends on how fast the host is.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One quick run of all workloads: two halves side by side, no timing asserted."""
    out = tmp_path_factory.mktemp("bench-quick")
    runs = []
    for index, half in enumerate((WORKLOADS[0::2], WORKLOADS[1::2])):
        command = [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out / f"half{index}.json")]
        for name in half:
            command += ["--workload", name]
        runs.append(
            subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        )
    report = {"workloads": {}}
    for index, run in enumerate(runs):
        output, _ = run.communicate(timeout=600)
        assert run.returncode == 0, output
        half = json.loads((out / f"half{index}.json").read_text())
        report["workloads"].update(half["workloads"])
        report.update({key: value for key, value in half.items() if key != "workloads"})
    (out / "quick.json").write_text(json.dumps(report))
    report["path"] = out / "quick.json"
    return report


def test_benchmark_json_meets_the_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert SPEC["paths"] == ["bench"] and SPEC["command"][-1].startswith("bench/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in SPEC[group]]
        assert len(set(names)) == len(names) and all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])


def test_every_declared_metric_is_reported(quick_report):
    assert sorted(quick_report["workloads"]) == sorted(WORKLOADS)
    for name, entry in quick_report["workloads"].items():
        for mode, declared in (("untraced", SPEC["end_to_end"]), ("traced", SPEC["per_layer"])):
            metrics = entry[mode]["metrics"]
            assert sorted(metrics) == sorted(metric["name"] for metric in declared), (name, mode)
            for metric in declared:
                value = metrics[metric["name"]]
                assert value["unit"] == metric["unit"]
                assert math.isfinite(value["value"]), (name, metric["name"])
                if mode == "untraced":
                    assert value["value"] != 0, (name, metric["name"])


def test_every_check_passed_and_every_trace_target_resolved(quick_report):
    for name, entry in quick_report["workloads"].items():
        for mode in ("untraced", "traced"):
            assert entry[mode]["correct"], (name, mode, entry[mode]["problems"])
            assert entry[mode]["failed"] == 0 and entry[mode]["attempted"] >= 1
        assert entry["traced"]["unresolved_targets"] == [], name
        assert entry["traced"]["metrics"]["trace.unresolved_targets"]["value"] == 0


def test_layers_show_only_on_the_workloads_that_enter_them(quick_report):
    def calls(workload: str, span: str) -> float:
        return quick_report["workloads"][workload]["traced"]["metrics"][f"{span}.calls_per_op"]["value"]

    for workload in ("cv_sync", "rec_wide", "select_scale"):
        assert calls(workload, "nn.lstm.forward") == 0
    for workload in ("lm_sync", "lm_async", "rec_wide", "sweep_smoke", "select_scale"):
        assert calls(workload, "nn.conv2d.forward") == 0
    assert calls("lm_sync", "nn.lstm.forward") > 0 and calls("cv_sync", "nn.conv2d.forward") > 0
    assert calls("lm_async", "comm.push_pull") > 0 and calls("lm_sync", "comm.push_pull") == 0
    assert calls("sweep_smoke", "attacks.corrupt") > 0 and calls("sweep_smoke", "sweep.cache_get") > 0
    sweep = quick_report["workloads"]["sweep_smoke"]["traced"]["metrics"]
    assert sweep["sweep.cached_pass_cells_run"]["value"] == 0
    select = quick_report["workloads"]["select_scale"]["traced"]["metrics"]
    assert select["sparsifiers.probe.deft_vs_topk_n16_speedup"]["value"] > 0
    for entry in quick_report["workloads"].values():
        assert entry["traced"]["metrics"]["trace.attributed_frac"]["value"] > 0.5


def test_compare_accepts_a_run_against_itself(quick_report):
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(quick_report["path"]), str(quick_report["path"])],
        capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    assert "regressed" not in done.stdout and done.stdout.count(" ok") >= len(WORKLOADS) * len(SPEC["end_to_end"])


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_bench_sources_pass_ruff():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed in this environment")
    done = subprocess.run([ruff, "check", str(BENCH)], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
