"""The layered benchmark: one command for every end-to-end and per-layer metric.

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --quick               # the same at ~1/20 length (self-test)
    python3 bench/run.py --workload lm_sync --seed 3 --seconds 12 --trace 0

Each selected workload runs in fresh child interpreters (``child.py``) with
BLAS/OpenMP threads pinned to one: first untraced, for the end-to-end
metrics of ``BENCHMARK.json``, then traced, for its per-layer metrics.
``--trace 0`` / ``--trace 1`` keep one of the two.  With one workload and one
of the two, the last line of standard output is the result object a driver
reads: ``{"correct", "attempted", "failed", "metrics"}``.

The run exits non-zero when a correctness check fails, and before measuring
anything when the program under ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]

#: One process, one thread: the 2-core shared host gives nothing steadier.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: Fresh launches whose median is ``setup_s`` (after one discarded launch
#: that compiles ``__pycache__`` and warms the file cache).
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 150
#: The simulated statistics: with a fixed seed they repeat exactly.
SIMULATED = ("loss_final", "density_actual", "sent_elements_per_op", "virtual_ms_per_op")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed check)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def launch(mode: str, workload: str, seed: int, seconds: float, trace: int, quick: bool, out_dir: Path) -> dict:
    """Run one child interpreter to completion and return its result object."""
    command = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--mode", mode, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--trace", str(trace),
        "--quick", str(int(quick)), "--out-dir", str(out_dir),
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: {mode} launch exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: {mode} launch exited with code {done.returncode}")
    return json.loads(lines[-1])


def cli_cold_start(repeats: int) -> float:
    """Median wall seconds of ``python -m repro list`` in a fresh interpreter."""
    env = child_env()
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            subprocess.run(
                [sys.executable, "-m", "repro", "list"], cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S,
            )  # fmt: skip
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchmarkError(f"`python -m repro list` did not complete: {exc}") from exc
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _with_units(values: Dict[str, Optional[float]], declared: List[dict]) -> Dict[str, dict]:
    """``name -> {"value", "unit"}`` for exactly the metrics BENCHMARK.json names."""
    out = {}
    for entry in declared:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            raise BenchmarkError(f"metric {entry['name']} has no finite value ({value!r})")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def _verdict(phases: List[dict]) -> dict:
    """Attempted/failed operations; a broken invariant fails every one."""
    attempted = sum(phase["planned"] for phase in phases)
    failed = sum(phase["planned"] - phase["completed"] for phase in phases)
    problems = [problem for phase in phases for problem in phase["problems"]]
    if problems:
        failed = attempted
    return {
        "correct": not problems and failed == 0,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "problems": problems,
    }


def run_untraced(workload: str, seed: int, seconds: float, quick: bool, out_dir: Path) -> dict:
    samples = []
    if not quick:
        launch("setup", workload, seed, seconds, 0, quick, out_dir)
        for _ in range(SETUP_LAUNCHES - 1):
            samples.append(launch("setup", workload, seed, seconds, 0, quick, out_dir)["setup"]["setup_s"])
    doc = launch("measure", workload, seed, seconds, 0, quick, out_dir)
    samples.append(doc["setup"]["setup_s"])
    phase = doc["untraced"]
    ops = max(phase["block_ops"], 1)
    values = {
        "op_ms_p50": phase["op_ms_p50"],
        "op_ms_p90": phase["op_ms_p90"],
        "ops_per_s": phase["ops_per_s"],
        "setup_s": statistics.median(samples),
        "peak_rss_mb": doc["peak_rss_mb"],
        "loss_final": phase["loss_final"],
        "density_actual": phase["density_actual"],
        "sent_elements_per_op": phase["sent_elements"] / ops,
        "virtual_ms_per_op": phase["virtual_s"] * 1e3 / ops,
    }
    result = _verdict([phase])
    result.update(
        metrics=_with_units(values, SPEC["end_to_end"]),
        samples=phase["samples"],
        blocks=phase["blocks"],
        setup_samples=samples,
        fingerprint=phase["fingerprint"],
    )
    return result


def run_traced(workload: str, seed: int, seconds: float, quick: bool, out_dir: Path) -> dict:
    if not quick:
        launch("setup", workload, seed, seconds, 0, quick, out_dir)
    doc = launch("measure", workload, seed, seconds, 1, quick, out_dir)
    values = dict(doc["per_layer"])
    values["cli.cold_start_s"] = cli_cold_start(1 if quick else 5)
    for entry in SPEC["per_layer"]:
        # A layer that did not run on this workload spent no time in it.
        values.setdefault(entry["name"], 0.0)
    result = _verdict([doc["untraced"], doc["traced"]])
    result.update(
        metrics=_with_units(values, SPEC["per_layer"]),
        samples=doc["traced"]["samples"],
        blocks=doc["traced"]["blocks"],
        unresolved_targets=doc["unresolved_targets"],
        fingerprint=doc["traced"]["fingerprint"],
    )
    return result


# ---------------------------------------------------------------------- #
def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": THREAD_ENV,
        "git_commit": commit,
    }


def reference_drift(workload: str, seed: int, quick: bool, metrics: Dict[str, dict]) -> Optional[dict]:
    """Relative drift of the simulated statistics against the committed seed-0 run."""
    baseline_path = BENCH_DIR / "baseline.json"
    if seed != 0 or quick or not baseline_path.is_file():
        return None
    baseline = json.loads(baseline_path.read_text())["workloads"].get(workload, {}).get("untraced")
    if not baseline:
        return None
    return {
        name: metrics[name]["value"] / baseline["metrics"][name]["value"] - 1.0
        for name in SIMULATED
        if name in baseline["metrics"]
    }


def print_table(workload: str, mode: str, result: dict, declared: List[dict]) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(
        f"== {workload} [{mode}] {status}: {result['attempted']} ops attempted, "
        f"{result['failed']} failed, {result['samples']} timed over {result['blocks']} blocks"
    )
    hidden = 0
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        if "bound" not in entry and metric["value"] == 0:
            hidden += 1  # a layer this workload never entered
            continue
        bound = f"  bound {entry['bound']:.0%}" if "bound" in entry else ""
        arrow = "lower" if entry["better"] == "lower" else "higher"
        print(f"  {entry['name']:<48} {metric['value']:>16.6g} {metric['unit']:<9} ({arrow} is better{bound})")
    if hidden:
        print(f"  ({hidden} per-layer metrics are 0 on this workload: layers it does not enter)")
    drift = result.get("reference_drift")
    if drift:
        moved = {name: f"{value:+.3%}" for name, value in drift.items() if value}
        print(f"  reference (seed 0): {'identical' if not moved else moved}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for target in result.get("unresolved_targets", []):
        print(f"  unresolved trace target: {target}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES, help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring window per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, choices=(0, 1), default=None,
        help="0: untraced run only; 1 (or bare --trace): traced run only; default: both",
    )  # fmt: skip
    parser.add_argument("--quick", action="store_true", help="~1/20 length, one launch per run")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "latest.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: the program under {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SPEC["run_seconds"] / 20.0 if args.quick else float(SPEC["run_seconds"])
    workloads = args.workload or WORKLOAD_NAMES
    modes = [("untraced", run_untraced, SPEC["end_to_end"]), ("traced", run_traced, SPEC["per_layer"])]
    if args.trace is not None:
        modes = [modes[args.trace]]
    out_dir = args.out.resolve().parent
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {
        "schema": 1,
        "env": environment(),
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "workloads": {},
    }
    last = None
    try:
        for workload in workloads:
            entry = report["workloads"].setdefault(workload, {})
            started = time.perf_counter()
            for mode, runner, declared in modes:
                last = runner(workload, args.seed, seconds, args.quick, out_dir)
                if mode == "untraced":
                    last["reference_drift"] = reference_drift(workload, args.seed, args.quick, last["metrics"])
                entry[mode] = last
                print_table(workload, mode, last, declared)
            entry["wall_s"] = time.perf_counter() - started
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True))
    all_correct = all(
        entry[mode]["correct"] for entry in report["workloads"].values() for mode in entry if mode != "wall_s"
    )
    if len(workloads) == 1 and len(modes) == 1:
        print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
