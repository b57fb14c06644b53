"""Compare benchmark results: base against change, or the spread of one set.

    python3 bench/compare.py BASE NEW     # verdict per workload x end-to-end metric
    python3 bench/compare.py RUNS         # run-to-run spread of one set of runs

``BASE``, ``NEW`` and ``RUNS`` are results files written by ``run.py --out``
or directories of them (several runs of one commit).  With several runs a
side is represented by its median, and its spread is the distance between
the first and third quartile as a share of the median.

Verdicts, per workload and end-to-end metric of ``BENCHMARK.json``:

``ok``          NEW is not worse than BASE by more than the metric's bound;
``regressed``   it is;
``unresolved``  BASE's own spread is wider than the bound, so neither can be
                said -- unless every run of NEW reads better than every run
                of BASE, which is ``ok``.

Exit status is 1 when any pairing regressed or NEW failed more operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Per-layer metrics that are exact counts (besides every ``*.calls_per_op``
#: and ``comm.sent_elements_per_op.*``): equal seeds must give equal values.
EXACT_NAMES = (
    "tensor.tensors_created_per_op",
    "comm.calls_per_op",
    "sparsifiers.k_selected_per_op",
    "sparsifiers.union_size_per_op",
    "sweep.cached_pass_cells_run",
)
#: Called once per traced launch, not once per block, so not a per-op constant.
NOT_EXACT = ("experiments.make_task.calls_per_op",)


def load_runs(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(file.read_text()) for file in files]
    runs = [run for run in runs if "workloads" in run]
    if not runs:
        raise SystemExit(f"compare: no results files at {path}")
    return runs


def values_of(runs: List[dict], workload: str, mode: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get(mode)
        if entry and metric in entry["metrics"]:
            out.append(float(entry["metrics"][metric]["value"]))
    return out


def spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None for one run)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def failed_ops(runs: List[dict], workload: str) -> int:
    return sum(run["workloads"].get(workload, {}).get("untraced", {}).get("failed", 0) for run in runs)


def exact_name(name: str) -> bool:
    if name in NOT_EXACT:
        return False
    return name.endswith(".calls_per_op") or name in EXACT_NAMES or name.startswith("comm.sent_elements_per_op.")


def spread_table(runs: List[dict]) -> int:
    print(f"{len(runs)} runs; spread = (Q3 - Q1) / median; steady = below a third of the bound")
    unsteady = 0
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            values = values_of(runs, workload, "untraced", metric["name"])
            if not values:
                continue
            share = spread(values)
            steady = share is not None and share <= metric["bound"] / 3
            unsteady += 0 if steady or metric["name"] == "setup_s" else 1
            print(
                f"{workload:<13} {metric['name']:<22} median {statistics.median(values):>14.6g} "
                f"{metric['unit']:<9} spread {_percent(share):>8}  bound {metric['bound']:.0%}  "
                f"{'steady' if steady else 'NOT STEADY'}"
            )
    return 1 if unsteady else 0


def _percent(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:+.2%}" if value < 0 else f"{value:.2%}"


def compare(base: List[dict], new: List[dict]) -> int:
    exit_code = 0
    print(
        f"{'workload':<13} {'metric':<22} {'base':>14} {'new':>14} "
        f"{'worse by':>9} {'bound':>6} {'spread':>8}  verdict"
    )
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            old_values = values_of(base, workload, "untraced", metric["name"])
            new_values = values_of(new, workload, "untraced", metric["name"])
            if not old_values or not new_values:
                continue
            old, cur = statistics.median(old_values), statistics.median(new_values)
            lower = metric["better"] == "lower"
            worse = ((cur - old) if lower else (old - cur)) / abs(old) if old else 0.0
            share = spread(old_values)
            all_better = (
                max(new_values) < min(old_values) if lower else min(new_values) > max(old_values)
            )
            if share is not None and share > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                exit_code = 1
            else:
                verdict = "ok"
            print(
                f"{workload:<13} {metric['name']:<22} {old:>14.6g} {cur:>14.6g} {worse:>+9.2%} "
                f"{metric['bound']:>6.0%} {_percent(share):>8}  {verdict}"
            )
        if failed_ops(new, workload) > failed_ops(base, workload):
            print(f"{workload:<13} failed operations rose: {failed_ops(base, workload)} -> {failed_ops(new, workload)}")
            exit_code = 1
        _exact_counts(base[0], new[0], workload)
    return exit_code


def _exact_counts(base: dict, new: dict, workload: str) -> None:
    """With equal seeds, the traced runs' exact counts should be bit-equal."""
    old = base["workloads"].get(workload, {}).get("traced")
    cur = new["workloads"].get(workload, {}).get("traced")
    if not old or not cur or base.get("seed") != new.get("seed") or base.get("quick") != new.get("quick"):
        return
    names = [name for name in old["metrics"] if exact_name(name) and name in cur["metrics"]]
    moved = [name for name in names if old["metrics"][name]["value"] != cur["metrics"][name]["value"]]
    print(f"{workload:<13} exact per-layer counts: {len(names)} compared, {len(moved)} differ")
    for name in moved:
        print(f"{'':<13}   {name}: {old['metrics'][name]['value']!r} -> {cur['metrics'][name]['value']!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="results file, or directory of results files")
    parser.add_argument("new", type=Path, nargs="?", help="omit to print the spread of BASE's runs")
    args = parser.parse_args(argv)
    if args.new is None:
        return spread_table(load_runs(args.base))
    return compare(load_runs(args.base), load_runs(args.new))


if __name__ == "__main__":
    sys.exit(main())
