"""Command-line interface for the DEFT reproduction.

Usage::

    python -m repro list                       # workloads, sparsifiers, aggregators, ...
    python -m repro list --json                # machine-readable inventory
    python -m repro describe sparsifier/deft   # one component's schema + capabilities
    python -m repro train --workload lm --sparsifier deft --density 0.01 --workers 4
    python -m repro train --workload cv --sparsifier deft --aggregator krum \
                          --attack sign_flip --n-byzantine 1
    python -m repro train --sparsifier dgc --sparsifier-arg sample_ratio=0.2
    python -m repro run --execution async_bsp --straggler-profile lognormal
    python -m repro experiment fig09 --scale smoke
    python -m repro experiment robustness --scale smoke
    python -m repro experiment staleness --scale smoke
    python -m repro sweep --scale smoke        # every figure/table in one go
    python -m repro sweep --spec grid.json --jobs 4          # parallel grid
    python -m repro sweep --spec grid.json --no-cache --out results.json
    python -m repro train --ledger runs.jsonl --monitor live.jsonl
    python -m repro sweep --spec grid.json --ledger runs.jsonl
    python -m repro runs list --ledger runs.jsonl            # run history
    python -m repro runs show 2f0c --ledger runs.jsonl --openmetrics
    python -m repro compare 2f0c:0 2f0c:-1 --ledger runs.jsonl
    python -m repro check --ledger runs.jsonl --baseline baselines/ledger.jsonl

(``run`` is an alias of ``train``.)

Every training command builds a :class:`repro.api.RunSpec` and executes it
through the :class:`repro.api.Session` facade -- the CLI is a veneer over
the same API user code calls.  Component-specific keyword arguments are not
hand-threaded through argparse: the generic ``--sparsifier-arg`` /
``--aggregator-arg`` / ``--attack-arg`` / ``--execution-arg key=value``
options are parsed and type-coerced against the kwargs schema each
component registered with :mod:`repro.plugins` (see ``repro describe
<kind>/<name>`` for a component's accepted keys).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional

from repro import api
from repro.api.spec import RunSpec, add_spec_arguments, spec_fields
from repro.observability import LiveMonitor, RunLedger, render_openmetrics
from repro.observability import regress
from repro.execution import STRAGGLER_PROFILES
from repro.utils.logging import ScalarSeries
from repro.plugins import default_aggregator_for
from repro.experiments import (
    fig01_buildup,
    fig03_convergence,
    fig04_density,
    fig05_error,
    fig06_error_matched,
    fig07_breakdown,
    fig08_density_sweep,
    fig09_speedup,
    fig10_scaleout,
    placement_grid,
    robustness_grid,
    staleness_grid,
    table1_properties,
    table2_workloads,
)
from repro.experiments import config as expcfg
from repro.plugins import available_components, component_inventory, get_component

__all__ = ["main", "spec_from_argv", "EXPERIMENTS"]

#: Experiment name -> (module with run()/format_report(), description).
EXPERIMENTS: Dict[str, tuple] = {
    "fig01": (fig01_buildup, "Figure 1: Top-k gradient build-up by scale-out"),
    "table1": (table1_properties, "Table 1: sparsifier properties"),
    "table2": (table2_workloads, "Table 2: workload descriptions"),
    "fig03": (fig03_convergence, "Figure 3: convergence of sparsifiers"),
    "fig04": (fig04_density, "Figure 4: actual density over iterations"),
    "fig05": (fig05_error, "Figure 5: error minimisation"),
    "fig06": (fig06_error_matched, "Figure 6: error at matched actual density"),
    "fig07": (fig07_breakdown, "Figure 7: training time breakdown"),
    "fig08": (fig08_density_sweep, "Figure 8: DEFT convergence by density"),
    "fig09": (fig09_speedup, "Figure 9: selection speedup by scale-out"),
    "fig10": (fig10_scaleout, "Figure 10: DEFT convergence by scale-out"),
    "robustness": (robustness_grid, "Robustness grid: attack x aggregator x sparsifier degradation"),
    "staleness": (staleness_grid, "Staleness grid: execution x sparsifier x straggler profile"),
    "placement": (placement_grid, "Placement grid: topology x server placement x schedule wallclock"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    list_cmd = sub.add_parser("list", help="list workloads, components and experiments")
    list_cmd.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable inventory (names, kwargs schemas, "
                               "capability flags)")

    describe = sub.add_parser("describe", help="describe one registered component")
    describe.add_argument("ref", help="component reference: kind/name (e.g. "
                                      "sparsifier/deft) or an unambiguous bare name")
    describe.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable output")

    for alias in ("train", "run"):
        train = sub.add_parser(
            alias,
            help="train one (workload, sparsifier) pair"
            + (" (alias of train)" if alias == "run" else ""),
        )
        # One flag per run field, read off the spec's own declarations.
        add_spec_arguments(train)
        train.add_argument("--robust-norms", action="store_true",
                           help="shorthand for --sparsifier-arg robust_norms=true "
                                "(DEFT: assign k from the median of all workers' "
                                "layer norms)")
        train.add_argument("--metrics-out", default=None, metavar="OUT.prom",
                           help="write the run's metrics snapshot in the "
                                "OpenMetrics/Prometheus text format "
                                "(implies --observe-metrics)")
        train.add_argument("--monitor", default=None, metavar="OUT.jsonl",
                           help="stream one JSON line per completed round "
                                "(round, loss, staleness p95, virtual time) "
                                "to OUT.jsonl while training runs")
        train.add_argument("--ledger", nargs="?", const="", default=None,
                           metavar="LEDGER.jsonl",
                           help="append the run to the JSONL run ledger "
                                "(bare flag: $REPRO_LEDGER or "
                                "~/.cache/repro/ledger.jsonl); query with "
                                "`repro runs list` / gate with `repro check`")

    experiment = sub.add_parser("experiment", help="regenerate one paper figure/table")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", choices=("smoke", "repro"), default="smoke")

    sweep = sub.add_parser(
        "sweep",
        help="run a grid of RunSpecs through the parallel sweep engine "
             "(--spec grid.json), or regenerate every figure/table",
    )
    sweep.add_argument("--scale", choices=("smoke", "repro"), default="smoke",
                       help="scale of the figure/table regeneration (no --spec)")
    sweep.add_argument("--spec", dest="grid_path", default=None, metavar="GRID.json",
                       help="grid declaration: {'base': {...}, 'axes': "
                            "{'robustness.aggregator': ['mean', 'krum'], "
                            "'robustness.attack': {'components': 'attack'}}, "
                            "'specs': [...]} -- see the README's Sweeps section")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes dispatching the grid cells "
                            "(1 = serial in-process)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="skip the spec-addressed result cache entirely")
    sweep.add_argument("--cache-dir", default=None,
                       help="result-cache location (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro/results)")
    sweep.add_argument("--out", default=None, metavar="RESULTS.json",
                       help="write the per-cell result summaries as JSON")
    sweep.add_argument("--progress", action="store_true",
                       help="prefix per-cell outcome lines with [done/total] "
                            "and an ETA estimate")
    sweep.add_argument("--ledger", nargs="?", const="", default=None,
                       metavar="LEDGER.jsonl",
                       help="append every settled cell to the JSONL run "
                            "ledger, tagged run/cache/error (bare flag: the "
                            "default ledger location)")

    runs = sub.add_parser("runs", help="query the run ledger")
    runs_sub = runs.add_subparsers(dest="runs_command")
    runs_list = runs_sub.add_parser(
        "list", help="one line per spec key: entry count, label, last metrics"
    )
    runs_list.add_argument("--ledger", default=None, metavar="LEDGER.jsonl",
                           help="ledger location (default: $REPRO_LEDGER or "
                                "~/.cache/repro/ledger.jsonl)")
    runs_list.add_argument("--spec-key", default=None,
                           help="only spec keys with this prefix")
    runs_list.add_argument("--json", action="store_true", dest="as_json")
    runs_show = runs_sub.add_parser(
        "show", help="every ledger entry of one spec key (or run name)"
    )
    runs_show.add_argument("key", help="spec-key prefix (e.g. the first 12 "
                                       "hex chars from `runs list`) or an "
                                       "exact run name")
    runs_show.add_argument("--ledger", default=None, metavar="LEDGER.jsonl")
    runs_show.add_argument("--limit", type=int, default=10,
                           help="newest entries shown (default 10)")
    runs_show.add_argument("--json", action="store_true", dest="as_json")
    runs_show.add_argument("--openmetrics", action="store_true",
                           help="dump the newest entry's metrics snapshot as "
                                "OpenMetrics text instead of the summary")

    compare = sub.add_parser(
        "compare",
        help="diff two runs or two traces, metric by metric",
    )
    compare.add_argument("a", help="ledger reference (SPEC_KEY_PREFIX or "
                                   "PREFIX:INDEX, negative indices from the "
                                   "end) or a JSON file (ledger entry or "
                                   "Chrome trace)")
    compare.add_argument("b", help="second run/trace, same forms as A")
    compare.add_argument("--ledger", default=None, metavar="LEDGER.jsonl")
    compare.add_argument("--json", action="store_true", dest="as_json")

    check = sub.add_parser(
        "check",
        help="regression-gate the newest run of every spec key against the "
             "ledger's history (non-zero exit on regression)",
    )
    check.add_argument("--ledger", default=None, metavar="LEDGER.jsonl",
                       help="ledger holding the candidate runs (default: the "
                            "default ledger location)")
    check.add_argument("--baseline", default=None, metavar="BASELINE.jsonl",
                       help="separate ledger supplying the historical "
                            "distribution (default: the candidates' own "
                            "ledger, each entry judged against the entries "
                            "before it)")
    check.add_argument("--spec-key", default=None,
                       help="only check spec keys with this prefix")
    check.add_argument("--z", type=float, default=regress.DEFAULT_Z_THRESHOLD,
                       help="robust z-score threshold (default %(default)s)")
    check.add_argument("--rel", type=float,
                       default=regress.DEFAULT_REL_THRESHOLD,
                       help="relative-deviation threshold "
                            "(default %(default)s)")
    check.add_argument("--include-bench", action="store_true",
                       help="also check kind=bench entries (host-dependent "
                            "throughput numbers; skipped by default)")
    check.add_argument("--json", action="store_true", dest="as_json")

    lint = sub.add_parser(
        "lint",
        help="project-invariant static analysis (determinism, plugin "
             "contracts, metering parity, exception discipline, API drift); "
             "non-zero exit on any unannotated finding",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: the repro "
                           "package; explicit paths run the per-file rules "
                           "only)")
    lint.add_argument("--rules", default=None, metavar="NAME[,NAME...]",
                      help="comma-separated rule filter (see --list-rules)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the report as JSON")
    lint.add_argument("--list-rules", action="store_true",
                      help="list rule names and the pragma vocabulary")

    return parser


# ---------------------------------------------------------------------- #
def _spec_from_args(args) -> RunSpec:
    """Assemble the RunSpec a parsed ``train`` namespace describes."""
    flat = {f.flat: getattr(args, f.flat) for f in spec_fields()}
    names = {kind: flat[kind] for kind in ("sparsifier", "attack", "execution")}
    # Unset --aggregator resolves to the execution model's declared
    # default, so kwargs must be coerced against that same rule's schema
    # (e.g. gamma= under async_bsp).
    names["aggregator"] = flat["aggregator"] or default_aggregator_for(flat["execution"])
    for kind, name in names.items():
        # Raw ``key=value`` strings, coerced against the registered schema.
        raw = flat[f"{kind}_kwargs"]
        flat[f"{kind}_kwargs"] = get_component(kind, name).coerce_kwargs(raw) if raw else {}
    if args.robust_norms:
        flat["sparsifier_kwargs"]["robust_norms"] = True
    flat["trace"] = args.trace is not None
    flat["metrics"] = args.metrics or args.metrics_out is not None
    return RunSpec.from_flat(**flat)


def spec_from_argv(argv: List[str]) -> RunSpec:
    """Parse a ``train``/``run`` argv into its RunSpec (the inverse of
    :meth:`repro.api.RunSpec.to_argv`)."""
    args = _build_parser().parse_args(argv)
    if args.command not in ("train", "run"):
        raise ValueError(f"expected a train/run argv, got command {args.command!r}")
    return _spec_from_args(args)


# ---------------------------------------------------------------------- #
def _inventory_json() -> dict:
    return {
        "components": component_inventory(),
        "workloads": sorted(expcfg.PAPER_WORKLOADS),
        "scales": ["smoke", "repro"],
        "straggler_profiles": list(STRAGGLER_PROFILES),
        "experiments": {
            name: description for name, (_, description) in sorted(EXPERIMENTS.items())
        },
    }


def _command_list(as_json: bool = False) -> int:
    if as_json:
        print(json.dumps(_inventory_json(), indent=2, sort_keys=True))
        return 0
    print("Workloads (Table 2):")
    for key, description in expcfg.PAPER_WORKLOADS.items():
        print(f"  {key:<4} {description.application}: {description.paper_model} / {description.paper_dataset}")
    for kind, title in (
        ("sparsifier", "Sparsifiers"),
        ("aggregator", "Aggregators"),
        ("attack", "Attacks"),
        ("execution", "Execution models"),
        ("topology", "Topologies"),
        ("model", "Models"),
    ):
        print(f"\n{title}:")
        for name in available_components(kind):
            print(f"  {name}")
    print("\nStraggler profiles:")
    for name in STRAGGLER_PROFILES:
        print(f"  {name}")
    print("\nExperiments:")
    for name, (_, description) in sorted(EXPERIMENTS.items()):
        print(f"  {name:<7} {description}")
    return 0


def _command_describe(ref: str, as_json: bool = False) -> int:
    try:
        info = api.describe_component(ref)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"{info['kind']}/{info['name']}: {info['description'] or '(no description)'}")
    if info["kwargs"]:
        print("kwargs:")
        for kw in info["kwargs"]:
            print(f"  {kw['name']:<22} {kw['type']:<6} default={kw['default']!r}  {kw['help']}")
    else:
        print("kwargs: (none)")
    if info["capabilities"]:
        print("capabilities:")
        for flag, value in sorted(info["capabilities"].items()):
            print(f"  {flag:<26} {value!r}")
    return 0


def _ledger_from_arg(value: Optional[str]) -> Optional[RunLedger]:
    """``--ledger`` → a RunLedger (bare flag = the default location)."""
    if value is None:
        return None
    return RunLedger(value or None)


def _command_train(args) -> int:
    ledger = _ledger_from_arg(args.ledger)
    monitor = None
    monitor_handle = None
    try:
        spec = _spec_from_args(args)
        hooks = None
        if args.monitor:
            monitor_handle = open(args.monitor, "w")
            monitor = LiveMonitor(monitor_handle)
            hooks = monitor.hooks()
        try:
            with api.Session(ledger=ledger) as session:
                result = session.run(spec, hooks=hooks)
        finally:
            if monitor_handle is not None:
                monitor_handle.close()
    except (ValueError, KeyError) as exc:
        # Invalid configuration (e.g. n_byzantine >= workers, trimmed_mean
        # over capacity, density out of range): report cleanly, exit 2.
        print(f"error: {exc if isinstance(exc, ValueError) else exc.args[0]}", file=sys.stderr)
        return 2
    scenario = ""
    if args.attack != "none" or args.aggregator not in (None, "mean"):
        scenario = f" [aggregator={args.aggregator or 'mean'}, attack={args.attack}, f={args.n_byzantine}]"
    if args.execution != "synchronous" or args.straggler_profile != "uniform":
        scenario += f" [execution={args.execution}, stragglers={args.straggler_profile}]"
    if args.topology is not None or args.server_rank is not None:
        placement = "" if args.server_rank is None else f", server@{args.server_rank}"
        scenario += f" [topology={args.topology or 'default'}{placement}]"
    print(f"Trained {args.workload} with {args.sparsifier} on {args.n_workers} simulated workers{scenario}")
    for key, value in sorted(result.final_metrics.items()):
        print(f"  final {key}: {value:.4f}")
    print(f"  mean actual density: {result.mean_density():.4f}")
    print(f"  iterations run: {result.iterations_run}")
    print(f"  estimated wall-clock: {result.estimated_wallclock:.4f}s")
    if result.observability:
        trace_payload = result.observability.get("trace")
        if trace_payload is not None:
            totals = trace_payload["otherData"]["simulated_phase_totals"]
            on_clock = totals["compute"] + totals["collective"] + totals["push_pull"]
            print(f"  trace: {trace_payload['otherData']['n_spans']} spans, "
                  f"simulated compute+comm {on_clock:.4f}s")
            if args.trace:
                with open(args.trace, "w") as handle:
                    json.dump(trace_payload, handle)
                print(f"  wrote Chrome trace to {args.trace} "
                      f"(open in https://ui.perfetto.dev or chrome://tracing)")
        metrics_payload = result.observability.get("metrics")
        if metrics_payload is not None:
            n_instruments = sum(len(group) for group in metrics_payload.values())
            print(f"  metrics: {n_instruments} instruments recorded")
            for name, value in sorted(metrics_payload.get("counters", {}).items()):
                print(f"    {name} = {value}")
            if args.metrics_out:
                with open(args.metrics_out, "w") as handle:
                    handle.write(render_openmetrics(metrics_payload))
                print(f"  wrote OpenMetrics text to {args.metrics_out}")
    if monitor is not None:
        print(f"  monitor: {monitor.rounds} round records in {args.monitor}")
    if ledger is not None:
        print(f"  ledger: appended to {ledger.path}")
    return 0


def _command_experiment(name: str, scale: str) -> int:
    module, description = EXPERIMENTS[name]
    print(f"# {description} (scale={scale})")
    result = module.run(scale=scale)
    print(module.format_report(result))
    return 0


def _command_sweep(scale: str) -> int:
    for name in sorted(EXPERIMENTS):
        _command_experiment(name, scale)
        print()
    return 0


def _cell_label(spec) -> str:
    """Compact one-line description of a sweep cell for terminal output."""
    parts = [
        spec.workload,
        spec.compression.sparsifier,
        f"agg={spec.robustness.aggregator}",
        f"atk={spec.robustness.attack}",
        f"exe={spec.execution.model}",
        f"seed={spec.seed}",
    ]
    return " ".join(parts)


def _command_sweep_grid(args) -> int:
    from repro.sweep import ResultCache, expand_grid, load_grid, run_sweep

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        grid = load_grid(args.grid_path)
        expansion = expand_grid(grid)
    except (OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    for pruned in expansion.pruned:
        print(f"pruned: {_cell_label(pruned.spec)} -- {pruned.reason}")
    if not expansion.specs:
        print("error: the grid expanded to zero runnable cells", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    ledger = _ledger_from_arg(args.ledger)
    print(f"sweeping {len(expansion.specs)} cells "
          f"(jobs={args.jobs}, cache={'off' if cache is None else cache.root})")

    import time as _time

    total_cells = len(expansion.specs)
    settled = {"count": 0}
    sweep_start = _time.perf_counter()

    def _progress(outcome) -> None:
        settled["count"] += 1
        prefix = "  "
        suffix = ""
        if args.progress:
            done = settled["count"]
            prefix = f"  [{done}/{total_cells}] "
            remaining = total_cells - done
            if remaining:
                # ETA from the mean settle pace so far; cache hits settle
                # almost instantly and pull the estimate down accordingly.
                eta = (_time.perf_counter() - sweep_start) / done * remaining
                suffix = f"  eta {eta:.1f}s"
        if outcome.error is not None:
            print(f"{prefix}[error] {_cell_label(outcome.spec)} -- {outcome.error}{suffix}")
            return
        metrics = ", ".join(
            f"{key}={value:.4f}" for key, value in sorted(outcome.result.final_metrics.items())
        )
        print(f"{prefix}[{outcome.source:>5}] {_cell_label(outcome.spec)}  {metrics}  "
              f"({outcome.seconds:.2f}s){suffix}")

    with api.Session() as session:
        report = run_sweep(expansion.specs, jobs=args.jobs, cache=cache,
                           session=session, progress=_progress, ledger=ledger)
    counts = report.counts()
    by_source = report.seconds_by_source()
    if report.clamp_reason:
        print(f"  jobs: {report.effective_jobs} effective "
              f"({report.requested_jobs} requested; {report.clamp_reason})")
    print(f"done in {report.seconds:.2f}s: {counts['run']} run, "
          f"{counts['cache']} cached, {counts['error']} failed, "
          f"{len(expansion.pruned)} pruned "
          f"({report.cells_per_second():.2f} cells/s)")
    print(f"  cell time: run {by_source['run']:.2f}s, "
          f"cache {by_source['cache']:.3f}s, error {by_source['error']:.2f}s")
    cell_seconds = ScalarSeries(name="cell_seconds")
    for outcome in report.outcomes:
        cell_seconds.append(outcome.index, outcome.seconds)
    latency = cell_seconds.summary()
    print(f"  cell seconds: p50 {latency['p50']:.3f}s, "
          f"p95 {latency['p95']:.3f}s, p99 {latency['p99']:.3f}s")
    if ledger is not None:
        print(f"  ledger: {len(report)} entries appended to {ledger.path}")
    if args.out:
        payload = {
            "cells": [
                {
                    "spec": outcome.spec.to_dict(),
                    "source": outcome.source,
                    "error": outcome.error,
                    "result": outcome.result.to_dict() if outcome.result else None,
                    "seconds": outcome.seconds,
                }
                for outcome in report.outcomes
            ],
            "pruned": [
                {"spec": pruned.spec.to_dict(), "reason": pruned.reason}
                for pruned in expansion.pruned
            ],
            "jobs": report.jobs,
            "effective_jobs": report.effective_jobs,
            "clamp_reason": report.clamp_reason,
            "seconds": report.seconds,
            "seconds_by_source": report.seconds_by_source(),
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if counts["error"] else 0


# ---------------------------------------------------------------------- #
# Run ledger querying, diffing and regression gating.
# ---------------------------------------------------------------------- #
def _entry_label(entry: Mapping) -> str:
    """Compact one-line description of a ledger entry."""
    if entry.get("kind") == "bench":
        return f"bench {entry.get('run_name') or entry.get('spec_key')}"
    run = entry.get("run") or {}
    if not run:
        return str(entry.get("run_name") or "?")
    return (f"{run.get('workload', '?')} {run.get('sparsifier', '?')} "
            f"agg={run.get('aggregator')} atk={run.get('attack')} "
            f"exe={run.get('execution')} seed={run.get('seed')}")


def _entry_metrics_text(entry: Mapping, limit: int = 4) -> str:
    metrics = regress.comparable_metrics(entry)
    shown = [
        f"{name}={metrics[name]:.4g}"
        for name in sorted(metrics)
        if not name.startswith(("phase_totals.", "traffic."))
    ][:limit]
    return ", ".join(shown) if shown else "(no metrics)"


def _command_runs_list(args) -> int:
    ledger = RunLedger(args.ledger)
    grouped = ledger.by_spec_key()
    if args.spec_key:
        grouped = OrderedDict(
            (key, entries) for key, entries in grouped.items()
            if key.startswith(args.spec_key)
        )
    if args.as_json:
        payload = [
            {
                "spec_key": key,
                "entries": len(entries),
                "kind": entries[-1].get("kind"),
                "run_name": entries[-1].get("run_name"),
                "last_source": entries[-1].get("source"),
                "last_ts": entries[-1].get("ts"),
                "last_metrics": regress.comparable_metrics(entries[-1]),
            }
            for key, entries in grouped.items()
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not grouped:
        print(f"ledger {ledger.path}: no entries")
        return 0
    print(f"ledger {ledger.path}: {sum(len(v) for v in grouped.values())} entries, "
          f"{len(grouped)} spec keys"
          + (f" ({ledger.skipped} malformed lines skipped)" if ledger.skipped else ""))
    for key, entries in grouped.items():
        last = entries[-1]
        print(f"  {key[:12]:<12} x{len(entries):<3} [{last.get('source') or last.get('kind'):>5}] "
              f"{_entry_label(last)}  {_entry_metrics_text(last)}")
    return 0


def _command_runs_show(args) -> int:
    ledger = RunLedger(args.ledger)
    matching = ledger.entries_for(args.key)
    if not matching:
        # Fall back to exact run-name lookup so `runs show my-run` works.
        matching = [e for e in ledger.entries() if e.get("run_name") == args.key]
    if not matching:
        print(f"error: no ledger entries match {args.key!r} in {ledger.path}",
              file=sys.stderr)
        return 2
    shown = matching[-max(args.limit, 1):]
    if args.openmetrics:
        snapshot = None
        for entry in reversed(matching):
            snapshot = entry.get("metrics_snapshot")
            if snapshot:
                break
        if not snapshot:
            print(f"error: no entry of {args.key!r} carries a metrics snapshot "
                  "(run with --observe-metrics)", file=sys.stderr)
            return 2
        sys.stdout.write(render_openmetrics(snapshot))
        return 0
    if args.as_json:
        print(json.dumps(shown, indent=2, sort_keys=True))
        return 0
    print(f"{matching[-1]['spec_key']}: {len(matching)} entries "
          f"(showing newest {len(shown)})")
    for entry in shown:
        ts = entry.get("ts")
        stamp = (
            _dt.datetime.fromtimestamp(float(ts)).strftime("%Y-%m-%d %H:%M:%S")
            if isinstance(ts, (int, float)) else "?"
        )
        host = entry.get("host_seconds")
        host_text = f", host {host:.2f}s" if isinstance(host, (int, float)) else ""
        error = entry.get("error")
        if error:
            print(f"  {stamp} [{entry.get('source') or entry.get('kind'):>5}] "
                  f"ERROR: {error}")
            continue
        print(f"  {stamp} [{entry.get('source') or entry.get('kind'):>5}] "
              f"{_entry_metrics_text(entry, limit=6)}{host_text}")
        totals = entry.get("phase_totals")
        if totals:
            phases = ", ".join(f"{k}={v:.4g}s" for k, v in sorted(totals.items()))
            print(f"      phases: {phases}")
    return 0


def _resolve_compare_ref(ref: str, ledger: RunLedger) -> Mapping:
    """A ``repro compare`` operand → a comparable entry dict.

    An existing file is loaded as JSON -- a Chrome trace (``traceEvents``)
    is lifted via :func:`regress.entry_from_trace`, anything else is taken
    as a ledger entry.  Otherwise the operand is a ledger reference:
    ``SPEC_KEY_PREFIX`` (newest entry) or ``PREFIX:INDEX`` (append order,
    negative indices from the end).
    """
    if os.path.exists(ref):
        with open(ref) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"{ref}: expected a JSON object")
        if "traceEvents" in data:
            return regress.entry_from_trace(data)
        return data
    prefix, sep, index_text = ref.rpartition(":")
    index = None
    if sep and prefix:
        try:
            index = int(index_text)
        except ValueError:
            prefix = ref
    else:
        prefix = ref
    matching = ledger.entries_for(prefix)
    if not matching:
        raise ValueError(f"no ledger entries match {prefix!r} in {ledger.path}")
    try:
        return matching[index if index is not None else -1]
    except IndexError:
        raise ValueError(
            f"{prefix!r} has {len(matching)} entries; index {index} out of range"
        )


def _command_compare(args) -> int:
    ledger = RunLedger(args.ledger)
    try:
        entry_a = _resolve_compare_ref(args.a, ledger)
        entry_b = _resolve_compare_ref(args.b, ledger)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = regress.diff_entries(entry_a, entry_b)
    if args.as_json:
        print(json.dumps(
            {
                "a": {"spec_key": entry_a.get("spec_key"), "ref": args.a},
                "b": {"spec_key": entry_b.get("spec_key"), "ref": args.b},
                "diff": diff,
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"A: {args.a} ({_entry_label(entry_a)})")
    print(f"B: {args.b} ({_entry_label(entry_b)})")
    width = max((len(name) for name in diff), default=10)
    for metric, row in diff.items():
        if row["delta"] is None:
            side = "A" if row["a"] is not None else "B"
            value = row["a"] if row["a"] is not None else row["b"]
            print(f"  {metric:<{width}}  only in {side}: {value:.6g}")
            continue
        marker = ""
        if row["rel"] and abs(row["rel"]) > regress.DEFAULT_REL_THRESHOLD:
            marker = "  <-- differs"
        print(f"  {metric:<{width}}  {row['a']:.6g} -> {row['b']:.6g}  "
              f"(delta {row['delta']:+.6g}, rel {row['rel'] * 100:+.2f}%){marker}")
    return 0


def _command_check(args) -> int:
    ledger = RunLedger(args.ledger)
    if not ledger.path.exists():
        print(f"error: no ledger at {ledger.path}", file=sys.stderr)
        return 2
    kinds = {"run", "bench"} if args.include_bench else {"run"}

    def _keep(entry: Mapping) -> bool:
        if entry.get("kind", "run") not in kinds or entry.get("error"):
            return False
        return not args.spec_key or str(entry["spec_key"]).startswith(args.spec_key)

    grouped = OrderedDict(
        (key, kept)
        for key, entries in ledger.by_spec_key().items()
        if (kept := [e for e in entries if _keep(e)])
    )
    if not grouped:
        print(f"error: no checkable entries in {ledger.path}"
              + (f" matching {args.spec_key!r}" if args.spec_key else ""),
              file=sys.stderr)
        return 2
    candidates = OrderedDict((key, entries[-1]) for key, entries in grouped.items())
    if args.baseline:
        baseline_ledger = RunLedger(args.baseline)
        if not baseline_ledger.path.exists():
            print(f"error: no baseline ledger at {baseline_ledger.path}",
                  file=sys.stderr)
            return 2
        baseline = {
            key: [e for e in entries if _keep(e)]
            for key, entries in baseline_ledger.by_spec_key().items()
        }
    else:
        # Self-check: each candidate judged against its own prior entries.
        baseline = {key: entries[:-1] for key, entries in grouped.items()}
    reports = regress.check_ledger(
        candidates, baseline, z_threshold=args.z, rel_threshold=args.rel
    )
    if args.as_json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
        return 1 if any(not r.ok for r in reports) else 0
    failed = 0
    new = 0
    for report in reports:
        key = report.spec_key[:12]
        label = _entry_label(candidates[report.spec_key])
        if report.n_history == 0:
            new += 1
            print(f"  [ new] {key}  {label}  (no baseline history; recorded)")
            continue
        if report.ok:
            print(f"  [  ok] {key}  {label}  "
                  f"({len(report.verdicts)} metrics vs {report.n_history} baseline entries)")
            continue
        failed += 1
        print(f"  [FAIL] {key}  {label}")
        for verdict in report.regressions:
            print(f"         {verdict.describe()}")
    verdict_text = "REGRESSED" if failed else "ok"
    print(f"check: {verdict_text} -- {len(reports)} spec keys, "
          f"{failed} regressed, {new} new (z>{args.z:g}, rel>{args.rel:g})")
    return 1 if failed else 0


def _command_lint(args) -> int:
    """``repro lint``: delegate to the shared devtools driver."""
    # Imported lazily: the lint machinery is dev-time only and the other
    # verbs must not pay for it.
    from repro.devtools.runner import lint_main

    argv = list(args.paths)
    if args.rules:
        argv += ["--rules", args.rules]
    if args.as_json:
        argv.append("--json")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv, prog="repro lint")


def main(argv: Optional[list] = None) -> int:
    """Entry point used by ``python -m repro``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "list":
        return _command_list(as_json=args.as_json)
    if args.command == "describe":
        return _command_describe(args.ref, as_json=args.as_json)
    if args.command in ("train", "run"):
        return _command_train(args)
    if args.command == "experiment":
        return _command_experiment(args.name, args.scale)
    if args.command == "sweep":
        if args.grid_path:
            return _command_sweep_grid(args)
        return _command_sweep(args.scale)
    if args.command == "runs":
        if args.runs_command == "list":
            return _command_runs_list(args)
        if args.runs_command == "show":
            return _command_runs_show(args)
        parser.parse_args(["runs", "--help"])
        return 1
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "check":
        return _command_check(args)
    if args.command == "lint":
        return _command_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
