"""Staleness grid: execution model x sparsifier x straggler profile sweep.

This experiment goes beyond the paper: it measures how the sparsifiers
behave under the pluggable execution schedules when the cluster is
heterogeneous.  For every (execution, sparsifier, straggler profile) cell
it trains once and reports the final loss, the task metric, the mean
actual density, and the *estimated wall-clock* on the virtual clock --
plus the speedup of each schedule over lock-step BSP under the same
sparsifier and straggler profile:

``speedup = wallclock(synchronous) / wallclock(execution)``

so ``speedup > 1`` means the schedule finishes the same per-epoch batch
budget sooner than BSP does.  Under the ``uniform`` profile the schedules
differ only by communication; under ``lognormal`` and ``straggler`` the
asynchronous schedules stop paying ``max_r(compute_r)`` every round and
the speedup becomes the point of the experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import RunSpec
from repro.experiments import config as expcfg
from repro.sweep import ResultCache, run_sweep, spec_refusal

__all__ = [
    "run",
    "format_report",
    "DEFAULT_EXECUTIONS",
    "DEFAULT_SPARSIFIERS",
    "DEFAULT_PROFILES",
]

DEFAULT_EXECUTIONS = ("synchronous", "local_sgd", "async_bsp", "elastic")
DEFAULT_SPARSIFIERS = ("deft", "topk")
DEFAULT_PROFILES = ("uniform", "lognormal")

_METRIC = {expcfg.CV: "accuracy", expcfg.LM: "perplexity", expcfg.REC: "hr@10"}

#: Per-scale iteration caps so the 16-cell grid stays seconds-scale.
_SCALE_LIMITS = {"smoke": dict(epochs=1, max_iterations_per_epoch=8),
                 "repro": dict(epochs=2, max_iterations_per_epoch=None)}


def run(
    scale: str = "smoke",
    workload: str = expcfg.LM,
    executions: Sequence[str] = DEFAULT_EXECUTIONS,
    sparsifiers: Sequence[str] = DEFAULT_SPARSIFIERS,
    profiles: Sequence[str] = DEFAULT_PROFILES,
    n_workers: int = 8,
    density: Optional[float] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    max_iterations_per_epoch: Optional[int] = None,
    local_steps: int = 4,
    max_staleness: int = 4,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Sweep the grid on one workload and return per-cell measurements.

    The grid runs through :mod:`repro.sweep`: cells the capability matrix
    refuses are pruned up front (reported with a ``skipped`` reason), and
    ``jobs``/``cache`` forward to the sweep engine.
    """
    density = expcfg.default_density(workload) if density is None else float(density)
    limits = _SCALE_LIMITS.get(scale, _SCALE_LIMITS["smoke"])
    epochs = limits["epochs"] if epochs is None else int(epochs)
    if max_iterations_per_epoch is None:
        max_iterations_per_epoch = limits["max_iterations_per_epoch"]
    metric = _METRIC[workload]

    keys: List[Tuple[str, str, str]] = []
    specs = []
    skipped: Dict[Tuple[str, str, str], str] = {}
    for profile in profiles:
        for sparsifier in sparsifiers:
            for execution in executions:
                if execution == "elastic" and sparsifier != sparsifiers[0]:
                    # Elastic averaging exchanges dense parameters and never
                    # touches the sparsifier: one run per profile suffices.
                    continue
                label = "-" if execution == "elastic" else sparsifier
                spec = RunSpec.from_flat(
                    workload=workload,
                    sparsifier=sparsifier,
                    density=density,
                    n_workers=n_workers,
                    scale=scale,
                    epochs=epochs,
                    seed=seed,
                    max_iterations_per_epoch=max_iterations_per_epoch,
                    execution=execution,
                    straggler_profile=profile,
                    local_steps=local_steps,
                    max_staleness=max_staleness,
                )
                reason = spec_refusal(spec)
                if reason is not None:
                    skipped[(execution, label, profile)] = reason
                    continue
                keys.append((execution, label, profile))
                specs.append(spec)

    report = run_sweep(specs, jobs=jobs, cache=cache)

    cells: Dict = {}
    for key, outcome in zip(keys, report.outcomes):
        if outcome.error is not None:
            cells[key] = {
                "loss": None,
                "metric": None,
                "mean_density": 0.0,
                "wallclock": None,
                "iterations": 0,
                "error": outcome.error,
            }
            continue
        result = outcome.result
        cells[key] = {
            "loss": result.final_metrics.get("loss"),
            "metric": result.final_metrics.get(metric),
            "mean_density": result.mean_density(),
            "wallclock": result.estimated_wallclock,
            "iterations": result.iterations_run,
        }
    for key, reason in skipped.items():
        cells[key] = {
            "loss": None,
            "metric": None,
            "mean_density": 0.0,
            "wallclock": None,
            "iterations": 0,
            "skipped": reason,
        }
    # Restore declaration order (skipped cells interleaved where they were).
    ordered: Dict = {}
    for profile in profiles:
        for sparsifier in sparsifiers:
            for execution in executions:
                label = "-" if execution == "elastic" else sparsifier
                key = (execution, label, profile)
                if key in cells and key not in ordered:
                    ordered[key] = cells[key]
    cells = ordered

    for (execution, sparsifier, profile), cell in cells.items():
        # The sparsifier-independent elastic rows compare against the BSP
        # baseline of the grid's first sparsifier.
        baseline_sparsifier = sparsifiers[0] if sparsifier == "-" else sparsifier
        baseline = cells.get(("synchronous", baseline_sparsifier, profile))
        if baseline is None or not baseline["wallclock"] or not cell["wallclock"]:
            cell["speedup_vs_sync"] = None
        else:
            cell["speedup_vs_sync"] = baseline["wallclock"] / cell["wallclock"]

    return {
        "experiment": "staleness",
        "workload": workload,
        "metric": metric,
        "density": density,
        "n_workers": n_workers,
        "local_steps": local_steps,
        "max_staleness": max_staleness,
        "cells": {"|".join(key): cell for key, cell in cells.items()},
    }


def format_report(result: Dict) -> str:
    lines = [
        "Staleness grid -- execution x sparsifier x straggler profile",
        f"  workload={result['workload']} metric={result['metric']} "
        f"(w={result['n_workers']}, d={result['density']}, "
        f"H={result['local_steps']}, s={result['max_staleness']})",
        f"  {'execution':<12} {'sparsifier':<10} {'profile':<10} "
        f"{'loss':>8} {'metric':>8} {'density':>8} {'wallclock':>10} {'speedup':>8}",
    ]
    for key, cell in result["cells"].items():
        execution, sparsifier, profile = key.split("|")
        if cell.get("skipped") or cell.get("error"):
            reason = "skipped: capability matrix" if cell.get("skipped") else "error"
            lines.append(f"  {execution:<12} {sparsifier:<10} {profile:<10} ({reason})")
            continue
        loss = cell["loss"]
        metric = cell["metric"]
        speedup = cell.get("speedup_vs_sync")
        lines.append(
            f"  {execution:<12} {sparsifier:<10} {profile:<10} "
            f"{'n/a' if loss is None else f'{loss:.4f}':>8} "
            f"{'n/a' if metric is None else f'{metric:.4f}':>8} "
            f"{cell['mean_density']:>8.4f} "
            f"{cell['wallclock']:>9.4f}s "
            f"{'-' if speedup is None else f'{speedup:.2f}x':>8}"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_report(run(scale="repro")))


if __name__ == "__main__":  # pragma: no cover
    main()
