"""Robustness grid: attack x aggregator x sparsifier degradation sweep.

This experiment goes beyond the paper: it measures how DEFT-style
sparsification interacts with Byzantine workers.  For every (sparsifier,
aggregator) pair it trains once per attack and reports the *metric
degradation* relative to that pair's benign (``none``) run, plus how much
of the plain mean's degradation each robust rule recovers:

``recovered = 1 - degradation(robust) / degradation(mean)``

so ``recovered = 1`` means the rule fully restores the benign metric and
``recovered = 0`` means it does no better than the mean.

The grid is executed through :mod:`repro.sweep`: cells the capability
matrix refuses (e.g. a colluding attack under an asynchronous execution
model) are pruned up front and reported as skipped rather than try/except-ed
at run time, repeated cells can be served from the result cache, and
``jobs > 1`` dispatches the grid to worker processes with bit-identical
results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import RunSpec
from repro.experiments import config as expcfg
from repro.sweep import ResultCache, run_sweep, spec_refusal

__all__ = ["run", "format_report", "DEFAULT_AGGREGATORS", "DEFAULT_ATTACKS", "DEFAULT_SPARSIFIERS"]

DEFAULT_SPARSIFIERS = ("deft", "topk")
DEFAULT_AGGREGATORS = ("mean", "median", "krum", "geometric_median")
DEFAULT_ATTACKS = ("none", "sign_flip", "alie")

_METRIC = {expcfg.CV: "accuracy", expcfg.LM: "perplexity", expcfg.REC: "hr@10"}
_HIGHER_BETTER = {expcfg.CV: True, expcfg.LM: False, expcfg.REC: True}


def run(
    scale: str = "smoke",
    workload: str = expcfg.LM,
    sparsifiers: Sequence[str] = DEFAULT_SPARSIFIERS,
    aggregators: Sequence[str] = DEFAULT_AGGREGATORS,
    attacks: Sequence[str] = DEFAULT_ATTACKS,
    n_workers: int = 8,
    n_byzantine: int = 2,
    density: Optional[float] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    max_iterations_per_epoch: Optional[int] = None,
    execution: str = "synchronous",
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Sweep the grid on one workload and return per-cell degradations.

    ``execution`` selects the schedule every cell runs under; cells whose
    attack the schedule cannot host are pruned by the capability matrix and
    reported with a ``skipped`` reason.  ``jobs``/``cache`` are forwarded
    to the sweep engine.
    """
    density = expcfg.default_density(workload) if density is None else float(density)
    metric = _METRIC[workload]
    higher_better = _HIGHER_BETTER[workload]

    keys: List[Tuple[str, str, str]] = []
    specs = []
    skipped: Dict[Tuple[str, str, str], str] = {}
    for sparsifier in sparsifiers:
        for aggregator in aggregators:
            for attack in attacks:
                spec = RunSpec.from_flat(
                    workload=workload,
                    sparsifier=sparsifier,
                    density=density,
                    n_workers=n_workers,
                    scale=scale,
                    epochs=epochs,
                    seed=seed,
                    max_iterations_per_epoch=max_iterations_per_epoch,
                    aggregator=aggregator,
                    attack=attack,
                    n_byzantine=n_byzantine if attack != "none" else 0,
                    execution=execution,
                )
                reason = spec_refusal(spec)
                key = (sparsifier, aggregator, attack)
                if reason is not None:
                    skipped[key] = reason
                    continue
                keys.append(key)
                specs.append(spec)

    report = run_sweep(specs, jobs=jobs, cache=cache)

    cells: Dict = {}
    for key, outcome in zip(keys, report.outcomes):
        if outcome.error is not None:
            cells[key] = {"metric": None, "loss": None, "error": outcome.error}
            continue
        cells[key] = {
            "metric": outcome.result.final_metrics.get(metric),
            "loss": outcome.result.final_metrics.get("loss"),
        }
    for key, reason in skipped.items():
        cells[key] = {"metric": None, "loss": None, "skipped": reason}
    # Restore declaration order (skipped cells interleaved where they were).
    ordered = {
        (sparsifier, aggregator, attack): cells[(sparsifier, aggregator, attack)]
        for sparsifier in sparsifiers
        for aggregator in aggregators
        for attack in attacks
        if (sparsifier, aggregator, attack) in cells
    }
    cells = ordered

    # Degradation of each cell relative to its own benign run, and the
    # fraction of the mean's degradation each robust rule recovers.
    for (sparsifier, aggregator, attack), cell in cells.items():
        benign_cell = cells.get((sparsifier, aggregator, "none"))
        benign = benign_cell["metric"] if benign_cell else None
        value = cell["metric"]
        if benign is None or value is None:
            cell["degradation"] = None
            continue
        cell["degradation"] = (benign - value) if higher_better else (value - benign)
    for (sparsifier, aggregator, attack), cell in cells.items():
        mean_cell = cells.get((sparsifier, "mean", attack))
        degradation = cell.get("degradation")
        mean_degradation = mean_cell.get("degradation") if mean_cell else None
        if (
            attack == "none"
            or degradation is None
            or mean_degradation is None
            or mean_degradation <= 0
        ):
            cell["recovered_vs_mean"] = None
        else:
            cell["recovered_vs_mean"] = 1.0 - degradation / mean_degradation

    return {
        "experiment": "robustness",
        "workload": workload,
        "metric": metric,
        "metric_higher_is_better": higher_better,
        "density": density,
        "n_workers": n_workers,
        "n_byzantine": n_byzantine,
        "execution": execution,
        "jobs": report.jobs,
        "cells": {"|".join(key): cell for key, cell in cells.items()},
    }


def format_report(result: Dict) -> str:
    lines = [
        "Robustness grid -- attack x aggregator x sparsifier",
        f"  workload={result['workload']} metric={result['metric']} "
        f"(w={result['n_workers']}, f={result['n_byzantine']}, d={result['density']})",
        f"  {'sparsifier':<10} {'aggregator':<18} {'attack':<14} "
        f"{'metric':>8} {'degraded':>9} {'recovered':>10}",
    ]
    for key, cell in result["cells"].items():
        sparsifier, aggregator, attack = key.split("|")
        if cell.get("skipped") or cell.get("error"):
            reason = "skipped: capability matrix" if cell.get("skipped") else "error"
            lines.append(
                f"  {sparsifier:<10} {aggregator:<18} {attack:<14} ({reason})"
            )
            continue
        metric = cell["metric"]
        metric_str = "n/a" if metric is None else f"{metric:.4f}"
        degradation = cell.get("degradation")
        degradation_str = "n/a" if degradation is None else f"{degradation:+.4f}"
        recovered = cell.get("recovered_vs_mean")
        recovered_str = "-" if recovered is None else f"{recovered:+.2f}"
        lines.append(
            f"  {sparsifier:<10} {aggregator:<18} {attack:<14} "
            f"{metric_str:>8} {degradation_str:>9} {recovered_str:>10}"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_report(run(scale="repro")))


if __name__ == "__main__":  # pragma: no cover
    main()
