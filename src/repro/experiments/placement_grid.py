"""Placement grid: topology x server placement x schedule sweep.

This experiment goes beyond the paper: it measures how the *modelled*
wall-clock of the communication-bound schedules depends on where their
traffic flows.  For every (topology, server placement, execution) cell it
trains once and reports the final loss, the task metric and the estimated
wall-clock on the virtual clock, plus the placement penalty of each cell
relative to the best placement of the same (topology, execution) pair:

``penalty = wallclock(cell) / wallclock(best placement)``

so ``penalty > 1`` quantifies how much a bad server rank costs.  The
parameter-server schedules (``async_bsp``, ``elastic``) run once per
server placement -- the hub of the star vs. a leaf, a fat-node leader vs.
a member GPU -- because their push/pull traffic is priced over
``path_hops(rank, server_rank)``.  The server-less ``gossip`` schedule has
no placement axis and appears once per topology (placement ``-``); its
neighbour exchanges are priced per edge.

The grid is executed through :mod:`repro.sweep`: cells the capability
matrix refuses are pruned up front and reported with a ``skipped`` reason,
repeated cells can be served from the result cache, and ``jobs > 1``
dispatches the grid to worker processes with bit-identical results.
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
    "DEFAULT_TOPOLOGIES",
    "default_placements",
]

DEFAULT_EXECUTIONS = ("async_bsp", "elastic", "gossip")
#: Topology specs sized for the default 8-worker grid.
DEFAULT_TOPOLOGIES = ("star", "ring", "fat_node:2x4")

_METRIC = {expcfg.CV: "accuracy", expcfg.LM: "perplexity", expcfg.REC: "hr@10"}

#: Per-scale iteration caps so the grid stays seconds-scale.
_SCALE_LIMITS = {"smoke": dict(epochs=1, max_iterations_per_epoch=8),
                 "repro": dict(epochs=2, max_iterations_per_epoch=None)}


def default_placements(n_workers: int) -> Tuple[int, int]:
    """The two server ranks every topology is probed at.

    Rank 0 is the structurally central worker of every built-in topology
    (star hub, tree root, fat-node leader); the last rank is the most
    peripheral one (star leaf, deepest tree leaf, last member GPU of the
    last node).
    """
    return (0, n_workers - 1)


def run(
    scale: str = "smoke",
    workload: str = expcfg.LM,
    executions: Sequence[str] = DEFAULT_EXECUTIONS,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    server_ranks: Optional[Sequence[int]] = None,
    n_workers: int = 8,
    density: Optional[float] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
    max_iterations_per_epoch: Optional[int] = None,
    max_staleness: int = 4,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Sweep the grid on one workload and return per-cell measurements.

    ``server_ranks`` defaults to :func:`default_placements` (central vs.
    peripheral).  ``jobs``/``cache`` forward to the sweep engine.
    """
    density = expcfg.default_density(workload) if density is None else float(density)
    limits = _SCALE_LIMITS.get(scale, _SCALE_LIMITS["smoke"])
    epochs = limits["epochs"] if epochs is None else int(epochs)
    if max_iterations_per_epoch is None:
        max_iterations_per_epoch = limits["max_iterations_per_epoch"]
    if server_ranks is None:
        server_ranks = default_placements(n_workers)
    metric = _METRIC[workload]

    keys: List[Tuple[str, str, str]] = []
    specs = []
    skipped: Dict[Tuple[str, str, str], str] = {}
    from repro.plugins import get_component

    for topology in topologies:
        for execution in executions:
            # Server-less schedules (by declared capability) have no
            # placement axis.
            has_server = get_component("execution", execution).capability(
                "parameter_server", False
            )
            placements: Sequence[Optional[int]] = (
                list(server_ranks) if has_server else [None]
            )
            for server_rank in placements:
                label = "-" if server_rank is None else str(server_rank)
                spec = RunSpec.from_flat(
                    workload=workload,
                    sparsifier="deft",
                    density=density,
                    n_workers=n_workers,
                    scale=scale,
                    epochs=epochs,
                    seed=seed,
                    max_iterations_per_epoch=max_iterations_per_epoch,
                    evaluate_each_epoch=True,
                    execution=execution,
                    max_staleness=max_staleness,
                    topology=topology,
                    server_rank=server_rank,
                )
                reason = spec_refusal(spec)
                key = (topology, execution, label)
                if reason is not None:
                    skipped[key] = reason
                    continue
                keys.append(key)
                specs.append(spec)

    report = run_sweep(specs, jobs=jobs, cache=cache)

    cells: Dict = {}
    for key, outcome in zip(keys, report.outcomes):
        if outcome.error is not None:
            cells[key] = {
                "loss": None,
                "metric": None,
                "wallclock": None,
                "error": outcome.error,
            }
            continue
        result = outcome.result
        cells[key] = {
            "loss": result.final_metrics.get("loss"),
            "metric": result.final_metrics.get(metric),
            "wallclock": result.estimated_wallclock,
        }
    for key, reason in skipped.items():
        cells[key] = {"loss": None, "metric": None, "wallclock": None, "skipped": reason}

    # Placement penalty: each cell vs. the best placement of its
    # (topology, execution) pair.
    for (topology, execution, label), cell in cells.items():
        peers = [
            other["wallclock"]
            for (t, e, _), other in cells.items()
            if t == topology and e == execution and other.get("wallclock")
        ]
        if not peers or not cell.get("wallclock"):
            cell["placement_penalty"] = None
        else:
            cell["placement_penalty"] = cell["wallclock"] / min(peers)

    return {
        "experiment": "placement",
        "workload": workload,
        "metric": metric,
        "density": density,
        "n_workers": n_workers,
        "max_staleness": max_staleness,
        "server_ranks": list(server_ranks),
        "cells": {"|".join(key): cell for key, cell in cells.items()},
    }


def format_report(result: Dict) -> str:
    lines = [
        "Placement grid -- topology x server placement x schedule",
        f"  workload={result['workload']} metric={result['metric']} "
        f"(w={result['n_workers']}, d={result['density']}, "
        f"s={result['max_staleness']})",
        f"  {'topology':<14} {'execution':<10} {'server':>6} "
        f"{'loss':>8} {'metric':>8} {'wallclock':>10} {'penalty':>8}",
    ]
    for key, cell in result["cells"].items():
        topology, execution, label = key.split("|")
        if cell.get("skipped") or cell.get("error"):
            reason = "skipped: capability matrix" if cell.get("skipped") else "error"
            lines.append(f"  {topology:<14} {execution:<10} {label:>6} ({reason})")
            continue
        loss = cell["loss"]
        metric = cell["metric"]
        penalty = cell.get("placement_penalty")
        lines.append(
            f"  {topology:<14} {execution:<10} {label:>6} "
            f"{'n/a' if loss is None else f'{loss:.4f}':>8} "
            f"{'n/a' if metric is None else f'{metric:.4f}':>8} "
            f"{cell['wallclock']:>9.4f}s "
            f"{'-' if penalty is None else f'{penalty:.3f}x':>8}"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_report(run(scale="repro")))


if __name__ == "__main__":  # pragma: no cover
    main()
