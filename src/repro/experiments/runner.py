"""Shared run helpers for the experiment drivers.

The drivers describe a run with the flat keywords of
:meth:`RunSpec.from_flat <repro.api.RunSpec.from_flat>` (``n_workers=8,
execution="async_bsp"``, ...): :func:`run_training` executes one such spec
through a :class:`~repro.api.Session`, and
:func:`run_sparsifier_comparison` sweeps several through the
:mod:`repro.sweep` engine -- so every experiment grid flows through the same
entry point (and the same sweep machinery: result cache, optional process
pool) as the CLI and user code.  The returned
:class:`~repro.api.RunResult` exposes the full ``TrainingResult`` surface
(``series``, ``final_metrics``, ``timing``, ...).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.api import RunResult, RunSpec, Session
from repro.training.tasks import Task

__all__ = ["run_training", "run_sparsifier_comparison"]


def run_training(
    workload: str,
    sparsifier_name: str,
    *,
    task: Optional[Task] = None,
    session: Optional[Session] = None,
    **kwargs,
) -> RunResult:
    """Train one (workload, sparsifier) pair and return its result.

    ``task`` can be passed to reuse an already-built dataset across several
    runs of the same experiment; ``session`` to share the task cache.  The
    remaining keywords are flat run fields (``density``, ``n_workers``,
    ``aggregator``, ``execution_kwargs``, ...); everything left out keeps
    the spec's default.
    """
    spec = RunSpec.from_flat(workload=workload, sparsifier=sparsifier_name, **kwargs)
    session = session if session is not None else Session()
    return session.run(spec, task=task)


def run_sparsifier_comparison(
    workload: str,
    sparsifier_names: Sequence[str],
    jobs: int = 1,
    **kwargs,
) -> Dict[str, RunResult]:
    """Train the same workload once per sparsifier (Figures 3-5 pattern).

    Routed through :func:`repro.sweep.run_sweep`: the serial path shares
    one Session (the dataset is built once per (workload, scale, seed)),
    and ``jobs > 1`` dispatches the sparsifiers to worker processes with
    bit-identical results.  The remaining keywords are those of
    :func:`run_training`.
    """
    # Imported lazily: repro.sweep builds on repro.api, which the
    # experiments package re-exports -- a module-level import would cycle.
    from repro.sweep import run_sweep

    specs = [
        RunSpec.from_flat(workload=workload, sparsifier=name, **kwargs)
        for name in sparsifier_names
    ]
    report = run_sweep(specs, jobs=jobs)
    results: Dict[str, RunResult] = {}
    for name, outcome in zip(sparsifier_names, report.outcomes):
        if outcome.error is not None:
            raise RuntimeError(
                f"sparsifier comparison cell {name!r} failed: {outcome.error}"
            )
        results[name] = outcome.result
    return results
