"""The sweep engine: cache-checked, process-pool :class:`Session` dispatch.

``run_sweep`` takes a list of :class:`~repro.api.RunSpec` cells and executes
them through the same ``Session.run`` choke point as every other entry
point, adding three things no driver has to re-implement:

- **memoization** -- an optional :class:`~repro.sweep.cache.ResultCache` is
  consulted per cell before anything is built; hits return rehydrated
  results and execute zero training steps,
- **parallel dispatch** -- misses are fanned out to a
  ``concurrent.futures.ProcessPoolExecutor`` of worker Sessions
  (``jobs > 1``).  Every cell is fully seeded by its spec and workers share
  nothing, so parallel results are bit-identical to a serial run of the
  same specs, regardless of scheduling order,
- **failure isolation** -- one refused or crashing cell becomes an error
  outcome; the rest of the grid still runs.

Workers rebuild their datasets from each spec's ``(workload, scale, seed)``
triple inside the worker process (tasks are derived, never pickled), and
each worker Session's task cache is LRU-bounded, so long sweeps do not grow
worker memory without limit.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.result import RunResult
from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.observability import MetricsRegistry, RunLedger
from repro.sweep.cache import ResultCache, spec_key

__all__ = ["CellOutcome", "SweepReport", "run_sweep"]

#: Task-cache bound of the per-process worker Sessions.
_WORKER_MAX_CACHED_TASKS = 4

#: One Session per worker process, created lazily on the first cell and
#: reused for every cell the process executes, so a worker sweeping many
#: cells of one workload builds the dataset once.
_WORKER_SESSION: Optional[Session] = None


@dataclass
class CellOutcome:
    """What happened to one sweep cell."""

    #: Position of the cell in the input spec list.
    index: int
    #: The resolved spec the cell describes.
    spec: RunSpec
    #: The cell's result (``None`` when the cell errored).
    result: Optional[RunResult] = None
    #: ``"run"`` (freshly executed), ``"cache"`` (served from the result
    #: cache) or ``"error"`` (the cell raised; see ``error``).
    source: str = "run"
    #: Error message of a failed cell.
    error: Optional[str] = None
    #: Wall-clock seconds the cell took to settle: execution time for runs
    #: and errors, cache lookup time for hits.
    seconds: float = 0.0
    #: The cell's result-cache key (set only when a cache is in use).
    cache_key: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """Everything one sweep produced, in input-cell order."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    #: The job count the caller asked for (kept for back-compat; equal to
    #: ``requested_jobs``).
    jobs: int = 1
    #: Total wall-clock seconds of the sweep (cache lookups included).
    seconds: float = 0.0
    #: What the caller requested via ``jobs=``.
    requested_jobs: int = 1
    #: The worker-process count actually used after the oversubscription
    #: clamp (``1`` means the misses ran serially in-process).
    effective_jobs: int = 1
    #: Why ``effective_jobs`` differs from ``requested_jobs`` (``None``
    #: when the request was honoured as-is).
    clamp_reason: Optional[str] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    def results(self) -> List[Optional[RunResult]]:
        """Per-cell results in input order (``None`` for failed cells)."""
        return [outcome.result for outcome in self.outcomes]

    def failures(self) -> List[CellOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def counts(self) -> Dict[str, int]:
        out = {"run": 0, "cache": 0, "error": 0}
        for outcome in self.outcomes:
            out[outcome.source] = out.get(outcome.source, 0) + 1
        return out

    def cells_per_second(self) -> float:
        return len(self.outcomes) / self.seconds if self.seconds > 0 else 0.0

    def seconds_by_source(self) -> Dict[str, float]:
        """Summed per-cell settle time, broken down by outcome source.

        Keys mirror :meth:`counts` (``run`` / ``cache`` / ``error``).  Under
        parallel dispatch the per-source sums are worker-time and can exceed
        the sweep's wall-clock ``seconds``.
        """
        out = {"run": 0.0, "cache": 0.0, "error": 0.0}
        for outcome in self.outcomes:
            out[outcome.source] = out.get(outcome.source, 0.0) + outcome.seconds
        return out


# ---------------------------------------------------------------------- #
# Worker-process side.
# ---------------------------------------------------------------------- #
def _worker_session() -> Session:
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        _WORKER_SESSION = Session(max_cached_tasks=_WORKER_MAX_CACHED_TASKS)
    return _WORKER_SESSION


def _run_cell(spec_dict: dict) -> Tuple[str, object, float]:
    """Execute one cell in a worker process.

    Takes and returns only JSON-able payloads: the spec travels as its
    dict, the result comes back as its ``to_dict`` summary -- the worker
    derives its dataset from (workload, scale, seed) locally instead of
    shipping task objects across the pipe.  Returns
    ``("ok", result_dict, seconds)`` or ``("error", message, seconds)``.
    """
    start = time.perf_counter()
    try:
        spec = RunSpec.from_dict(spec_dict)
        result = _worker_session().run(spec)
        return "ok", result.to_dict(), time.perf_counter() - start
    except Exception as exc:  # repro: isolation(per-cell failure; recorded on the report as an error outcome)
        message = f"{type(exc).__name__}: {exc}"
        return "error", message, time.perf_counter() - start


# ---------------------------------------------------------------------- #
def run_sweep(
    specs: Sequence[RunSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    session: Optional[Session] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    metrics: Optional[MetricsRegistry] = None,
    ledger: Optional[RunLedger] = None,
) -> SweepReport:
    """Execute every spec, serving cache hits and dispatching the misses.

    Parameters
    ----------
    specs:
        The grid cells.  Each is resolved up front, so invalid cells fail
        here -- before any worker is spawned -- unless the grid was already
        pruned (:func:`repro.sweep.expand_grid`).
    jobs:
        Worker-process count.  ``1`` (default) runs serially in-process on
        ``session``; ``> 1`` dispatches misses to a process pool, clamped
        to what the host can actually run side by side (one process per
        core -- see :attr:`SweepReport.effective_jobs` /
        ``clamp_reason``).  Results are bit-identical at any job count:
        every cell is fully seeded by its spec.
    cache:
        Optional result cache consulted (and filled) per cell.
    session:
        The Session used for serial execution (one is created if omitted).
        Under parallel dispatch the worker processes still build their own
        Sessions, but the pool itself comes from ``session.executor`` --
        persistent across ``run_sweep`` calls on the same Session -- so
        back-to-back sweeps reuse warm workers instead of re-forking.
    progress:
        Callback invoked with each :class:`CellOutcome` as it settles
        (cache hits first, then runs in completion order).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` the engine
        instruments: cache hit/miss counters, per-cell settle-latency
        histograms labelled by source, and (under parallel dispatch) a
        queue-wait histogram of time cells spent submitted but not running.
    ledger:
        Optional :class:`~repro.observability.RunLedger`; every settled
        cell appends exactly one entry, tagged with its outcome source
        (``run`` / ``cache`` / ``error``), so the sweep's whole history is
        queryable (``repro runs list``) and regression-checkable (``repro
        check``) afterwards.  Appends happen in the parent process as
        cells settle, so the ledger stays well-formed at any ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    resolved = [spec.resolve() for spec in specs]
    report = SweepReport(jobs=int(jobs), requested_jobs=int(jobs))
    report.outcomes = [CellOutcome(index=i, spec=spec) for i, spec in enumerate(resolved)]

    # Cache pass: hits settle immediately, misses go to the dispatch list.
    # The spec hash is derived once per cell -- from the already-resolved
    # spec -- and reused for the put after a miss runs, so a fully cached
    # sweep pays exactly one resolve and one hash per cell.
    misses: List[int] = []
    for outcome in report.outcomes:
        hit = None
        lookup_start = time.perf_counter()
        if cache is not None:
            outcome.cache_key = cache.key_for(outcome.spec, assume_resolved=True)
            hit = cache.get(outcome.spec, key=outcome.cache_key)
        if hit is not None:
            outcome.result = hit
            outcome.source = "cache"
            outcome.seconds = time.perf_counter() - lookup_start
            if metrics is not None:
                metrics.counter("sweep_cache_total", outcome="hit").inc()
                metrics.histogram("sweep_cell_seconds", source="cache").observe(
                    outcome.seconds
                )
            if ledger is not None:
                _ledger_cell(ledger, outcome)
            if progress:
                progress(outcome)
        else:
            if metrics is not None and cache is not None:
                metrics.counter("sweep_cache_total", outcome="miss").inc()
            misses.append(outcome.index)

    if misses:
        effective, reason = _clamp_jobs(int(jobs), len(misses))
        report.effective_jobs = effective
        report.clamp_reason = reason
        if effective == 1:
            _run_serial(
                report, misses, session=session, cache=cache, progress=progress,
                metrics=metrics, ledger=ledger,
            )
        else:
            _run_parallel(
                report, misses, jobs=effective, session=session, cache=cache,
                progress=progress, metrics=metrics, ledger=ledger,
            )

    report.seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------- #
def _clamp_jobs(requested: int, n_misses: int):
    """Bound the pool size by the host's cores and the cells to run.

    Every cell is one process.  Dispatching more simultaneous processes
    than cores buys nothing and measurably loses to serial on a single
    core (scheduler churn plus the pool's pickling overhead -- the
    BENCH_sweep regression this replaces), so the effective pool is at
    most ``cpu_count``, floored at serial.  Returns
    ``(effective_jobs, reason-or-None)``.
    """
    cpu = os.cpu_count() or 1  # repro: allow-hostenv(pool sizing only; never enters specs, results or cache keys)
    effective = max(1, min(requested, cpu, n_misses))
    if effective == requested:
        return effective, None
    if effective == n_misses and effective < min(requested, cpu):
        return effective, f"only {n_misses} cache-missed cells to run"
    return effective, f"clamped to {effective} jobs on {cpu} cpu(s)"


def _ledger_cell(ledger: RunLedger, outcome: CellOutcome) -> None:
    """Append one settled cell to the ledger, tagged by its source."""
    cell_key = outcome.cache_key or spec_key(outcome.spec, assume_resolved=True)
    if outcome.result is not None:
        ledger.record(
            outcome.result,
            spec_key=cell_key,
            source=outcome.source,
            host_seconds=outcome.seconds,
        )
        return
    # Errored cells leave a queryable trace too: same key, no metrics.
    spec = outcome.spec
    ledger.append(
        {
            "kind": "run",
            "spec_key": cell_key,
            "source": "error",
            "run_name": spec.run_name,
            "run": {
                "workload": spec.workload,
                "scale": spec.scale,
                "seed": spec.seed,
                "n_workers": spec.cluster.n_workers,
                "sparsifier": spec.compression.sparsifier,
                "aggregator": spec.robustness.aggregator,
                "attack": spec.robustness.attack,
                "execution": spec.execution.model,
            },
            "metrics": {},
            "phase_totals": None,
            "traffic": {},
            "metrics_snapshot": None,
            "host_seconds": float(outcome.seconds),
            "error": outcome.error,
        }
    )


def _settle(
    report: SweepReport,
    index: int,
    status: str,
    payload: object,
    seconds: float,
    cache: Optional[ResultCache],
    progress: Optional[Callable[[CellOutcome], None]],
    metrics: Optional[MetricsRegistry] = None,
    ledger: Optional[RunLedger] = None,
) -> None:
    """Record one executed cell's outcome (shared by both dispatch paths)."""
    outcome = report.outcomes[index]
    outcome.seconds = float(seconds)
    if status == "ok":
        result = payload if isinstance(payload, RunResult) else RunResult.from_dict(payload)
        outcome.result = result
        outcome.source = "run"
        if cache is not None:
            cache.put(outcome.spec, result, key=outcome.cache_key)
    else:
        outcome.error = str(payload)
        outcome.source = "error"
    if metrics is not None:
        metrics.histogram("sweep_cell_seconds", source=outcome.source).observe(
            outcome.seconds
        )
    if ledger is not None:
        _ledger_cell(ledger, outcome)
    if progress:
        progress(outcome)


def _run_serial(
    report: SweepReport,
    misses: List[int],
    *,
    session: Optional[Session],
    cache: Optional[ResultCache],
    progress: Optional[Callable[[CellOutcome], None]],
    metrics: Optional[MetricsRegistry] = None,
    ledger: Optional[RunLedger] = None,
) -> None:
    session = session if session is not None else Session()
    for index in misses:
        spec = report.outcomes[index].spec
        cell_start = time.perf_counter()
        try:
            result = session.run(spec)
            _settle(report, index, "ok", result, time.perf_counter() - cell_start, cache, progress, metrics, ledger)
        except Exception as exc:  # repro: isolation(per-cell failure; recorded on the report as an error outcome)
            message = f"{type(exc).__name__}: {exc}"
            _settle(report, index, "error", message, time.perf_counter() - cell_start, cache, progress, metrics, ledger)


def _run_parallel(
    report: SweepReport,
    misses: List[int],
    *,
    jobs: int,
    session: Optional[Session] = None,
    cache: Optional[ResultCache],
    progress: Optional[Callable[[CellOutcome], None]],
    metrics: Optional[MetricsRegistry] = None,
    ledger: Optional[RunLedger] = None,
) -> None:
    max_workers = min(int(jobs), len(misses))
    # A Session owns a persistent pool reused across run_sweep calls (its
    # warm worker processes keep their task caches); without one the pool
    # is per-call and torn down on the way out.
    if session is not None:
        pool = session.executor(max_workers)
        owns_pool = False
    else:
        # Imported here: the process pool pulls in multiprocessing, which
        # serial sweeps (jobs == 1) never need.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=max_workers)
        owns_pool = True
    try:
        submitted_at = time.perf_counter()
        pending = {
            pool.submit(_run_cell, report.outcomes[index].spec.to_dict()): index
            for index in misses
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    status, payload, seconds = future.result()
                except Exception as exc:  # repro: isolation(worker died -- OOM, signal; settled as an error outcome)
                    status, payload, seconds = "error", f"{type(exc).__name__}: {exc}", 0.0
                if metrics is not None:
                    # Time the cell spent submitted but not executing:
                    # settle time minus its own run time.
                    queue_wait = max(
                        0.0, (time.perf_counter() - submitted_at) - seconds
                    )
                    metrics.histogram("sweep_queue_wait_seconds").observe(queue_wait)
                _settle(report, index, status, payload, seconds, cache, progress, metrics, ledger)
    finally:
        if owns_pool:
            pool.shutdown(wait=True)
