"""The Session facade: the one place runs are built and executed.

Every entry point -- the CLI, the experiment grids, the benchmarks, user
code -- goes through :meth:`Session.run`, so construction order, seeding
and component building are identical everywhere; a benign synchronous
:class:`~repro.api.RunSpec` produces bit-identical metrics to constructing
:class:`~repro.training.trainer.DistributedTrainer` from the resolved spec
by hand.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.result import RunResult
from repro.api.spec import RunSpec
from repro.plugins import (
    available_components,
    build_component,
    component_inventory,
    component_kinds,
    get_component,
    load_builtin_components,
)
from repro.training.tasks import Task
from repro.training.trainer import DistributedTrainer

__all__ = ["Session", "run", "describe_component"]


class Session:
    """A stateful handle on the reproduction's run machinery.

    Sessions cache the (expensive) synthetic datasets by
    ``(workload, scale, seed)``, so sweeping many specs over the same
    workload -- the Figures 3-5 pattern -- builds the data once.  The cache
    is LRU-bounded (``max_cached_tasks``): a long sweep over many seeds
    re-derives evicted tasks from their ``(workload, scale, seed)`` key
    instead of growing memory without limit.
    """

    #: Default bound on cached tasks; a sweep axis over more seeds than
    #: this evicts least-recently-used datasets rather than holding every
    #: one alive for the whole sweep.
    DEFAULT_MAX_CACHED_TASKS = 8

    def __init__(
        self,
        cache_tasks: bool = True,
        max_cached_tasks: Optional[int] = None,
        ledger=None,
    ) -> None:
        self.cache_tasks = bool(cache_tasks)
        self.max_cached_tasks = (
            self.DEFAULT_MAX_CACHED_TASKS if max_cached_tasks is None else int(max_cached_tasks)
        )
        if self.max_cached_tasks < 1:
            raise ValueError("max_cached_tasks must be >= 1")
        self._tasks: "OrderedDict[Tuple[str, str, int], Task]" = OrderedDict()
        #: Optional :class:`~repro.observability.RunLedger`; when set,
        #: every completed :meth:`run` appends one entry to it.
        self.ledger = ledger
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_jobs = 0

    # ------------------------------------------------------------------ #
    def executor(self, jobs: int) -> ProcessPoolExecutor:
        """A process pool of ``jobs`` workers, persistent across calls.

        The pool (and the warm worker processes in it, each holding its own
        task cache) is reused by every ``run_sweep`` dispatched through
        this Session; asking for a different size tears the old pool down
        and builds a fresh one.  :meth:`close` releases it.
        """
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if self._pool is not None and self._pool_jobs != jobs:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=jobs)
            self._pool_jobs = jobs
        return self._pool

    def close(self) -> None:
        """Release the worker pool (idempotent); the Session stays usable
        -- the next :meth:`executor` call just builds a fresh pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_jobs = 0

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    def task_for(self, workload: str, scale: str = "smoke", seed: int = 0) -> Task:
        """The synthetic task of a workload/scale/seed triple (LRU-cached).

        Tasks are derived purely from the key, so eviction is always safe:
        a later request rebuilds an identical dataset.
        """
        # Imported lazily: repro.experiments re-exports the runner, which
        # imports this package back.
        from repro.experiments import config as expcfg

        key = (workload, scale, int(seed))
        if not self.cache_tasks:
            return expcfg.make_task(workload, scale=scale, seed=seed)
        if key in self._tasks:
            self._tasks.move_to_end(key)
            return self._tasks[key]
        task = expcfg.make_task(workload, scale=scale, seed=seed)
        self._tasks[key] = task
        while len(self._tasks) > self.max_cached_tasks:
            self._tasks.popitem(last=False)
        return task

    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: RunSpec,
        *,
        task: Optional[Task] = None,
        run_name: Optional[str] = None,
        hooks: Optional[Mapping[str, Union[Callable, Tuple, List]]] = None,
    ) -> RunResult:
        """Execute one run described by ``spec`` and return its result.

        The spec is resolved (presets filled, capability matrix validated)
        first, so invalid combinations fail before any model or dataset is
        built.  ``task`` overrides the workload-derived dataset, for reuse
        across runs sharing data.  ``hooks`` maps event-bus event names
        (:data:`repro.observability.EVENTS`) to a handler or a sequence of
        handlers, subscribed on the run's always-live bus before training
        starts -- the attachment point of live monitors and controllers.
        """
        resolved = spec.resolve()
        if task is None:
            task = self.task_for(resolved.workload, resolved.scale, resolved.seed)
        sparsifier = build_component(
            "sparsifier",
            resolved.compression.sparsifier,
            resolved.compression.density,
            **resolved.compression.kwargs,
        )
        trainer = DistributedTrainer(task, sparsifier, resolved, run_name=run_name)
        if hooks:
            for event, handlers in hooks.items():
                if callable(handlers):
                    handlers = (handlers,)
                for handler in handlers:
                    trainer.obs.events.subscribe(event, handler)
        run_start = time.perf_counter()
        training_result = trainer.train()
        host_seconds = time.perf_counter() - run_start
        meter = trainer.backend.meter
        traffic = {
            "total_sent_elements": int(meter.total_sent()),
            "by_tag": {tag: int(count) for tag, count in meter.by_tag().items()},
            "calls": len(meter.records),
        }
        observability = None
        if trainer.obs.enabled:
            observability = {}
            if trainer.obs.trace_enabled:
                observability["trace"] = trainer.obs.tracer.to_chrome_trace(
                    estimated_wallclock=float(training_result.estimated_wallclock),
                    execution=resolved.execution.model,
                )
            if trainer.obs.metrics_enabled:
                observability["metrics"] = trainer.obs.metrics.snapshot()
        result = RunResult(
            spec=resolved,
            training=training_result,
            traffic=traffic,
            observability=observability,
        )
        if self.ledger is not None:
            self.ledger.record(result, source="run", host_seconds=host_seconds)
        return result

    # ------------------------------------------------------------------ #
    # Component introspection (the machine-readable surface of `repro
    # list --json` / `repro describe`).
    # ------------------------------------------------------------------ #
    def kinds(self) -> List[str]:
        return component_kinds()

    def available(self, kind: str) -> List[str]:
        return available_components(kind)

    def describe(self, ref: str) -> dict:
        """Describe one component by ``kind/name`` or bare ``name``."""
        return describe_component(ref)

    def inventory(self) -> Dict[str, List[dict]]:
        return component_inventory()


# ---------------------------------------------------------------------- #
def run(spec: RunSpec, **kwargs) -> RunResult:
    """One-shot convenience: ``Session().run(spec)``."""
    return Session().run(spec, **kwargs)


def describe_component(ref: str) -> dict:
    """Machine-readable description of one component.

    ``ref`` is either ``kind/name`` (``"sparsifier/deft"``) or a bare name,
    which is searched across every kind and must be unambiguous.
    """
    load_builtin_components()
    if "/" in ref:
        kind, _, name = ref.partition("/")
        return get_component(kind, name).to_dict()
    matches = [
        (kind, ref) for kind in component_kinds() if ref in available_components(kind)
    ]
    if not matches:
        raise KeyError(
            f"unknown component {ref!r}; use kind/name with kinds {component_kinds()}"
        )
    if len(matches) > 1:
        refs = [f"{kind}/{name}" for kind, name in matches]
        raise KeyError(f"ambiguous component {ref!r}; matches: {refs}")
    kind, name = matches[0]
    return get_component(kind, name).to_dict()
