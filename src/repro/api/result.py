"""Structured result of one :class:`~repro.api.Session` run.

:class:`RunResult` wraps the trainer's :class:`~repro.training.trainer.
TrainingResult` with the resolved :class:`~repro.api.RunSpec` that produced
it and a communication-traffic summary, and adds a JSON serialisation for
tooling.  Every accessor of the underlying ``TrainingResult`` (``series``,
``final_metrics``, ``mean_density``, ``timing``, ...) is available directly
on the wrapper, so experiment drivers written against the old return type
keep working unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.api.spec import RunSpec
from repro.training.timing import TimingAccumulator
from repro.training.trainer import TrainingResult
from repro.utils.logging import RunLogger

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything one API run produced, with its provenance."""

    #: The fully resolved spec the run actually executed.
    spec: RunSpec
    #: The underlying trainer result (loggers, timing, final metrics).
    training: TrainingResult
    #: Communication summary: total elements sent, per-tag breakdown and
    #: the number of collective/point-to-point calls.
    traffic: Dict[str, object] = field(default_factory=dict)
    #: Observability payload when the run asked for it: ``"trace"`` (the
    #: Chrome trace-event JSON object) and/or ``"metrics"`` (the metrics
    #: registry snapshot).  ``None`` when observability was disabled.
    observability: Optional[Dict[str, object]] = None
    #: True when this result was rehydrated from a serialised summary
    #: (:meth:`from_dict` -- e.g. a sweep-cache hit or a worker-process
    #: return) rather than produced by a live trainer.  Rehydrated results
    #: expose the full summary surface (``final_metrics``,
    #: ``mean_density()``, ``estimated_wallclock``, ``traffic``) but not
    #: the per-iteration series of the original run.
    cached: bool = False

    # -- TrainingResult surface (delegation) --------------------------- #
    @property
    def logger(self):
        return self.training.logger

    @property
    def timing(self):
        return self.training.timing

    @property
    def final_metrics(self) -> Dict[str, float]:
        return self.training.final_metrics

    @property
    def iterations_run(self) -> int:
        return self.training.iterations_run

    @property
    def epochs_run(self) -> int:
        return self.training.epochs_run

    @property
    def estimated_wallclock(self) -> float:
        return self.training.estimated_wallclock

    def series(self, name: str):
        return self.training.series(name)

    def mean_density(self) -> float:
        return self.training.mean_density()

    def final_metric(self, name: str) -> Optional[float]:
        return self.training.final_metric(name)

    # -- structured views ---------------------------------------------- #
    @property
    def metrics(self) -> Dict[str, float]:
        """Alias of ``final_metrics`` for the structured-result surface."""
        return self.training.final_metrics

    @property
    def wallclock(self) -> float:
        """Modelled makespan of the run on the virtual clock (seconds)."""
        return self.training.estimated_wallclock

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec.to_dict(),
            "final_metrics": {k: float(v) for k, v in self.final_metrics.items()},
            "mean_density": float(self.mean_density()),
            "iterations_run": int(self.iterations_run),
            "epochs_run": int(self.epochs_run),
            "estimated_wallclock": float(self.estimated_wallclock),
            "traffic": self.traffic,
        }
        if self.observability is not None:
            out["observability"] = self.observability
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_ledger_entry(
        self,
        *,
        spec_key: Optional[str] = None,
        source: str = "run",
        host_seconds: Optional[float] = None,
    ) -> dict:
        """This result as one :class:`~repro.observability.RunLedger` entry.

        The entry carries the spec's content address (``spec_key``,
        derived via :func:`repro.sweep.cache.spec_key` when not supplied
        by a caller that already holds it), a compact label block for
        ``repro runs list``, the final metrics plus the deterministic
        scalar aggregates, the traffic summary, the simulated per-phase
        totals (when the run was traced) and the metrics snapshot (when
        metrics were recorded).  ``source`` tags how the result was
        obtained (``"run"`` / ``"cache"``); ``host_seconds`` is the only
        machine-dependent field and is never compared by the regression
        sentinel.
        """
        if spec_key is None:
            # Imported lazily: repro.sweep imports this module back.
            from repro.sweep.cache import spec_key as derive_spec_key

            spec_key = derive_spec_key(self.spec)
        spec = self.spec
        metrics = {k: float(v) for k, v in self.final_metrics.items()}
        metrics["estimated_wallclock"] = float(self.estimated_wallclock)
        metrics["mean_density"] = float(self.mean_density())
        metrics["iterations_run"] = float(self.iterations_run)
        phase_totals = None
        metrics_snapshot = None
        if self.observability:
            trace = self.observability.get("trace")
            if trace is not None:
                totals = trace.get("otherData", {}).get("simulated_phase_totals")
                if totals is not None:
                    phase_totals = {k: float(v) for k, v in totals.items()}
            metrics_snapshot = self.observability.get("metrics")
        return {
            "schema": 1,
            "kind": "run",
            "spec_key": spec_key,
            "source": source,
            # repro: allow-wallclock(entry audit stamp; the regression sentinel compares metrics/phase_totals/traffic only)
            "ts": time.time(),
            "run_name": spec.run_name or self.logger.run_name,
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
            "metrics": metrics,
            "phase_totals": phase_totals,
            "traffic": dict(self.traffic),
            "metrics_snapshot": metrics_snapshot,
            "host_seconds": None if host_seconds is None else float(host_seconds),
            "error": None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rehydrate a result from its :meth:`to_dict` summary.

        The summary carries the resolved spec, the final metrics and the
        scalar aggregates -- not the per-iteration series -- so the
        reconstructed result answers everything the experiment drivers and
        the sweep engine ask (``final_metrics``, ``mean_density()``,
        ``iterations_run``, ``estimated_wallclock``, ``traffic``) and
        round-trips: ``RunResult.from_dict(d).to_dict() == d``.
        """
        spec = RunSpec.from_dict(data["spec"])
        logger = RunLogger(run_name=spec.run_name or "cached-run")
        # One synthetic point reproduces the stored mean so the
        # ``mean_density()`` accessor (a series mean on live results)
        # answers identically on the rehydrated summary.
        logger.log_scalar("density", 0, float(data["mean_density"]))
        training = TrainingResult(
            logger=logger,
            timing=TimingAccumulator(),
            final_metrics={k: float(v) for k, v in data["final_metrics"].items()},
            iterations_run=int(data["iterations_run"]),
            epochs_run=int(data["epochs_run"]),
            estimated_wallclock=float(data["estimated_wallclock"]),
        )
        observability = data.get("observability")
        return cls(
            spec=spec,
            training=training,
            traffic=dict(data.get("traffic", {})),
            observability=dict(observability) if observability is not None else None,
            cached=True,
        )
