"""Execution-model interface: *when* workers compute, exchange and apply.

An :class:`ExecutionModel` owns the epoch / iteration loop of
:class:`~repro.training.trainer.DistributedTrainer` and decides when the
sparsified exchange happens and which workers take part.  Five schedules
are registered:

- ``synchronous``  -- the paper's bulk-synchronous Algorithm 1: every
  worker computes one batch, the group sparsifies and aggregates, the model
  advances;
- ``local_sgd``    -- H dense local steps per worker, then a sparsified
  averaging round (periodic-averaging / local SGD);
- ``async_bsp``    -- DOWNPOUR-style bounded-staleness push/pull against a
  simulated parameter server with staleness-weighted aggregation;
- ``elastic``      -- AEASGD-style elastic averaging around a center
  variable held by the server;
- ``gossip``       -- server-less neighbour averaging of sparse deltas over
  the cluster topology.

Every schedule ends a round the same way: it fills a :class:`RoundRecord`
(what the round measured) and hands it to
:meth:`ExecutionModel.finish_round`, the one place that advances the
virtual clock (see :mod:`repro.execution.straggler`), records the round's
``IterationTiming``, logs the per-round series, updates the metrics
registry and emits ``round_complete``.  The lock-step schedules share one
epoch loop, :meth:`ExecutionModel.run_lockstep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = ["ExecutionModel", "RoundRecord", "flatten_parameters", "load_flat_parameters"]


def flatten_parameters(model) -> np.ndarray:
    """Concatenate all parameter values into one float64 vector."""
    chunks: List[np.ndarray] = []
    for param in model.parameters():
        chunks.append(np.asarray(param.data, dtype=np.float64).reshape(-1))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


def load_flat_parameters(model, flat: np.ndarray) -> None:
    """Write a flat float64 vector back into a model's parameters."""
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    offset = 0
    for param in model.parameters():
        size = param.size
        param.data = flat[offset : offset + size].reshape(param.shape).astype(param.data.dtype)
        offset += size
    if offset != flat.size:
        raise ValueError(f"parameter vector has {flat.size} elements, model expects {offset}")


@dataclass
class RoundRecord:
    """What one round measured, handed to :meth:`ExecutionModel.finish_round`.

    Seconds are per round.  A phase left at ``None`` is not logged as a
    series and counts as zero in the round's ``IterationTiming``.
    """

    losses: Sequence[float]  # one per worker that computed this round
    lr: float
    union_size: int  # global index union: k_global, and density over n_gradients
    communication: float
    communication_elements: float
    compute: Optional[float] = None  # forward+backward; None = slowest virtual batch
    selection: Optional[float] = None
    partition: Optional[float] = None
    selection_cost: Optional[float] = None  # logged as selection_cost_analytic
    k_local: Optional[Sequence[int]] = None  # per-rank k; metrics-only k_local_mean
    extras: Dict[str, float] = field(default_factory=dict)  # logged and in the metrics
    sync: Optional[bool] = None  # None: the schedule exchanges every round
    event: Dict[str, object] = field(default_factory=dict)  # extra round_complete fields
    round_end: Optional[float] = None  # absolute; None = lock step, slowest + communication


class ExecutionModel:
    """Base class of all execution schedules."""

    #: Registry name, reported in run metadata and the CLI ``list`` output.
    name: str = "base"
    #: Whether workers keep diverging local parameter copies between
    #: exchanges (local SGD, elastic) or share one model state (BSP).
    has_local_models: bool = False
    #: Whether the schedule communicates point-to-point with a parameter
    #: server (priced with push/pull costs) instead of collectives.
    uses_parameter_server: bool = False
    #: Counter bumped once per :meth:`finish_round`.
    round_counter: str = "iterations_total"

    def __init__(self, **kwargs) -> None:
        # Tolerate the uniform knob set the runner passes to every model;
        # subclasses pick out the knobs they understand.
        self._extra_kwargs = dict(kwargs)
        self.trainer = None

    # ------------------------------------------------------------------ #
    def bind(self, trainer) -> None:
        """Attach the schedule to a fully constructed trainer."""
        self.trainer = trainer
        self._post_bind()

    def _post_bind(self) -> None:
        """Hook for subclasses deriving state from the bound trainer.

        The spec was validated when it resolved; nothing here re-checks it.
        """

    def _require_trainer(self):
        if self.trainer is None:
            raise RuntimeError(f"{type(self).__name__}.bind() must be called before run()")
        return self.trainer

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        """Run all configured epochs; returns the last epoch's summary."""
        raise NotImplementedError

    def run_lockstep(
        self, step: Callable[..., Dict[str, float]], after_epoch: Optional[Callable[[], None]] = None
    ) -> Dict[str, float]:
        """Run every configured epoch as lock-step rounds.

        Each epoch every worker takes one pass over its shard (up to
        :meth:`~repro.training.trainer.DistributedTrainer.epoch_iteration_budget`
        rounds); ``step(batches, lr, index, n_iterations)`` runs round
        ``index`` on one batch per worker and returns its metrics.
        ``after_epoch()`` runs before the epoch summary, e.g. to load the
        parameters evaluation should see.  Returns the last epoch's summary.
        """
        trainer = self._require_trainer()
        last_summary: Dict[str, float] = {}
        for epoch in range(trainer.spec.optimizer.epochs):
            iterators = [iter(loader) for loader in trainer.loaders]
            n_iterations = trainer.epoch_iteration_budget()
            epoch_metrics: List[Dict[str, float]] = []
            for index in range(n_iterations):
                batches = [next(it) for it in iterators]
                lr = trainer.schedule.lr_at(trainer.iteration)
                epoch_metrics.append(step(batches, lr, index, n_iterations))
            if after_epoch is not None:
                after_epoch()
            last_summary = trainer.log_epoch_summary(epoch, epoch_metrics)
        return last_summary

    def finish_round(self, record: RoundRecord) -> Dict[str, float]:
        """Close one round: clock, timing, series, metrics, event; returns its metrics."""
        # Imported here: repro.training imports this module.
        from repro.training.metrics import actual_density, mean_error_norm
        from repro.training.timing import IterationTiming

        trainer = self._require_trainer()
        clock = trainer.clock
        slowest = trainer.speed_model.slowest_batch_seconds()
        if record.round_end is None:
            clock.advance_all(slowest + record.communication)
        else:
            clock.advance_to(record.round_end)
        half = float((slowest if record.compute is None else record.compute) * 0.5)
        trainer.timing.add(
            IterationTiming(
                forward=half, backward=half, selection=float(record.selection or 0.0),
                communication=float(record.communication), partition=float(record.partition or 0.0),
            )
        )

        metrics = {
            "loss": float(np.mean(record.losses)),
            "density": actual_density(record.union_size, trainer.n_gradients),
            "error": mean_error_norm([m.error_norm() for m in trainer.memories]),
            "k_global": float(record.union_size),
        }
        if record.k_local is not None:
            metrics["k_local_mean"] = float(np.mean(record.k_local))
        metrics.update(record.extras)
        metrics["lr"] = float(record.lr)

        it = trainer.iteration
        series = {name: metrics[name] for name in ("loss", "density", "error", "k_global")}
        series.update(
            record.extras,
            selection_seconds=record.selection,
            selection_cost_analytic=record.selection_cost,
            communication_seconds=record.communication,
            communication_elements=record.communication_elements,
            partition_seconds=record.partition,
            virtual_time=clock.now,
        )
        for name, value in series.items():
            if value is not None:
                trainer.logger.log_scalar(name, it, value)

        obs = trainer.obs
        if obs.metrics_enabled:
            obs.metrics.counter(self.round_counter).inc()
            if record.sync:
                obs.metrics.counter("sync_rounds_total").inc()
            obs.metrics.gauge("virtual_time_seconds").set(clock.now)
        if obs.events.has_subscribers("round_complete"):
            payload = {"iteration": it, "schedule": self.name}
            if record.sync is not None:
                payload["sync"] = bool(record.sync)
            payload.update(record.event)
            payload["metrics"] = dict(metrics)
            payload["virtual_time"] = clock.now
            obs.events.emit("round_complete", payload)
        trainer.iteration += 1
        return metrics

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Qualitative properties for reports and the CLI ``list`` output."""
        return {
            "name": self.name,
            "local_models": self.has_local_models,
            "parameter_server": self.uses_parameter_server,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
