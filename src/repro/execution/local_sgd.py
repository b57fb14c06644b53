"""Local SGD: H dense local steps per worker, then sparsified averaging.

Between averaging rounds every worker runs plain SGD on its *own* copy of
the parameters (no communication at all), so the collectives fire once
every ``local_steps`` iterations instead of every iteration.  At a sync
point each worker's contribution is its parameter *delta* since the last
sync, ``x_ref - x_i``, pushed through the standard Algorithm-1 machinery:
error feedback accumulates the unsent part of the delta, the sparsifier
picks indices from ``e_i + (x_ref - x_i)``, and the aggregator combines the
contributions on the index union.  With the plain mean and density 1 the
sync applies ``x_ref - mean_i(x_i)``, i.e. exact periodic parameter
averaging; with sparsification the residual delta stays in the
error-feedback memory exactly as unsent gradient mass does in BSP.

On the virtual clock local steps cost ``max_r(compute_r)`` each (the group
still advances in lock step) but the communication term is paid only every
``local_steps`` rounds, so the schedule trades staleness for a smaller
communication share.

The local steps are plain SGD; ``OptimizerSpec.momentum`` and
``weight_decay`` apply at the *sync point* through the trainer's optimizer
(i.e. to the aggregated H-step delta, SlowMo-style server momentum), not
to each local step.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.execution.base import ExecutionModel, flatten_parameters, load_flat_parameters
from repro.training.metrics import actual_density, mean_error_norm
from repro.training.timing import IterationTiming

__all__ = ["LocalSGDExecution"]


class LocalSGDExecution(ExecutionModel):
    """Periodic-averaging schedule (local SGD with sparse sync)."""

    name = "local_sgd"
    has_local_models = True
    uses_parameter_server = False

    def __init__(self, local_steps: int = 4, **kwargs) -> None:
        super().__init__(**kwargs)
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        self.local_steps = int(local_steps)

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        trainer = self._require_trainer()
        n_workers = trainer.n_workers
        reference = flatten_parameters(trainer.model)
        local_params = [reference.copy() for _ in range(n_workers)]

        last_summary: Dict[str, float] = {}
        for epoch in range(trainer.spec.optimizer.epochs):
            iterators = [iter(loader) for loader in trainer.loaders]
            n_iterations = trainer.epoch_iteration_budget()
            epoch_metrics: List[Dict[str, float]] = []
            for step in range(n_iterations):
                batches = [next(it) for it in iterators]
                lr = trainer.schedule.lr_at(trainer.iteration)
                sync_now = (step + 1) % self.local_steps == 0 or step == n_iterations - 1
                metrics = self._iteration(trainer, batches, lr, local_params, reference, sync_now)
                if sync_now:
                    reference = flatten_parameters(trainer.model)
                    for rank in range(n_workers):
                        local_params[rank] = reference.copy()
                epoch_metrics.append(metrics)
            # The shared model already holds the last sync result.
            last_summary = trainer.log_epoch_summary(epoch, epoch_metrics)
        return last_summary

    # ------------------------------------------------------------------ #
    def _iteration(
        self,
        trainer,
        batches,
        lr: float,
        local_params: List[np.ndarray],
        reference: np.ndarray,
        sync_now: bool,
    ) -> Dict[str, float]:
        n_workers = trainer.n_workers
        losses = np.zeros(n_workers)

        if trainer.adversary.corrupts_data:
            batches = [
                trainer.adversary.corrupt_batch(trainer.iteration, rank, batches[rank])
                for rank in range(n_workers)
            ]
        # Dense local step on every worker's own parameter copy, through
        # the trainer's compute seam (parent-side or offloaded to the
        # backend's worker processes -- bit-identical either way).
        trace = trainer.obs.trace_enabled
        v_round = trainer.clock.now
        jobs = [(rank, local_params[rank], batches[rank]) for rank in range(n_workers)]
        for rank, (loss, grad, host_start, host_end) in enumerate(
            trainer.batch_gradients(jobs)
        ):
            losses[rank] = loss
            local_params[rank] = local_params[rank] - lr * grad
            if trace:
                trainer.obs.tracer.record(
                    "compute", "local_step", trainer.iteration, rank,
                    v_round, v_round + trainer.speed_model.batch_seconds(rank),
                    host=(host_start, host_end),
                    sync=bool(sync_now),
                )

        communication_seconds = 0.0
        density = 0.0
        k_global = 0.0
        comm_elements = 0.0
        selection_seconds = 0.0
        partition_seconds = 0.0
        if sync_now:
            # Contribution: the parameter delta since the last sync, through
            # the full Algorithm-1 sparsify/aggregate path (lr already baked
            # into the local steps, so accumulate with lr=1).
            deltas = [reference - params for params in local_params]
            accumulators = [
                trainer.memories[rank].accumulate(deltas[rank], 1.0) for rank in range(n_workers)
            ]
            honest_accumulators = accumulators
            if trainer.adversary.n_byzantine:
                accumulators = trainer.adversary.corrupt_accumulators(trainer.iteration, accumulators)
            load_flat_parameters(trainer.model, reference)
            exchange = trainer.sparse_exchange(accumulators, honest_accumulators)
            communication_seconds = exchange["communication_seconds"]
            density = actual_density(int(exchange["global_indices"].shape[0]), trainer.n_gradients)
            k_global = float(exchange["global_indices"].shape[0])
            comm_elements = float(exchange["comm_elements"])
            selection_seconds = float(exchange["selection_times"].max())
            partition_seconds = float(exchange["partition_times"].max())

        trainer.clock.advance_all(trainer.speed_model.slowest_batch_seconds() + communication_seconds)
        trainer.timing.add(
            IterationTiming(
                forward=trainer.speed_model.slowest_batch_seconds() * 0.5,
                backward=trainer.speed_model.slowest_batch_seconds() * 0.5,
                selection=selection_seconds,
                communication=communication_seconds,
                partition=partition_seconds,
            )
        )

        error = mean_error_norm([m.error_norm() for m in trainer.memories])
        metrics = {
            "loss": float(losses.mean()),
            "density": density,
            "error": error,
            "k_global": k_global,
            "lr": float(lr),
        }
        it = trainer.iteration
        trainer.logger.log_scalar("loss", it, metrics["loss"])
        trainer.logger.log_scalar("density", it, density)
        trainer.logger.log_scalar("error", it, error)
        trainer.logger.log_scalar("k_global", it, k_global)
        trainer.logger.log_scalar("selection_seconds", it, selection_seconds)
        trainer.logger.log_scalar("communication_seconds", it, communication_seconds)
        trainer.logger.log_scalar("communication_elements", it, comm_elements)
        trainer.logger.log_scalar("partition_seconds", it, partition_seconds)
        trainer.logger.log_scalar("virtual_time", it, trainer.clock.now)
        if trainer.obs.metrics_enabled:
            obs_metrics = trainer.obs.metrics
            obs_metrics.counter("iterations_total").inc()
            if sync_now:
                obs_metrics.counter("sync_rounds_total").inc()
            obs_metrics.gauge("virtual_time_seconds").set(trainer.clock.now)
        if trainer.obs.events.has_subscribers("round_complete"):
            trainer.obs.events.emit(
                "round_complete",
                {
                    "iteration": it,
                    "schedule": self.name,
                    "sync": bool(sync_now),
                    "metrics": dict(metrics),
                    "virtual_time": trainer.clock.now,
                },
            )
        trainer.iteration += 1
        return metrics
