"""Elastic averaging (EASGD/AEASGD-style) around a center variable.

Every worker runs dense SGD on its own parameter copy; a *center variable*
``x~`` lives on the simulated parameter server (the trainer's shared
model).  Every ``local_steps`` iterations each worker exchanges an elastic
force with the center:

    x_i <- x_i - alpha * (x_i - x~)
    x~  <- x~  + (alpha / n) * sum_i (x_i - x~)

so workers are pulled toward the center and the center drifts toward the
workers' average -- exploration with a spring, rather than hard averaging.
``alpha`` defaults to ``0.9 / n_workers``, the stable choice from the
EASGD paper.  The exchange is point-to-point (each worker pushes its
parameters and pulls the center), priced with the cost model's
``push_cost`` / ``pull_cost``; evaluation always uses the center.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.execution.base import ExecutionModel, RoundRecord, flatten_parameters, load_flat_parameters

__all__ = ["ElasticAveragingExecution"]


class ElasticAveragingExecution(ExecutionModel):
    """Elastic-averaging SGD schedule with a server-held center variable."""

    name = "elastic"
    has_local_models = True
    uses_parameter_server = True

    def __init__(self, local_steps: int = 4, elastic_alpha: Optional[float] = None, **kwargs) -> None:
        super().__init__(**kwargs)
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        if elastic_alpha is not None and not 0.0 < elastic_alpha <= 1.0:
            raise ValueError(f"elastic_alpha must be in (0, 1], got {elastic_alpha}")
        self.local_steps = int(local_steps)
        self.elastic_alpha = elastic_alpha

    def _post_bind(self) -> None:
        if self.elastic_alpha is None:
            # The EASGD paper's stability choice: beta/n with beta = 0.9.
            self.elastic_alpha = 0.9 / self.trainer.n_workers

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        trainer = self._require_trainer()
        center = flatten_parameters(trainer.model)
        local_params = [center.copy() for _ in range(trainer.n_workers)]

        def step(batches, lr: float, index: int, n_iterations: int) -> Dict[str, float]:
            sync_now = (index + 1) % self.local_steps == 0 or index == n_iterations - 1
            return self._iteration(trainer, batches, lr, local_params, center, sync_now)

        return self.run_lockstep(
            step, after_epoch=lambda: load_flat_parameters(trainer.model, center)
        )

    # ------------------------------------------------------------------ #
    def _iteration(
        self,
        trainer,
        batches,
        lr: float,
        local_params: List[np.ndarray],
        center: np.ndarray,
        sync_now: bool,
    ) -> Dict[str, float]:
        n_workers = trainer.n_workers
        alpha = float(self.elastic_alpha)
        losses = np.zeros(n_workers)

        if trainer.adversary.corrupts_data:
            batches = [
                trainer.adversary.corrupt_batch(trainer.iteration, rank, batches[rank])
                for rank in range(n_workers)
            ]
        trace = trainer.obs.trace_enabled
        v_round = trainer.clock.now
        v_sync = v_round + trainer.speed_model.slowest_batch_seconds()
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
        comm_elements = 0.0
        spread = 0.0
        if sync_now:
            server = trainer.spec.cluster.server_rank
            server_label = "server" if server is None else int(server)
            push_events = trainer.obs.events.has_subscribers("push")
            pull_events = trainer.obs.events.has_subscribers("pull")
            comm_records_before = len(trainer.backend.meter.records)
            diffs = [params - center for params in local_params]
            for rank in range(n_workers):
                local_params[rank] = local_params[rank] - alpha * diffs[rank]
                trainer.backend.push(rank, trainer.n_gradients, tag="elastic-push")
                trainer.backend.pull(rank, trainer.n_gradients, tag="elastic-pull")
                if trace:
                    trainer.obs.tracer.record(
                        "push_pull", "push", trainer.iteration, rank,
                        v_sync, v_sync,
                        src=int(rank), dst=server_label,
                        elements=int(trainer.n_gradients),
                    )
                    trainer.obs.tracer.record(
                        "push_pull", "pull", trainer.iteration, rank,
                        v_sync, v_sync,
                        src=server_label, dst=int(rank),
                        elements=int(trainer.n_gradients),
                    )
                if push_events:
                    trainer.obs.events.emit(
                        "push",
                        {"iteration": trainer.iteration, "worker": int(rank),
                         "elements": int(trainer.n_gradients)},
                    )
                if pull_events:
                    trainer.obs.events.emit(
                        "pull",
                        {"iteration": trainer.iteration, "worker": int(rank),
                         "elements": int(trainer.n_gradients)},
                    )
            center += (alpha / n_workers) * np.sum(diffs, axis=0)
            spread = float(np.mean([np.linalg.norm(d) for d in diffs]))
            communication_seconds = trainer._model_communication(comm_records_before)
            # Pushes are sent-side-only records, pulls received-side-only:
            # the sum counts each server-link payload exactly once.
            comm_elements = sum(
                record.total_sent + record.total_received
                for record in trainer.backend.meter.records[comm_records_before:]
            )
            if trace:
                # Group-level span: the elastic exchange is what the
                # lock-step round pays past the slowest worker's compute.
                trainer.obs.tracer.record(
                    "push_pull", "elastic_exchange", trainer.iteration, None,
                    v_sync, v_sync + communication_seconds,
                    elements=int(comm_elements),
                )

        return self.finish_round(
            RoundRecord(
                losses=losses, lr=lr, union_size=trainer.n_gradients if sync_now else 0,
                communication=communication_seconds, communication_elements=float(comm_elements),
                extras={"elastic_spread": spread}, sync=sync_now,
            )
        )
