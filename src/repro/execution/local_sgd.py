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

from repro.execution.base import ExecutionModel, RoundRecord, flatten_parameters, load_flat_parameters

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
        reference = flatten_parameters(trainer.model)
        local_params = [reference.copy() for _ in range(trainer.n_workers)]

        def step(batches, lr: float, index: int, n_iterations: int) -> Dict[str, float]:
            nonlocal reference
            sync_now = (index + 1) % self.local_steps == 0 or index == n_iterations - 1
            metrics = self._iteration(trainer, batches, lr, local_params, reference, sync_now)
            if sync_now:
                reference = flatten_parameters(trainer.model)
                local_params[:] = [reference.copy() for _ in local_params]
            return metrics

        # The shared model already holds the last sync result.
        return self.run_lockstep(step)

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
        # the trainer's compute seam.
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

        if not sync_now:
            return self.finish_round(
                RoundRecord(
                    losses=losses, lr=lr, union_size=0, communication=0.0,
                    communication_elements=0.0, selection=0.0, partition=0.0, sync=False,
                )
            )
        # Contribution: the parameter delta since the last sync, through the
        # full Algorithm-1 sparsify/aggregate path (lr already baked into
        # the local steps, so accumulate with lr=1).
        deltas = [reference - params for params in local_params]
        accumulators = [
            trainer.memories[rank].accumulate(deltas[rank], 1.0) for rank in range(n_workers)
        ]
        honest_accumulators = accumulators
        if trainer.adversary.n_byzantine:
            accumulators = trainer.adversary.corrupt_accumulators(trainer.iteration, accumulators)
        load_flat_parameters(trainer.model, reference)
        exchange = trainer.sparse_exchange(accumulators, honest_accumulators)
        return self.finish_round(
            RoundRecord(
                losses=losses, lr=lr, union_size=int(exchange["global_indices"].shape[0]),
                communication=exchange["communication_seconds"],
                communication_elements=float(exchange["comm_elements"]),
                selection=float(exchange["selection_times"].max()),
                partition=float(exchange["partition_times"].max()), sync=True,
            )
        )
