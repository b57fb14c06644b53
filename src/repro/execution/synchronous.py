"""Bulk-synchronous execution: the paper's Algorithm 1 loop.

Every round each worker draws one batch and the group runs
:meth:`~repro.training.trainer.DistributedTrainer.train_iteration` --
local gradients, error-feedback accumulation, then the sparsified exchange
-- inside the shared lock-step epoch loop
(:meth:`~repro.execution.base.ExecutionModel.run_lockstep`).

On the virtual clock every round costs ``max_r(compute_r) + collectives``:
the whole group waits for the slowest worker, which is exactly the
straggler sensitivity the asynchronous schedules remove.
"""

from __future__ import annotations

from typing import Dict

from repro.execution.base import ExecutionModel

__all__ = ["SynchronousExecution"]


class SynchronousExecution(ExecutionModel):
    """Lock-step BSP schedule (the paper's Algorithm 1)."""

    name = "synchronous"
    has_local_models = False
    uses_parameter_server = False

    def run(self) -> Dict[str, float]:
        trainer = self._require_trainer()
        return self.run_lockstep(lambda batches, lr, *_: trainer.train_iteration(batches, lr))
