"""Bulk-synchronous execution: the paper's Algorithm 1 loop, verbatim.

This is the pre-refactor :class:`DistributedTrainer` epoch loop extracted
behind the :class:`ExecutionModel` interface.  It delegates straight to
``trainer.train_epoch`` so a benign run under ``synchronous`` is
bit-identical to the trainer before execution models existed: the same
batches, the same RNG consumption order, the same loss series.

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
        last_summary: Dict[str, float] = {}
        for epoch in range(trainer.spec.optimizer.epochs):
            last_summary = trainer.train_epoch(epoch)
        return last_summary
