"""Gossip execution: server-less neighbour averaging of sparse deltas.

Decentralised SGD replaces both the parameter server and the collectives
with point-to-point exchanges over the cluster topology's edges: every
iteration each worker computes a gradient on its *own* parameter copy,
accumulates it into its error-feedback memory, sparsifies the accumulator,
and sends the selected ``(index, value)`` pairs to its direct neighbours.
Each worker then averages its own sparse delta with the ones it received
(uniform weights over the closed neighbourhood, the standard symmetric
gossip matrix for a regular graph) and applies the average to its local
parameters.  Unsent accumulator mass stays in the worker's error-feedback
memory exactly as in the BSP exchange.

There is no server and no collective anywhere in the schedule, so a gossip
run records only ``send`` traffic -- neighbour messages priced
point-to-point over single topology edges.  On the virtual clock a round
costs ``max_r(compute_r)`` (the group advances in lock step) plus the
busiest worker's inbound message time: edges are disjoint links, so
neighbour exchanges overlap and the round ends when the most-connected
worker has drained its inbox.

The topology comes from ``ClusterSpec.topology``; when none is
configured the schedule's declared ``default_topology`` (``ring``) is
used.  Evaluation and the epoch summary use the consensus average of the
local parameter copies, mirroring how decentralised training is evaluated
in practice.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.execution.base import ExecutionModel, RoundRecord, flatten_parameters, load_flat_parameters
from repro.utils.topk_ops import union_indices

__all__ = ["GossipExecution"]


class GossipExecution(ExecutionModel):
    """Ring/graph gossip schedule (no server, no collectives)."""

    name = "gossip"
    has_local_models = True
    uses_parameter_server = False

    def _post_bind(self) -> None:
        # resolve() has refused edge-less topologies, so there is a graph.
        self._neighbors = {
            rank: self.trainer.topology.neighbors(rank)
            for rank in range(self.trainer.n_workers)
        }

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        trainer = self._require_trainer()
        reference = flatten_parameters(trainer.model)
        local_params = [reference.copy() for _ in range(trainer.n_workers)]
        return self.run_lockstep(
            lambda batches, lr, *_: self._iteration(trainer, batches, lr, local_params),
            # Consensus average for evaluation and the epoch summary.
            after_epoch=lambda: load_flat_parameters(
                trainer.model, np.mean(local_params, axis=0)
            ),
        )

    # ------------------------------------------------------------------ #
    def _iteration(
        self,
        trainer,
        batches,
        lr: float,
        local_params: List[np.ndarray],
    ) -> Dict[str, float]:
        n_workers = trainer.n_workers
        losses = np.zeros(n_workers)

        # 1-2. Local gradients on each worker's own parameters, accumulated
        # into its error-feedback memory (same hooks as the BSP loop:
        # data poisoning before the gradient, accumulator attacks after).
        if trainer.adversary.corrupts_data:
            batches = [
                trainer.adversary.corrupt_batch(trainer.iteration, rank, batches[rank])
                for rank in range(n_workers)
            ]
        trace = trainer.obs.trace_enabled
        v_round = trainer.clock.now
        v_sync = v_round + trainer.speed_model.slowest_batch_seconds()
        accumulators: List[np.ndarray] = []
        jobs = [(rank, local_params[rank], batches[rank]) for rank in range(n_workers)]
        for rank, (loss, grad, host_start, host_end) in enumerate(
            trainer.batch_gradients(jobs)
        ):
            losses[rank] = loss
            accumulators.append(trainer.memories[rank].accumulate(grad, lr))
            if trace:
                trainer.obs.tracer.record(
                    "compute", "local_gradient", trainer.iteration, rank,
                    v_round, v_round + trainer.speed_model.batch_seconds(rank),
                    host=(host_start, host_end),
                )
        honest_accumulators = accumulators
        if trainer.adversary.n_byzantine:
            accumulators = trainer.adversary.corrupt_accumulators(trainer.iteration, accumulators)

        # 3-4. The round plan, then per-worker selection.  There is no
        # collective here (no backend, no traffic), and rank 0 is the plan's
        # root every round.
        trainer.sparsifier.coordinate(trainer.iteration, accumulators, root=0)
        selections: List[np.ndarray] = []
        selection_seconds = 0.0
        for rank in range(n_workers):
            result = trainer.sparsifier.select(trainer.iteration, rank, accumulators[rank])
            selections.append(np.asarray(result.indices, dtype=np.int64))
            selection_seconds = max(selection_seconds, result.selection_seconds)

        # 5-6. Neighbour exchange and closed-neighbourhood averaging.  Each
        # neighbour message carries the sender's indices and values
        # (2 * k_j elements) over one topology edge; inbound messages per
        # worker are serialised, distinct edges overlap.
        comm_records_before = len(trainer.backend.meter.records)
        inbound_seconds = np.zeros(n_workers)
        for rank in range(n_workers):
            for neighbor in self._neighbors[rank]:
                payload = 2 * int(selections[neighbor].shape[0])
                trainer.backend.send(neighbor, rank, payload, tag="gossip")
                message_seconds = trainer.point_to_point_seconds(
                    payload, neighbor, rank
                )
                if trace:
                    # One span per neighbour message on the receiver's row,
                    # serialised after its earlier inbound messages (the
                    # pricing rule above drains each inbox in order).
                    trainer.obs.tracer.record(
                        "collective", "gossip_message", trainer.iteration, rank,
                        v_sync + inbound_seconds[rank],
                        v_sync + inbound_seconds[rank] + message_seconds,
                        src=int(neighbor), dst=int(rank), elements=payload,
                    )
                inbound_seconds[rank] += message_seconds
        communication_seconds = float(inbound_seconds.max()) if n_workers > 1 else 0.0
        if trace:
            # The group-level round span: the busiest worker's inbox drain
            # is what the lock-step round waits for, so this span's duration
            # is exactly the round's virtual communication cost (it
            # dominates the per-message spans in the reconciliation).
            trainer.obs.tracer.record(
                "collective", "gossip_round", trainer.iteration, None,
                v_sync, v_sync + communication_seconds,
            )
        comm_elements = sum(
            record.total_sent
            for record in trainer.backend.meter.records[comm_records_before:]
        )

        for rank in range(n_workers):
            group = [rank] + self._neighbors[rank]
            union = union_indices(np.concatenate([selections[j] for j in group]))
            average = np.zeros(union.shape[0], dtype=np.float64)
            for j in group:
                positions = np.searchsorted(union, selections[j])
                average[positions] += accumulators[j][selections[j]]
            average /= len(group)
            local_params[rank][union] -= average

        # 7. Error feedback: each worker zeroes what it put on the wire.
        for rank in range(n_workers):
            trainer.memories[rank].update(honest_accumulators[rank], selections[rank])

        if trainer.obs.metrics_enabled:
            trainer.obs.metrics.histogram("communication_seconds").observe(communication_seconds)
            trainer.obs.metrics.histogram("communication_elements").observe(float(comm_elements))
        return self.finish_round(
            RoundRecord(
                losses=losses, lr=lr, union_size=int(union_indices(np.concatenate(selections)).shape[0]),
                communication=communication_seconds, communication_elements=float(comm_elements),
                selection=selection_seconds,
            )
        )
