"""Asynchronous bounded-staleness execution (DOWNPOUR-style push/pull).

A simulated parameter server holds the model; every worker loops
independently: pull the current parameters, compute one batch at its own
speed, sparsify its error-feedback accumulator, push the selected values.
The schedule is event-driven on the virtual clock:

- the server applies a round whenever the earliest in-flight worker
  finishes -- unless some worker's in-flight gradient is based on
  parameters ``max_staleness`` or more versions old, in which case the
  server *waits* for those workers first (the bounded-staleness barrier;
  ``max_staleness=0`` degenerates to lock-step BSP);
- every push arriving by the round time joins the round.  Contributions are
  combined by the trainer's aggregator on the union of their index sets;
  the :class:`~repro.aggregators.staleness.StalenessWeightedMeanAggregator`
  (the default for this schedule) receives each contribution's age in
  server versions and decays old pushes;
- the applied update is scaled by ``arrived / n_workers`` so one full cycle
  of pushes carries the same weight as one BSP round, keeping learning
  rates comparable across schedules;
- arrived workers pull fresh parameters and start their next batch.  Pushes
  and pulls are priced point-to-point (``push_cost`` / ``pull_cost``), not
  as collectives.

Per epoch the schedule consumes the same total batch budget as BSP
(``n_workers * iterations``), but fast workers contribute more batches
while the straggler contributes few (stale) ones -- so under heterogeneous
profiles the virtual makespan drops below the synchronous schedule, which
pays ``max_r(compute_r)`` every single round.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.execution.base import ExecutionModel, RoundRecord, flatten_parameters, load_flat_parameters
from repro.utils.topk_ops import union_indices

__all__ = ["AsyncBSPExecution"]


class AsyncBSPExecution(ExecutionModel):
    """Bounded-staleness parameter-server schedule."""

    name = "async_bsp"
    has_local_models = True
    uses_parameter_server = True
    round_counter = "rounds_total"

    def __init__(self, max_staleness: int = 4, **kwargs) -> None:
        super().__init__(**kwargs)
        if max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
        self.max_staleness = int(max_staleness)

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        trainer = self._require_trainer()
        last_summary: Dict[str, float] = {}
        server_params = flatten_parameters(trainer.model)
        for epoch in range(trainer.spec.optimizer.epochs):
            server_params, epoch_metrics = self._run_epoch(trainer, server_params)
            load_flat_parameters(trainer.model, server_params)
            last_summary = trainer.log_epoch_summary(epoch, epoch_metrics)
        return last_summary

    # ------------------------------------------------------------------ #
    def _run_epoch(self, trainer, server_params: np.ndarray):
        n_workers = trainer.n_workers
        budget = trainer.epoch_iteration_budget() * n_workers
        iterators = [iter(loader) for loader in trainer.loaders]

        version = 0
        epoch_start = trainer.clock.now
        snapshots = [server_params.copy() for _ in range(n_workers)]
        base_version = [0] * n_workers
        next_done = np.array(
            [epoch_start + trainer.speed_model.batch_seconds(r) for r in range(n_workers)]
        )

        arrivals = 0
        epoch_metrics: List[Dict[str, float]] = []
        while arrivals < budget:
            # Bounded staleness: before advancing, the server must wait for
            # every worker whose in-flight gradient is already max_staleness
            # versions old (max_staleness=0 degenerates to lock-step BSP).
            forced = [
                r for r in range(n_workers) if version - base_version[r] >= self.max_staleness
            ]
            if forced:
                round_time = float(max(next_done[r] for r in forced))
            else:
                round_time = float(next_done.min())
            arrived = [r for r in range(n_workers) if next_done[r] <= round_time]
            # Never process more arrivals than the epoch budget allows.
            arrived = arrived[: budget - arrivals]

            metrics = self._apply_round(
                trainer, server_params, snapshots, base_version, version, arrived, iterators,
                round_time, next_done,
            )
            epoch_metrics.append(metrics)
            version += 1
            arrivals += len(arrived)

            # Arrived workers pull fresh parameters and start the next batch.
            server_ready = trainer.clock.now
            for r in arrived:
                snapshots[r] = server_params.copy()
                base_version[r] = version
                trainer.clock.worker_time[r] = server_ready
                next_done[r] = server_ready + trainer.speed_model.batch_seconds(r)
        return server_params, epoch_metrics

    # ------------------------------------------------------------------ #
    def _next_batch(self, trainer, iterators, rank: int):
        """Draw the worker's next batch, cycling its shard when exhausted."""
        try:
            return next(iterators[rank])
        except StopIteration:
            iterators[rank] = iter(trainer.loaders[rank])
            return next(iterators[rank])

    def _apply_round(
        self,
        trainer,
        server_params: np.ndarray,
        snapshots: List[np.ndarray],
        base_version: List[int],
        version: int,
        arrived: List[int],
        iterators,
        round_time: float,
        next_done: np.ndarray,
    ) -> Dict[str, float]:
        n_workers = trainer.n_workers
        lr = trainer.schedule.lr_at(trainer.iteration)
        ages = np.array([version - base_version[r] for r in arrived], dtype=np.float64)
        trace = trainer.obs.trace_enabled

        # Each arrived worker computed its gradient at the (possibly stale)
        # parameters it pulled, on its own next batch.
        losses = []
        accumulators = []
        honest_accumulators = []
        per_worker_indices = []
        selection_seconds = 0.0
        comm_records_before = len(trainer.backend.meter.records)
        batches = []
        for r in arrived:
            batch = self._next_batch(trainer, iterators, r)
            if trainer.adversary.corrupts_data and trainer.adversary.is_byzantine(r):
                batch = trainer.adversary.corrupt_batch(trainer.iteration, r, batch)
            batches.append(batch)
        jobs = [(r, snapshots[r], batches[pos]) for pos, r in enumerate(arrived)]
        for pos, (loss, grad, host_start, host_end) in enumerate(
            trainer.batch_gradients(jobs)
        ):
            r = arrived[pos]
            if trace:
                # Event-driven schedule: the batch *finished* at next_done[r]
                # on the virtual clock, overlapping other workers' compute.
                trainer.obs.tracer.record(
                    "compute", "async_batch", trainer.iteration, r,
                    float(next_done[r]) - trainer.speed_model.batch_seconds(r),
                    float(next_done[r]),
                    host=(host_start, host_end),
                    staleness=float(ages[pos]),
                )
            losses.append(loss)
            acc = trainer.memories[r].accumulate(grad, lr)
            honest_accumulators.append(acc)
            if trainer.adversary.n_byzantine and trainer.adversary.is_byzantine(r):
                acc = trainer.adversary.corrupt_accumulator(trainer.iteration, r, acc)
            accumulators.append(acc)

        # The round plan over the arrived accumulators (the group view the
        # server sees), rooted at the first arrival.  No collective runs in
        # this schedule, so no backend is passed.
        trainer.sparsifier.coordinate(trainer.iteration, accumulators, root=arrived[0], ranks=arrived)
        for pos, r in enumerate(arrived):
            result = trainer.sparsifier.select(trainer.iteration, r, accumulators[pos])
            per_worker_indices.append(np.asarray(result.indices, dtype=np.int64))
            selection_seconds = max(selection_seconds, result.selection_seconds)

        union = union_indices(np.concatenate(per_worker_indices))
        matrix = np.stack([acc[union] for acc in accumulators])
        if hasattr(trainer.aggregator, "set_ages"):
            trainer.aggregator.set_ages(ages)
        aggregated = trainer.aggregator.aggregate(matrix, indices=union)

        # One full cycle of pushes should weigh like one BSP round.
        update = np.zeros(trainer.n_gradients, dtype=np.float64)
        update[union] = aggregated * (len(arrived) / n_workers)
        load_flat_parameters(trainer.model, server_params)
        trainer.optimizer.apply_update(update)
        server_params[:] = flatten_parameters(trainer.model)

        for pos, r in enumerate(arrived):
            trainer.memories[r].update(honest_accumulators[pos], union)

        # Server traffic: the aggregation reads every arrived worker's
        # values over the round's index union (mirroring the BSP exchange,
        # where workers transmit union-sized value vectors), so each push
        # is priced as the worker's own indices plus union-sized values --
        # not just its own selection.  The pull returns dense parameters.
        server = trainer.spec.cluster.server_rank
        server_label = "server" if server is None else int(server)
        push_events = trainer.obs.events.has_subscribers("push")
        pull_events = trainer.obs.events.has_subscribers("pull")
        for pos, r in enumerate(arrived):
            payload = int(per_worker_indices[pos].shape[0]) + int(union.shape[0])
            trainer.backend.push(r, payload, tag="ps-push")
            trainer.backend.pull(r, trainer.n_gradients, tag="ps-pull")
            if trace:
                trainer.obs.tracer.record(
                    "push_pull", "push", trainer.iteration, r,
                    round_time, round_time,
                    src=int(r), dst=server_label, elements=payload,
                )
                trainer.obs.tracer.record(
                    "push_pull", "pull", trainer.iteration, r,
                    round_time, round_time,
                    src=server_label, dst=int(r), elements=int(trainer.n_gradients),
                )
            if push_events:
                trainer.obs.events.emit(
                    "push",
                    {"iteration": trainer.iteration, "worker": int(r),
                     "version": version, "elements": payload},
                )
            if pull_events:
                trainer.obs.events.emit(
                    "pull",
                    {"iteration": trainer.iteration, "worker": int(r),
                     "version": version + 1, "elements": int(trainer.n_gradients)},
                )
        communication_seconds = trainer._model_communication(comm_records_before)
        if trace:
            # The round's server traffic as one group-level span; its
            # duration is what the server round adds past round_time.
            trainer.obs.tracer.record(
                "push_pull", "server_round", trainer.iteration, None,
                round_time, round_time + communication_seconds,
                arrived=len(arrived),
            )
        # Push records carry payload on the sent side only, pulls on the
        # received side only, so summing both counts each server-link
        # payload exactly once.
        comm_elements = sum(
            record.total_sent + record.total_received
            for record in trainer.backend.meter.records[comm_records_before:]
        )

        if trainer.obs.metrics_enabled:
            obs_metrics = trainer.obs.metrics
            obs_metrics.histogram("arrivals_per_round").observe(float(len(arrived)))
            staleness = obs_metrics.histogram("staleness_observed")
            for age in ages:
                staleness.observe(float(age))
        return self.finish_round(
            RoundRecord(
                losses=losses, lr=lr, union_size=int(union.shape[0]),
                communication=communication_seconds, communication_elements=float(comm_elements),
                compute=trainer.speed_model.base_compute_seconds, selection=selection_seconds,
                extras={"staleness": float(ages.mean()), "n_arrived": float(len(arrived))},
                event={"version": version, "arrived": list(arrived)},
                round_end=round_time + communication_seconds,
            )
        )
