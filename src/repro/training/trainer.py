"""Distributed SGD with error feedback (Algorithm 1 of the paper).

:class:`DistributedTrainer` simulates ``n`` data-parallel workers inside one
process.  All workers share the model parameters (synchronous data-parallel
training keeps them bit-identical anyway), but each worker has its own data
shard, its own mini-batch stream, and its own error-feedback memory, so the
per-worker accumulators -- and therefore the index sets the sparsifier
selects -- genuinely differ between workers.  That difference is what
produces gradient build-up for Top-k and what DEFT's disjoint allocation
removes.

Per iteration (paper's Algorithm 1):

1. every worker computes its local gradient on its own batch,
2. ``acc_i = e_i + lr * grad_i``,
3. the sparsifier's ``coordinate`` phase builds the round plan (CLT-k
   leader broadcast, DEFT allocation broadcast),
4. every worker selects indices from its own ``acc_i``,
5. the index sets are all-gathered and their union formed,
6. each worker contributes ``acc_i[union]``; the contributions are combined
   by the configured :class:`~repro.aggregators.Aggregator` and the model
   is updated with the result.  The paper's plain mean uses a sum
   all-reduce exactly as in Algorithm 1; robust rules (median, Krum, ...)
   need every worker's vector at the aggregation point, so they all-gather
   the contributions instead,
7. the transmitted entries of ``acc_i`` are zeroed and the rest becomes
   ``e_{i,t+1}``.

*When* those steps run -- every iteration in lock step, every H iterations,
or asynchronously against a parameter server -- is decided by the
configured :class:`~repro.execution.ExecutionModel`; the default
``synchronous`` schedule is the loop above, verbatim.  A per-worker
compute-speed model (``straggler_profile``) and a virtual clock price each
schedule, so runs report an estimated wall-clock that accounts for
stragglers.

An optional :class:`~repro.attacks.Adversary` corrupts a configurable
subset of worker ranks: data poisoning hooks in before the local gradient
computation, gradient attacks right after the error-feedback accumulation
(step 2) -- so a Byzantine worker controls everything it emits downstream,
including the indices it selects.

The trainer records, per iteration: training loss, actual density, error
norm, selection/partition/communication times (Figure 1, 4, 5, 6, 7 series),
the virtual time, and per epoch: the task's evaluation metric (Figure 3, 8,
10 series).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.aggregators.registry import build_aggregator
from repro.attacks.registry import build_attack
from repro.comm.cost_model import AlphaBetaModel
from repro.data.dataloader import DataLoader
from repro.data.partition import shard_dataset
from repro.comm.backend import CollectiveBackend
from repro.comm.simulated import SimulatedBackend
from repro.execution.base import RoundRecord, load_flat_parameters
from repro.execution.straggler import VirtualClock, WorkerSpeedModel
from repro.observability import Observability
from repro.sparsifiers.base import GradientLayout, Sparsifier
from repro.training.error_feedback import ErrorFeedbackMemory
from repro.training.lr_schedule import ConstantLR
from repro.training.optimizers import SGD, flatten_gradients
from repro.training.tasks import Task
from repro.training.timing import TimingAccumulator
from repro.utils.logging import RunLogger
from repro.utils.seeding import SeedSequenceFactory
from repro.utils.topk_ops import union_indices

if TYPE_CHECKING:  # repro.api builds on this module; importing it here would cycle
    from repro.api.spec import RunSpec

__all__ = ["TrainingResult", "DistributedTrainer"]


@dataclass
class TrainingResult:
    """Everything a run produced."""

    logger: RunLogger
    timing: TimingAccumulator
    final_metrics: Dict[str, float] = field(default_factory=dict)
    iterations_run: int = 0
    epochs_run: int = 0
    #: Modelled makespan of the run on the virtual clock (compute waits,
    #: collective and server traffic included).
    estimated_wallclock: float = 0.0

    def series(self, name: str):
        return self.logger.series(name)

    def mean_density(self) -> float:
        return self.logger.series("density").mean()

    def final_metric(self, name: str) -> Optional[float]:
        return self.final_metrics.get(name)


class DistributedTrainer:
    """Simulated data-parallel trainer implementing Algorithm 1.

    The epoch/iteration loop itself lives in the configured
    :class:`~repro.execution.ExecutionModel`; the trainer owns the shared
    state (model, optimizer, error-feedback memories, backend, cost model,
    virtual clock) and the Algorithm-1 building blocks the schedules
    compose.
    """

    def __init__(
        self,
        task: Task,
        sparsifier: Sparsifier,
        spec: "RunSpec",
        backend: Optional[CollectiveBackend] = None,
        run_name: Optional[str] = None,
    ) -> None:
        """``spec`` must be resolved (:meth:`~repro.api.RunSpec.resolve`):
        the trainer reads it as-is and neither fills presets nor
        re-validates.  It supplies every knob and names every component
        the trainer builds; only the ``sparsifier`` instance takes the
        place of the one the spec names.
        """
        if None in (
            spec.optimizer.lr, spec.optimizer.batch_size, spec.optimizer.epochs,
            spec.robustness.aggregator,
        ):
            raise ValueError(
                "DistributedTrainer needs a resolved spec; pass spec.resolve()"
            )
        self.task = task
        self.sparsifier = sparsifier
        self.spec = spec
        self.n_workers = n_workers = spec.cluster.n_workers
        seed = spec.seed
        self.backend = backend if backend is not None else SimulatedBackend(n_workers)
        if self.backend.n_workers != n_workers:
            raise ValueError("backend worker count does not match the training configuration")
        self.cost_model = AlphaBetaModel()
        robustness = spec.robustness
        self.aggregator = build_aggregator(
            robustness.aggregator,
            n_byzantine=robustness.n_byzantine,
            **robustness.aggregator_kwargs,
        )
        self.adversary = build_attack(
            robustness.attack,
            n_byzantine=robustness.n_byzantine,
            **robustness.attack_kwargs,
        )

        seeds = SeedSequenceFactory(seed)
        self.model = task.build_model(rng=seeds.rng("model"))
        self.layout = GradientLayout.from_model(self.model)
        self.n_gradients = self.layout.total_size
        self.sparsifier.setup(self.layout, n_workers, seed=seed)
        self.aggregator.setup(n_workers)
        self.adversary.setup(n_workers, self.n_gradients, seed=seed)

        self.optimizer = SGD(
            self.model,
            momentum=spec.optimizer.momentum,
            weight_decay=spec.optimizer.weight_decay,
        )
        self.memories = [ErrorFeedbackMemory(self.n_gradients) for _ in range(n_workers)]
        self.loaders = self._build_loaders(seeds)
        self.schedule = ConstantLR(spec.optimizer.lr)

        # Imported here rather than at module level: the registry pulls in
        # the concrete execution models, which import training submodules.
        from repro.execution.registry import build_execution_model

        # Topology-aware pricing: the modelled graph (None = the flat
        # alpha-beta layout), the diameter scaling of collective latency,
        # and the per-rank hop count to the parameter server.
        from repro.comm.topology import build_topology

        server_rank = spec.cluster.server_rank
        self.topology = build_topology(spec.cluster.topology, n_workers)
        self._latency_scale = (
            self.topology.latency_scale() if self.topology is not None else 1.0
        )
        if self.topology is not None and server_rank is not None:
            self._server_hops = [
                float(self.topology.path_hops(rank, server_rank))
                for rank in range(n_workers)
            ]
        else:
            self._server_hops = [1.0] * n_workers

        self.speed_model = WorkerSpeedModel(
            n_workers,
            base_compute_seconds=spec.cluster.base_compute_seconds,
            profile=spec.cluster.straggler_profile,
            seed=seed,
        )
        self.clock = VirtualClock(n_workers)
        self.execution = build_execution_model(
            spec.execution.model,
            local_steps=spec.execution.local_steps,
            max_staleness=spec.execution.max_staleness,
            **spec.execution.kwargs,
        )

        name = (
            run_name
            or spec.run_name
            or f"{task.name}-{sparsifier.name}-w{n_workers}-d{sparsifier.density}"
        )
        # Observability hub: span tracer + metrics registry + event bus.
        # Disabled flags map to shared no-op collaborators, so the
        # instrumentation below records nothing and costs almost nothing
        # unless the run asked for it.
        self.obs = Observability(
            spec.observability, n_workers=n_workers, run_name=name
        )
        self.logger = RunLogger(run_name=name)
        self.logger.log_metadata(
            task=task.name,
            sparsifier=sparsifier.name,
            density=sparsifier.density,
            n_workers=n_workers,
            batch_size=spec.optimizer.batch_size,
            n_gradients=self.n_gradients,
            seed=seed,
            aggregator=self.aggregator.name,
            attack=self.adversary.name,
            n_byzantine=self.adversary.n_byzantine,
            execution=self.execution.name,
            straggler_profile=spec.cluster.straggler_profile,
            topology=spec.cluster.topology or "flat",
            server_rank=server_rank,
        )
        self.timing = TimingAccumulator()
        self.iteration = 0
        # Reusable hot-path buffers for sparse_exchange: the flattened
        # per-worker contribution matrix (grown geometrically as the index
        # union widens) and the dense update vector (zero except at the
        # union, which is re-zeroed after each apply).
        self._contrib_buffer = np.empty((n_workers, 0), dtype=np.float64)
        self._update_buffer = np.zeros(self.n_gradients, dtype=np.float64)
        # One flat float64 gradient per rank, rewritten by every
        # worker_gradient call.
        self._grad_buffers = np.empty((n_workers, self.n_gradients), dtype=np.float64)
        self.execution.bind(self)

    # ------------------------------------------------------------------ #
    def _build_loaders(self, seeds: SeedSequenceFactory) -> List[DataLoader]:
        dataset = self.task.train_dataset()
        loaders = []
        for rank in range(self.n_workers):
            shard = shard_dataset(dataset, self.n_workers, rank, seed=self.spec.seed)
            loaders.append(
                DataLoader(
                    shard,
                    batch_size=self.spec.optimizer.batch_size,
                    shuffle=True,
                    rng=seeds.rng("loader", rank),
                )
            )
        return loaders

    # ------------------------------------------------------------------ #
    # Algorithm-1 building blocks shared by the execution models.
    # ------------------------------------------------------------------ #
    def worker_gradient(self, rank: int, batch) -> tuple:
        """Loss and flat gradient of one worker's batch on the current model.

        Execution models with diverging local parameters load the worker's
        copy into the shared model before calling this.  The gradient is
        written into the rank's reused buffer: it stays valid until the
        next ``worker_gradient`` call for the same ``rank``.
        """
        self.model.zero_grad()
        loss = self.task.compute_loss(self.model, batch)
        loss.backward()
        grad_flat = flatten_gradients(self.model, out=self._grad_buffers[rank])
        self.model.zero_grad()
        return float(loss.item()), grad_flat

    def batch_gradients(self, jobs: Sequence[tuple]) -> List[tuple]:
        """Evaluate a round of ``(rank, params, batch)`` gradient jobs.

        This is the compute seam every schedule funnels its per-rank
        forward/backward work through.  ``params is None`` means "the
        shared model's current parameters"; a vector means "load this
        worker's own copy first".  Returns one ``(loss, grad_flat,
        host_start, host_end)`` tuple per job, in job order.

        Aliasing: a job's ``grad_flat`` may be the rank's reused gradient
        buffer, valid until that rank's next :meth:`worker_gradient` (so
        one rank must not appear twice in ``jobs``); callers that keep a
        gradient past that point copy it.
        """
        results = []
        for rank, params, batch in jobs:
            if params is not None:
                load_flat_parameters(self.model, params)
            start = time.perf_counter()
            loss_value, grad_flat = self.worker_gradient(rank, batch)
            results.append((loss_value, grad_flat, start, time.perf_counter()))
        return results

    def sparse_exchange(self, accumulators: Sequence[np.ndarray], honest_accumulators: Sequence[np.ndarray]) -> Dict:
        """Steps 3-7 of Algorithm 1: coordinate, select, aggregate, apply.

        ``accumulators`` is what each worker puts on the wire (possibly
        corrupted), ``honest_accumulators`` is what feeds the error-feedback
        update.  Returns the per-step measurements the loggers need.
        """
        n_workers = self.n_workers
        trace = self.obs.trace_enabled
        # All exchange phases happen at the round's synchronization point
        # on the virtual clock: compute has finished (the slowest worker
        # sets the pace), the collective is about to start.
        v_sync = self.clock.now + self.speed_model.slowest_batch_seconds()

        # 3. The round plan (CLT-k leader selection, DEFT allocation).
        comm_records_before = len(self.backend.meter.records)
        encode_start = time.perf_counter()
        self.sparsifier.coordinate(self.iteration, accumulators, self.backend)
        if trace:
            self.obs.tracer.record(
                "encode", "coordinate", self.iteration, None, v_sync, v_sync,
                host=(encode_start, time.perf_counter()),
            )

        # 4. Per-worker selection.
        selection_times = np.zeros(n_workers)
        partition_times = np.zeros(n_workers)
        analytic_costs = np.zeros(n_workers)
        per_worker_indices: List[np.ndarray] = []
        per_worker_k = np.zeros(n_workers, dtype=np.int64)
        for rank in range(n_workers):
            select_start = time.perf_counter()
            result = self.sparsifier.select(self.iteration, rank, accumulators[rank])
            if trace:
                self.obs.tracer.record(
                    "sparsify", "select", self.iteration, rank, v_sync, v_sync,
                    host=(select_start, time.perf_counter()),
                    k=int(result.k_selected),
                )
            per_worker_indices.append(np.asarray(result.indices, dtype=np.int64))
            per_worker_k[rank] = result.k_selected
            selection_times[rank] = result.selection_seconds
            analytic_costs[rank] = result.analytic_cost
            partition_times[rank] = (
                result.info.get("partition_seconds", 0.0)
                + result.info.get("overhead_seconds", 0.0)
                + result.info.get("coordinate_seconds", 0.0)
            )

        # 5. All-gather of indices; the union is what every worker must send values for.
        gathered = self.backend.allgather(per_worker_indices, tag="indices")
        global_indices = union_indices(gathered[0])

        # 6. Aggregation of the selected values, then the model update.  The
        # mean keeps the paper's sum all-reduce; robust rules need each
        # worker's vector and use the gather-based path.  The flattened
        # contribution matrix lives in a buffer reused across iterations
        # (gathering into it instead of re-copying per step), and the
        # metered row collectives skip the simulation's per-rank copies.
        matrix = self._contributions(accumulators, global_indices)
        if self.obs.events.has_subscribers("before_aggregation"):
            self.obs.events.emit(
                "before_aggregation",
                {
                    "iteration": self.iteration,
                    "indices": global_indices,
                    "contributions": matrix,
                },
            )
        aggregate_start = time.perf_counter()
        if self.aggregator.requires_individual_contributions:
            matrix = self.backend.allgather_rows(matrix, tag="values")
            aggregated = self.aggregator.aggregate(matrix, indices=global_indices)
        else:
            reduced = self.backend.allreduce_rows(matrix, tag="values")
            aggregated = self.aggregator.aggregate_reduced(reduced)
        if trace:
            self.obs.tracer.record(
                "aggregate", self.aggregator.name, self.iteration, None,
                v_sync, v_sync,
                host=(aggregate_start, time.perf_counter()),
                union=int(global_indices.shape[0]),
            )
        if self.obs.events.has_subscribers("after_aggregation"):
            self.obs.events.emit(
                "after_aggregation",
                {
                    "iteration": self.iteration,
                    "indices": global_indices,
                    "aggregated": aggregated,
                },
            )
        update = self._update_buffer
        update[global_indices] = aggregated
        self.optimizer.apply_update(update)
        update[global_indices] = 0.0

        # 7. Error-feedback update.
        for rank in range(n_workers):
            self.memories[rank].update(honest_accumulators[rank], global_indices)

        # Modelled communication time from the collectives of this exchange.
        communication_seconds = self._model_communication(comm_records_before)
        comm_elements = sum(
            record.total_sent for record in self.backend.meter.records[comm_records_before:]
        )
        if trace:
            # One group-level collective span covering this exchange's
            # modelled communication; its duration is exactly what the
            # lock-step schedules add to the virtual clock on top of
            # compute, so the trace reconciles with estimated_wallclock.
            self.obs.tracer.record(
                "collective", "sparse_exchange", self.iteration, None,
                v_sync, v_sync + communication_seconds,
                elements=int(comm_elements),
            )
        if self.obs.metrics_enabled:
            metrics = self.obs.metrics
            metrics.counter("exchanges_total").inc()
            metrics.histogram("union_size").observe(float(global_indices.shape[0]))
            metrics.histogram("selection_seconds").observe(float(selection_times.max()))
            metrics.histogram("communication_seconds").observe(communication_seconds)
            metrics.histogram("communication_elements").observe(float(comm_elements))
        return {
            "global_indices": global_indices,
            "per_worker_k": per_worker_k,
            "selection_times": selection_times,
            "partition_times": partition_times,
            "analytic_costs": analytic_costs,
            "communication_seconds": communication_seconds,
            "comm_elements": comm_elements,
        }

    def _contributions(
        self, accumulators: Sequence[np.ndarray], global_indices: np.ndarray
    ) -> np.ndarray:
        """The ``(n_workers, union)`` contribution matrix, in a reused buffer.

        The buffer grows geometrically to the widest union seen and is
        overwritten every iteration; callers must not hold views across
        iterations (the aggregators consume the matrix within the call).
        """
        n_workers = self.n_workers
        m = int(global_indices.shape[0])
        if self._contrib_buffer.shape[1] < m:
            capacity = max(m, 2 * self._contrib_buffer.shape[1])
            self._contrib_buffer = np.empty((n_workers, capacity), dtype=np.float64)
        matrix = self._contrib_buffer[:, :m]
        for rank in range(n_workers):
            np.take(accumulators[rank], global_indices, out=matrix[rank])
        return matrix

    # ------------------------------------------------------------------ #
    def train_iteration(self, batches: Sequence, lr: float) -> Dict[str, float]:
        """Run one synchronous iteration over all workers; returns metrics."""
        n_workers = self.n_workers
        forward_backward_times = np.zeros(n_workers)
        losses = np.zeros(n_workers)
        accumulators: List[np.ndarray] = []
        trace = self.obs.trace_enabled
        v_round = self.clock.now

        # 1-2. Local gradients and error-feedback accumulation.
        if self.adversary.corrupts_data:
            batches = [
                self.adversary.corrupt_batch(self.iteration, rank, batches[rank])
                for rank in range(n_workers)
            ]
        jobs = [(rank, None, batches[rank]) for rank in range(n_workers)]
        for rank, (loss_value, grad_flat, host_start, host_end) in enumerate(
            self.batch_gradients(jobs)
        ):
            forward_backward_times[rank] = host_end - host_start
            losses[rank] = loss_value
            accumulators.append(self.memories[rank].accumulate(grad_flat, lr))
            if trace:
                self.obs.tracer.record(
                    "compute", "forward_backward", self.iteration, rank,
                    v_round, v_round + self.speed_model.batch_seconds(rank),
                    host=(host_start, host_end),
                )
        self.model.zero_grad()

        # Gradient attacks corrupt the Byzantine accumulators before the
        # sparsifier coordinates/selects on them.  The error-feedback update
        # (step 7) keeps the honest accumulators: a Byzantine worker lies on
        # the wire, but feeding the corruption back into its own memory
        # would compound multiplicative attacks into overflow.
        honest_accumulators = accumulators
        if self.adversary.n_byzantine:
            accumulators = self.adversary.corrupt_accumulators(self.iteration, accumulators)

        # 3-7. Coordinate, select, aggregate, apply, error-feedback update.
        exchange = self.sparse_exchange(accumulators, honest_accumulators)
        metrics = self.execution.finish_round(
            RoundRecord(
                losses=losses, lr=lr, union_size=int(exchange["global_indices"].shape[0]),
                communication=exchange["communication_seconds"],
                communication_elements=float(exchange["comm_elements"]),
                compute=float(forward_backward_times.max()),
                selection=float(exchange["selection_times"].max()),
                partition=float(exchange["partition_times"].max()),
                selection_cost=float(exchange["analytic_costs"].max()),
                k_local=exchange["per_worker_k"],
            )
        )
        if self.obs.metrics_enabled:
            # Straggler idle time: in a lock-step round every worker waits
            # for the slowest one's compute.
            slowest = self.speed_model.slowest_batch_seconds()
            idle = self.obs.metrics.histogram("worker_idle_seconds")
            for rank in range(n_workers):
                idle.observe(slowest - self.speed_model.batch_seconds(rank))
        return metrics

    def point_to_point_seconds(
        self, payload: float, src: Optional[int], dst: Optional[int]
    ) -> float:
        """Modelled seconds of one worker-to-worker message.

        Routed over the topology's ``src``-to-``dst`` path; one hop when no
        topology (or no endpoints) is configured.  This is the single
        pricing rule for ``send`` records -- the gossip schedule and
        :meth:`_model_communication` both use it, so their numbers agree.
        """
        hops = (
            float(self.topology.path_hops(src, dst))
            if self.topology is not None and src is not None and dst is not None
            else 1.0
        )
        if self.obs.metrics_enabled:
            self.obs.metrics.histogram("comm_hops", op="send").observe(hops)
        return self.cost_model.point_to_point_cost(payload, hops=hops).total

    def _model_communication(self, records_before: int) -> float:
        """Convert this iteration's communication calls into modelled seconds.

        Collectives pay the alpha-beta formulas with their latency term
        scaled by the topology diameter (``latency_scale``); server
        push/pull records are routed over the real worker-to-server path
        (``path_hops(rank, server_rank)``); worker-to-worker sends over the
        ``src``/``dst`` path.  Without a topology every link is one hop and
        the scale is 1, reproducing the flat pricing bit for bit.
        """
        n = self.n_workers
        scale = self._latency_scale
        seconds = 0.0
        for record in self.backend.meter.records[records_before:]:
            if record.op == "allgather":
                cost = self.cost_model.allgather_cost(n, record.max_sent)
            elif record.op == "allreduce":
                payload = record.received_per_rank[0] if record.received_per_rank else 0
                cost = self.cost_model.allreduce_cost(n, payload)
            elif record.op == "broadcast":
                payload = record.received_per_rank[0] if record.received_per_rank else 0
                cost = self.cost_model.broadcast_cost(n, payload)
            elif record.op == "gather":
                cost = self.cost_model.allgather_cost(n, record.max_sent)
            elif record.op == "push":
                hops = self._server_hops[record.src] if record.src is not None else 1.0
                if self.obs.metrics_enabled:
                    self.obs.metrics.histogram("comm_hops", op="push").observe(hops)
                seconds += self.cost_model.push_cost(record.max_sent, hops=hops).total
                continue
            elif record.op == "pull":
                payload = max(record.received_per_rank) if record.received_per_rank else 0
                hops = self._server_hops[record.dst] if record.dst is not None else 1.0
                if self.obs.metrics_enabled:
                    self.obs.metrics.histogram("comm_hops", op="pull").observe(hops)
                seconds += self.cost_model.pull_cost(payload, hops=hops).total
                continue
            elif record.op == "send":
                seconds += self.point_to_point_seconds(
                    record.max_sent, record.src, record.dst
                )
                continue
            else:
                continue
            seconds += cost.latency * scale + cost.bandwidth
        return seconds

    # ------------------------------------------------------------------ #
    def epoch_iteration_budget(self) -> int:
        """Lock-step iterations per epoch (one pass over the shortest shard)."""
        n_iterations = min(len(loader) for loader in self.loaders)
        if self.spec.optimizer.max_iterations_per_epoch is not None:
            n_iterations = min(n_iterations, self.spec.optimizer.max_iterations_per_epoch)
        return n_iterations

    def log_epoch_summary(self, epoch: int, epoch_metrics: List[Dict[str, float]]) -> Dict[str, float]:
        """Epoch-level series and (optionally) the task evaluation metric."""
        summary = {
            "loss": float(np.mean([m["loss"] for m in epoch_metrics])) if epoch_metrics else 0.0,
            "density": float(np.mean([m["density"] for m in epoch_metrics])) if epoch_metrics else 0.0,
            "error": float(epoch_metrics[-1]["error"]) if epoch_metrics else 0.0,
        }
        self.logger.log_scalar("epoch_loss", epoch, summary["loss"])
        self.logger.log_scalar("epoch_density", epoch, summary["density"])
        if self.spec.optimizer.evaluate_each_epoch:
            eval_start = time.perf_counter()
            evaluation = self.task.evaluate(self.model)
            if self.obs.trace_enabled:
                self.obs.tracer.record(
                    "eval", "evaluate", self.iteration, None,
                    self.clock.now, self.clock.now,
                    host=(eval_start, time.perf_counter()),
                    epoch=int(epoch),
                )
            for key, value in evaluation.items():
                self.logger.log_scalar(key, epoch, value)
            summary.update(evaluation)
        return summary

    def train(self) -> TrainingResult:
        """Run the configured schedule over all epochs and return the result."""
        try:
            last_summary = self.execution.run()
        finally:
            # The schedule's back-reference closes a trainer <-> schedule
            # reference cycle.  Dropping it lets reference counting free a
            # finished (or aborted) run's gradient-sized buffers as soon as
            # the caller lets go of the trainer, not at the next full
            # garbage collection.
            self.execution.trainer = None
        final_metrics = dict(last_summary)
        if not self.spec.optimizer.evaluate_each_epoch:
            final_metrics.update(self.task.evaluate(self.model))
        return TrainingResult(
            logger=self.logger,
            timing=self.timing,
            final_metrics=final_metrics,
            iterations_run=self.iteration,
            epochs_run=self.spec.optimizer.epochs,
            estimated_wallclock=self.clock.now,
        )
