"""The DEFT sparsifier: orchestration of Algorithms 2-5.

Per iteration the flow is:

1. (setup time) the gradient vector is partitioned once with Algorithm 2 --
   partition boundaries depend only on layer sizes, not on gradient values;
2. the *delegated* worker of the iteration (``iteration % n_workers``, cyclic
   as in Algorithm 4) computes its per-partition gradient norms, assigns
   local ``k`` with Algorithm 3, prices every partition with the
   ``n_{g,x} log k_x`` cost model, bin-packs partitions onto workers and
   broadcasts the allocation (a payload of one integer per partition, the
   ``4L`` bytes the paper calls negligible);
3. every worker assigns its own local ``k`` from its own accumulator norms
   (Algorithm 3 again, locally) and runs Top-k only inside the partitions it
   was allocated (Algorithm 5).

Workers therefore select disjoint index sets whose union has ~``k`` entries:
no gradient build-up, and the selection cost per worker shrinks as the
cluster grows (Eq. 5-9).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backend import CollectiveBackend
from repro.sparsifiers.base import SelectionResult, Sparsifier
from repro.sparsifiers.deft.allocation import (
    AllocationPolicy,
    allocate_layers,
    layer_costs,
)
from repro.sparsifiers.deft.k_assignment import (
    assign_local_k,
    layer_norms,
    norm_statistic,
    robust_layer_norms,
)
from repro.sparsifiers.deft.partitioning import LayerPartition, two_stage_partition
from repro.sparsifiers.deft.selection import layerwise_select

__all__ = ["DEFTSparsifier"]


class DEFTSparsifier(Sparsifier):
    """Distributed execution of fragmented Top-k (the paper's proposal)."""

    name = "deft"
    has_gradient_buildup = False
    needs_hyperparameter_tuning = False
    has_worker_idling = False

    def __init__(
        self,
        density: float,
        allocation_policy: AllocationPolicy = AllocationPolicy.BIN_PACKING,
        norm_proportional_k: bool = True,
        two_stage: bool = True,
        robust_norms: bool = False,
    ) -> None:
        """Create a DEFT sparsifier.

        Parameters
        ----------
        density:
            Target density ``d`` (fraction of gradients to select).
        allocation_policy:
            Layer-to-worker allocation policy; the paper uses bin packing,
            the alternatives exist for ablations.
        norm_proportional_k:
            When False, the local ``k`` is spread uniformly by layer size
            instead of by gradient norm (ablation of Algorithm 3).
        two_stage:
            When False, stage two of the partitioning (splitting oversized
            layers) is skipped (ablation of Algorithm 2).
        robust_norms:
            When True, the coordinate phase all-gathers every worker's
            per-layer norms and Algorithm 3 runs on their *median* instead
            of the delegate's own norms, so a Byzantine worker inflating
            its accumulator cannot grab the whole selection budget.
        """
        super().__init__(density)
        self.allocation_policy = AllocationPolicy(allocation_policy)
        self.norm_proportional_k = bool(norm_proportional_k)
        self.two_stage = bool(two_stage)
        self.robust_norms = bool(robust_norms)
        self.partitions: List[LayerPartition] = []
        self._allocation_iteration: Optional[int] = None
        self._allocation: Optional[List[List[int]]] = None
        self._coordinate_seconds: float = 0.0
        self._shared_norms: Optional[np.ndarray] = None
        self._shared_norms_iteration: Optional[int] = None
        self._own_norms_key: Optional[Tuple[int, int, int]] = None
        self._own_norms_value: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def _post_setup(self) -> None:
        layout = self._require_setup()
        if self.two_stage:
            self.partitions = two_stage_partition(layout, self.n_workers)
        else:
            # Stage one only: one partition per model layer.
            self.partitions = two_stage_partition(layout, 1)
        self._allocation_iteration = None
        self._allocation = None
        self._own_norms_key = None

    # ------------------------------------------------------------------ #
    def delegate_of(self, iteration: int) -> int:
        """Rank that computes the allocation in ``iteration`` (cyclic)."""
        return int(iteration) % self.n_workers

    def _own_norms(
        self, acc_flat: np.ndarray, iteration: Optional[int], rank: Optional[int], keep: bool
    ) -> np.ndarray:
        """``rank``'s per-partition norms of its accumulator in ``iteration``.

        One O(n_g) pass per rank and iteration: the vector computed for an
        allocation (the delegate's in ``coordinate``, a standalone rank's in
        ``allocation_for``) is kept, and that rank's ``select`` reads it
        instead of recomputing it.  A kept vector is read at most once, and
        only for the same rank, iteration and buffer address: ranks may
        share one accumulator buffer.
        """
        key = None
        if rank is not None and iteration is not None:
            key = (int(iteration), int(rank), np.asarray(acc_flat).__array_interface__["data"][0])
            if key == self._own_norms_key:
                self._own_norms_key = None
                return self._own_norms_value
        norms = layer_norms(acc_flat, self.partitions)
        if keep and key is not None:
            self._own_norms_key, self._own_norms_value = key, norms
        return norms

    def _assign_k(
        self,
        acc_flat: np.ndarray,
        iteration: Optional[int] = None,
        rank: Optional[int] = None,
        keep: bool = False,
    ) -> np.ndarray:
        """Run Algorithm 3 (or its uniform ablation) on ``rank``'s accumulator."""
        k_total = self.global_k
        if (
            self.robust_norms
            and iteration is not None
            and self._shared_norms is not None
            and self._shared_norms_iteration == int(iteration)
        ):
            # Coordinated path: every worker assigns from the same
            # attack-resistant median norms.
            norms = self._shared_norms
        elif self.norm_proportional_k:
            norms = self._own_norms(acc_flat, iteration, rank, keep)
        else:
            # Uniform ablation: weight every partition by its size instead.
            norms = np.array([float(p.size) for p in self.partitions], dtype=np.float64)
        return assign_local_k(self.partitions, norms, k_total)

    def compute_allocation(
        self, acc_flat: np.ndarray, iteration: Optional[int] = None, rank: Optional[int] = None
    ) -> List[List[int]]:
        """Compute the layer-to-worker allocation from ``rank``'s view."""
        ks = self._assign_k(acc_flat, iteration, rank, keep=True)
        costs = layer_costs(self.partitions, ks)
        sizes = [p.size for p in self.partitions]
        result = allocate_layers(costs, self.n_workers, policy=self.allocation_policy, sizes=sizes)
        return result.assignment

    def share_robust_norms(self, iteration: int, accumulators: Sequence[np.ndarray]) -> None:
        """Install the median-of-norms statistic for ``iteration``.

        Entry point for schedules without a collective coordinate phase
        (the async parameter-server loop): the server sees the pushed
        accumulators and computes the shared statistic from whatever subset
        is present, so ``robust_norms`` keeps protecting the k assignment
        even though no all-gather runs.
        """
        self._require_setup()
        if not (self.robust_norms and self.norm_proportional_k):
            return
        self._shared_norms = robust_layer_norms(accumulators, self.partitions)
        self._shared_norms_iteration = int(iteration)

    def coordinate(
        self,
        iteration: int,
        acc_per_worker: Sequence[np.ndarray],
        backend: Optional[CollectiveBackend] = None,
    ) -> None:
        """Delegated worker computes and broadcasts the allocation."""
        self._require_setup()
        delegate = self.delegate_of(iteration)
        start = time.perf_counter()
        if self.robust_norms and self.norm_proportional_k:
            # All-gather every worker's per-layer norms (L floats each, the
            # same order of magnitude as the allocation broadcast) and take
            # the per-layer median: the statistic Algorithm 3 and the
            # bin packing run on can no longer be moved by a minority of
            # norm-inflating workers.
            rows = [layer_norms(acc, self.partitions) for acc in acc_per_worker]
            if backend is not None:
                # The all-gather exists for the traffic meter; the lock-step
                # simulation already sees every accumulator in memory.
                backend.allgather(rows, tag="deft-norms")
            self._shared_norms = norm_statistic(rows)
            self._shared_norms_iteration = int(iteration)
        allocation = self.compute_allocation(
            np.asarray(acc_per_worker[delegate]).reshape(-1), iteration, delegate
        )
        if backend is not None:
            # Payload: one integer per partitioned layer (the paper's 4L bytes).
            flat_allocation = [np.asarray(items, dtype=np.int64) for items in allocation]
            received = backend.broadcast(flat_allocation, root=delegate, tag="deft-allocation")
            allocation = [list(map(int, items)) for items in received[0]]
        self._coordinate_seconds = time.perf_counter() - start
        self._allocation_iteration = int(iteration)
        self._allocation = allocation

    def allocation_for(self, iteration: int, rank: int, acc_flat: np.ndarray) -> List[int]:
        """Partitions owned by ``rank`` in ``iteration`` (computing if needed)."""
        if self._allocation_iteration != int(iteration) or self._allocation is None:
            # Standalone mode (no trainer-driven coordinate): every worker
            # derives the allocation from its own accumulator.  Workers share
            # model state, so the allocations agree in practice; the
            # trainer-driven path guarantees it.
            self._allocation = self.compute_allocation(acc_flat, iteration, rank)
            self._allocation_iteration = int(iteration)
        return self._allocation[rank]

    # ------------------------------------------------------------------ #
    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        self._require_setup()
        flat = np.asarray(acc_flat).reshape(-1)

        partition_start = time.perf_counter()
        allocated = self.allocation_for(iteration, rank, flat)
        ks = self._assign_k(flat, iteration, rank)
        partition_seconds = time.perf_counter() - partition_start

        select_start = time.perf_counter()
        indices, k_target, analytic_cost = layerwise_select(flat, self.partitions, ks, allocated)
        selection_seconds = time.perf_counter() - select_start

        return SelectionResult(
            indices=indices,
            target_k=k_target,
            selection_seconds=selection_seconds,
            analytic_cost=analytic_cost,
            info={
                "partition_seconds": partition_seconds,
                "coordinate_seconds": self._coordinate_seconds if rank == self.delegate_of(iteration) else 0.0,
                "n_allocated_layers": len(allocated),
                "n_partitions": len(self.partitions),
                "delegate": self.delegate_of(iteration),
                "allocation_policy": self.allocation_policy.value,
            },
        )
