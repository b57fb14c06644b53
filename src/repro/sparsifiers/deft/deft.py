"""The DEFT sparsifier: orchestration of Algorithms 2-5.

Per iteration the flow is:

1. (setup time) the gradient vector is partitioned once with Algorithm 2 --
   partition boundaries depend only on layer sizes, not on gradient values;
2. ``coordinate``: the *delegated* worker of the iteration (the round plan's
   root; ``iteration % n_workers``, cyclic as in Algorithm 4, unless the
   schedule names one) computes its per-partition gradient norms, assigns
   local ``k`` with Algorithm 3, prices every partition with the
   ``n_{g,x} log k_x`` cost model, bin-packs partitions onto workers and
   broadcasts the allocation (a payload of one integer per partition, the
   ``4L`` bytes the paper calls negligible).  The allocation and the
   delegate's ``ks`` are the round's :class:`RoundPlan`;
3. ``select``: every other worker assigns its own local ``k`` from its own
   accumulator norms (Algorithm 3 again, locally; the delegate reads the
   plan's ``ks``) and runs Top-k only inside the partitions the plan
   allocated it (Algorithm 5).  Under ``robust_norms`` and the uniform-k
   ablation every worker reads the plan's ``ks``.

Workers therefore select disjoint index sets whose union has ~``k`` entries:
no gradient build-up, and the selection cost per worker shrinks as the
cluster grows (Eq. 5-9).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.comm.backend import CollectiveBackend
from repro.sparsifiers.base import RoundPlan, SelectionResult, Sparsifier
from repro.sparsifiers.deft.allocation import (
    AllocationPolicy,
    allocate_layers,
    layer_costs,
)
from repro.sparsifiers.deft.k_assignment import (
    assign_local_k,
    layer_norms,
    norm_statistic,
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

    # ------------------------------------------------------------------ #
    def _post_setup(self) -> None:
        layout = self._require_setup()
        if self.two_stage:
            self.partitions = two_stage_partition(layout, self.n_workers)
        else:
            # Stage one only: one partition per model layer.
            self.partitions = two_stage_partition(layout, 1)

    # ------------------------------------------------------------------ #
    #: Rank that computes the allocation in an iteration (cyclic).
    delegate_of = Sparsifier.root_of

    def _assign_k(self, acc_flat: Optional[np.ndarray] = None, norms=None) -> np.ndarray:
        """Run Algorithm 3 on ``norms`` (default: ``acc_flat``'s), or its uniform ablation."""
        if not self.norm_proportional_k:
            # Uniform ablation: weight every partition by its size instead.
            norms = [float(p.size) for p in self.partitions]
        elif norms is None:
            norms = layer_norms(acc_flat, self.partitions)
        return assign_local_k(self.partitions, norms, self.global_k)

    def _allocate(self, ks: np.ndarray) -> List[List[int]]:
        """Algorithm 4: bin-pack the partitions, priced by Eq. 4 under ``ks``."""
        costs = layer_costs(self.partitions, ks)
        sizes = [p.size for p in self.partitions]
        return allocate_layers(costs, self.n_workers, policy=self.allocation_policy, sizes=sizes).assignment

    def compute_allocation(self, acc_flat: np.ndarray) -> List[List[int]]:
        """The layer-to-worker allocation built from one accumulator's norms."""
        return self._allocate(self._assign_k(acc_flat))

    def coordinate(
        self,
        iteration: int,
        acc_per_worker: Sequence[np.ndarray],
        backend: Optional[CollectiveBackend] = None,
        root: Optional[int] = None,
        ranks: Optional[Sequence[int]] = None,
    ) -> RoundPlan:
        """Delegated worker computes the plan and broadcasts the allocation."""
        self._require_setup()
        delegate, acc = self._root_view(iteration, acc_per_worker, root, ranks)
        start = time.perf_counter()
        if self.robust_norms and self.norm_proportional_k:
            # Algorithm 3 trusts whatever norms it is handed, so a Byzantine
            # delegate inflating one layer could grab the whole budget.
            # All-gather every worker's per-layer norms (L floats each, the
            # same order of magnitude as the allocation broadcast) and take
            # the per-layer median: its 50% breakdown point means a minority
            # of norm-inflating workers cannot move the statistic that
            # Algorithm 3 and the bin packing run on.
            rows = [layer_norms(a, self.partitions) for a in acc_per_worker]
            if backend is not None:
                # The all-gather exists for the traffic meter; the lock-step
                # simulation already sees every accumulator in memory.
                backend.allgather(rows, tag="deft-norms")
            ks = self._assign_k(norms=norm_statistic(rows))
        else:
            ks = self._assign_k(acc)
        allocation = self._allocate(ks)
        if backend is not None:
            # Payload: one integer per partitioned layer (the paper's 4L bytes).
            flat_allocation = [np.asarray(items, dtype=np.int64) for items in allocation]
            received = backend.broadcast(flat_allocation, root=delegate, tag="deft-allocation")
            allocation = [list(map(int, items)) for items in received[0]]
        self.plan = RoundPlan(
            int(iteration), delegate, allocation=allocation, ks=ks,
            shared_ks=self.robust_norms or not self.norm_proportional_k,
            seconds=time.perf_counter() - start,
        )
        return self.plan

    def allocation_for(self, iteration: int, rank: int, acc_flat: np.ndarray) -> List[int]:
        """Partitions the plan of ``iteration`` allocates to ``rank``."""
        return self._plan_for(iteration).allocation[rank]

    # ------------------------------------------------------------------ #
    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        self._require_setup()
        plan = self._plan_for(iteration)
        flat = np.asarray(acc_flat).reshape(-1)

        partition_start = time.perf_counter()
        allocated = plan.allocation[rank]
        # Algorithm 3 is deterministic: the delegate's own ks are the plan's.
        ks = plan.ks if plan.shared_ks or rank == plan.root else self._assign_k(flat)
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
                "coordinate_seconds": plan.seconds if rank == plan.root else 0.0,
                "n_allocated_layers": len(allocated),
                "n_partitions": len(self.partitions),
                "delegate": plan.root,
                "allocation_policy": self.allocation_policy.value,
            },
        )
