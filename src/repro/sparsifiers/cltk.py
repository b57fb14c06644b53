"""Cyclic local top-k (CLT-k) sparsifier.

Chen et al. (ScaleCom, NeurIPS 2020) eliminate gradient build-up by letting a
single *leader* worker -- cycling through ranks over iterations -- run Top-k
on its own accumulator and broadcast the chosen indices.  All workers then
contribute values at exactly those indices, so the collected index set never
grows with the worker count.  The costs are (a) the leader's full
``n_g log k`` selection cannot be parallelised and (b) the other workers idle
while the leader selects.  The leader is the round plan's root.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from repro.comm.backend import CollectiveBackend
from repro.sparsifiers.base import RoundPlan, SelectionResult, Sparsifier
from repro.utils.topk_ops import topk_indices

__all__ = ["CLTKSparsifier"]


class CLTKSparsifier(Sparsifier):
    """Cyclic local top-k: the per-iteration leader selects for everyone."""

    name = "cltk"
    has_gradient_buildup = False
    needs_hyperparameter_tuning = False
    has_worker_idling = True

    #: Rank acting as the selection leader in an iteration (cyclic).
    leader_of = Sparsifier.root_of

    def coordinate(
        self,
        iteration: int,
        acc_per_worker: Sequence[np.ndarray],
        backend: Optional[CollectiveBackend] = None,
        root: Optional[int] = None,
        ranks: Optional[Sequence[int]] = None,
    ) -> RoundPlan:
        """Leader runs Top-k on its accumulator and broadcasts the indices."""
        self._require_setup()
        leader, acc = self._root_view(iteration, acc_per_worker, root, ranks)
        start = time.perf_counter()
        # Every worker contributes at the broadcast index *set*; ordering is
        # irrelevant (the trainer sorts the union with union_indices), so
        # skip the sort.
        indices = topk_indices(acc, self.global_k, sort=False)
        seconds = time.perf_counter() - start
        if backend is not None:
            indices = backend.broadcast(indices, root=leader, tag="cltk-indices")[0]
        self.plan = RoundPlan(
            int(iteration), leader, indices=np.asarray(indices, dtype=np.int64), seconds=seconds
        )
        return self.plan

    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        layout = self._require_setup()
        plan = self._plan_for(iteration)
        k = self.global_k
        # Only the leader pays the selection cost; the others idle (Table 1).
        is_leader = rank == plan.root
        return SelectionResult(
            indices=plan.indices.copy(),
            target_k=k,
            selection_seconds=plan.seconds if is_leader else 0.0,
            analytic_cost=layout.total_size * math.log2(max(k, 2)) if is_leader else 0.0,
            info={"leader": plan.root, "is_leader": is_leader},
        )
