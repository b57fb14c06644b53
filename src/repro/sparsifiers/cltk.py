"""Cyclic local top-k (CLT-k) sparsifier.

Chen et al. (ScaleCom, NeurIPS 2020) eliminate gradient build-up by letting a
single *leader* worker -- cycling through ranks over iterations -- run Top-k
on its own accumulator and broadcast the chosen indices.  All workers then
contribute values at exactly those indices, so the collected index set never
grows with the worker count.  The costs are (a) the leader's full
``n_g log k`` selection cannot be parallelised and (b) the other workers idle
while the leader selects.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from repro.comm.backend import CollectiveBackend
from repro.sparsifiers.base import SelectionResult, Sparsifier
from repro.utils.topk_ops import topk_indices

__all__ = ["CLTKSparsifier"]


class CLTKSparsifier(Sparsifier):
    """Cyclic local top-k: the per-iteration leader selects for everyone."""

    name = "cltk"
    has_gradient_buildup = False
    needs_hyperparameter_tuning = False
    has_worker_idling = True

    def __init__(self, density: float) -> None:
        super().__init__(density)
        self._iteration_cache: Optional[int] = None
        self._leader_indices: Optional[np.ndarray] = None
        self._leader_seconds: float = 0.0

    def leader_of(self, iteration: int) -> int:
        """Rank acting as the selection leader in ``iteration``."""
        return int(iteration) % self.n_workers

    def coordinate(
        self,
        iteration: int,
        acc_per_worker: Sequence[np.ndarray],
        backend: Optional[CollectiveBackend] = None,
    ) -> None:
        """Leader runs Top-k on its accumulator and broadcasts the indices."""
        self._require_setup()
        leader = self.leader_of(iteration)
        k = self.global_k
        start = time.perf_counter()
        # Every worker contributes at the broadcast index *set*; ordering is
        # irrelevant (the trainer sorts the union with union_indices), so
        # skip the sort.
        indices = topk_indices(
            np.asarray(acc_per_worker[leader]).reshape(-1), k, sort=False
        )
        self._leader_seconds = time.perf_counter() - start
        if backend is not None:
            received = backend.broadcast(indices, root=leader, tag="cltk-indices")
            indices = received[0]
        self._iteration_cache = int(iteration)
        self._leader_indices = np.asarray(indices, dtype=np.int64)

    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        layout = self._require_setup()
        if self._iteration_cache != int(iteration) or self._leader_indices is None:
            # Standalone use without the trainer: fall back to selecting from
            # the caller's own accumulator when it happens to be the leader,
            # otherwise the caller must run coordinate() first.
            if rank == self.leader_of(iteration):
                self.coordinate(iteration, [acc_flat] * self.n_workers, backend=None)
            else:
                raise RuntimeError(
                    "CLT-k requires coordinate() to run before select() for non-leader ranks"
                )
        leader = self.leader_of(iteration)
        k = self.global_k
        # Only the leader pays the selection cost; the others idle (Table 1).
        is_leader = rank == leader
        analytic = layout.total_size * math.log2(max(k, 2)) if is_leader else 0.0
        seconds = self._leader_seconds if is_leader else 0.0
        return SelectionResult(
            indices=self._leader_indices.copy(),
            target_k=k,
            selection_seconds=seconds,
            analytic_cost=analytic,
            info={"leader": leader, "is_leader": is_leader},
        )
