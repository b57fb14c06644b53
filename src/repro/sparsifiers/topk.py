"""Local Top-k sparsifier (the classic baseline).

Every worker selects the ``k = d * n_g`` largest-magnitude entries of its own
accumulator.  Because different workers see different mini-batches, their
index sets only partially overlap, so the union collected by the all-gather
grows with the number of workers -- the *gradient build-up* of Figure 1.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.sparsifiers.base import SelectionResult, Sparsifier
from repro.utils.topk_ops import topk_indices

__all__ = ["TopKSparsifier"]


class TopKSparsifier(Sparsifier):
    """Select the globally largest ``k`` entries of the local accumulator."""

    name = "topk"
    has_gradient_buildup = True
    needs_hyperparameter_tuning = False
    has_worker_idling = False

    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        layout = self._require_setup()
        k = self.global_k
        start = time.perf_counter()
        # The trainer unions the gathered index sets with union_indices, so the
        # per-worker ordering is irrelevant: skip the O(k log k) sort.
        indices = topk_indices(acc_flat, k, sort=False)
        elapsed = time.perf_counter() - start
        analytic = layout.total_size * math.log2(max(k, 2))
        return SelectionResult(
            indices=indices,
            target_k=k,
            selection_seconds=elapsed,
            analytic_cost=analytic,
            info={"method": "local-topk"},
        )
