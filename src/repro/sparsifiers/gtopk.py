"""Global Top-k (gTop-k) sparsifier.

Shi et al. (ICDCS 2019 -- reference [34] of the DEFT paper) keep the
*global* selection at exactly ``k`` entries: after every worker picks its
local top ``k``, the locally-selected (index, value) pairs are combined and
only the ``k`` globally largest sums survive.  This removes the build-up on
the *model update* side (exactly ``k`` gradients are applied), at the price
of a hierarchical merge whose communication still carries up to ``n * k``
candidate entries, and the same per-worker ``n_g log k`` selection cost DEFT
parallelises away.

Within this reproduction the merge is performed inside ``coordinate`` (the
simulated collective phase) over the accumulators the schedule passes, and
its global index set is the round plan; every worker then reports that set,
so the measured density stays at the configured value like CLT-k's, but
unlike CLT-k no worker idles -- all of them run their local Top-k.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from repro.comm.backend import CollectiveBackend
from repro.sparsifiers.base import RoundPlan, SelectionResult, Sparsifier
from repro.utils.topk_ops import topk_indices, union_indices

__all__ = ["GlobalTopKSparsifier"]


class GlobalTopKSparsifier(Sparsifier):
    """Local Top-k followed by a global top-k merge over the candidates."""

    name = "gtopk"
    has_gradient_buildup = False
    needs_hyperparameter_tuning = False
    has_worker_idling = False

    def coordinate(
        self,
        iteration: int,
        acc_per_worker: Sequence[np.ndarray],
        backend: Optional[CollectiveBackend] = None,
        root: Optional[int] = None,
        ranks: Optional[Sequence[int]] = None,
    ) -> RoundPlan:
        self._require_setup()
        root, _ = self._root_view(iteration, acc_per_worker, root, ranks)
        k = self.global_k
        start = time.perf_counter()
        # Candidates feed a union that union_indices sorts below: skip the sort.
        local_indices = [
            topk_indices(np.asarray(acc).reshape(-1), k, sort=False)
            for acc in acc_per_worker
        ]
        seconds = (time.perf_counter() - start) / max(len(acc_per_worker), 1)

        if backend is not None:
            gathered = backend.allgather(local_indices, tag="gtopk-candidates")
            candidate_pool = union_indices(gathered[0])
        else:
            candidate_pool = union_indices(np.concatenate(local_indices))

        # Rank candidates by the magnitude of the *summed* contribution, which
        # is what the model update will apply.
        summed = np.zeros(candidate_pool.shape[0], dtype=np.float64)
        for acc in acc_per_worker:
            summed += np.asarray(acc).reshape(-1)[candidate_pool]
        keep = topk_indices(summed, k, sort=False)
        self.plan = RoundPlan(
            int(iteration), root, indices=np.sort(candidate_pool[keep]), seconds=seconds
        )
        return self.plan

    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        layout = self._require_setup()
        plan = self._plan_for(iteration)
        k = self.global_k
        return SelectionResult(
            indices=plan.indices.copy(),
            target_k=k,
            selection_seconds=plan.seconds,
            analytic_cost=layout.total_size * math.log2(max(k, 2)),
            info={"merge": "global-topk", "candidates": int(plan.indices.shape[0])},
        )
