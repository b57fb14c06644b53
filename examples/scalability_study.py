#!/usr/bin/env python
"""Scalability study: why DEFT scales and Top-k / CLT-k do not.

Walks through the three scalability arguments of the paper using the public
API directly (no experiment drivers), so it doubles as a tour of the
library's lower-level interfaces:

1. gradient build-up: the union of per-worker Top-k selections grows with the
   worker count while DEFT's stays at ``k`` (Figure 1 / 4 mechanism),
2. selection cost: the analytic cost ``max_i sum n_{g,x} log k_x`` of DEFT
   falls super-linearly with workers (Eq. 5-9, Figure 9),
3. communication cost: the alpha-beta model of the sparse all-gather shows
   how build-up inflates Top-k's payload (Section 5.3).

Run with::

    python examples/scalability_study.py
"""

import numpy as np

from repro.analysis.cost import topk_selection_cost, worker_selection_cost
from repro.analysis.density import union_density
from repro.comm.cost_model import AlphaBetaModel
from repro.experiments.fig09_speedup import gradient_snapshot
from repro.sparsifiers import DEFTSparsifier, TopKSparsifier


def main() -> None:
    density = 0.01
    layout, flat = gradient_snapshot("lm", scale="smoke", seed=5)
    n_g = layout.total_size
    k = max(1, int(round(density * n_g)))
    rng = np.random.default_rng(5)
    print(f"Model: {layout.n_layers} layers, n_g={n_g}, k={k} (d={density})\n")

    print("1) Gradient build-up (union density of per-worker selections)")
    for n_workers in (2, 4, 8, 16):
        # Simulate per-worker accumulators: shared signal + worker-specific noise.
        accs = [flat + 0.5 * np.abs(flat).mean() * rng.standard_normal(n_g) for _ in range(n_workers)]
        topk = TopKSparsifier(density)
        topk.setup(layout, n_workers)
        topk_union = union_density([topk.select(0, r, accs[r]).indices for r in range(n_workers)], n_g)

        deft = DEFTSparsifier(density)
        deft.setup(layout, n_workers)
        deft.coordinate(0, accs)
        deft_union = union_density([deft.select(0, r, accs[r]).indices for r in range(n_workers)], n_g)
        print(f"   workers={n_workers:>2}  topk union density={topk_union:.4f}  deft union density={deft_union:.4f}")

    print("\n2) Selection cost (analytic, relative to one full Top-k)")
    baseline = topk_selection_cost(n_g, k)
    for n_workers in (1, 2, 4, 8, 16, 32):
        deft = DEFTSparsifier(density)
        deft.setup(layout, n_workers)
        plan = deft.coordinate(0, [flat] * n_workers)
        allocation, ks = plan.allocation, plan.ks
        worker_costs = [
            worker_selection_cost(
                [deft.partitions[i].size for i in layers], [int(ks[i]) for i in layers]
            )
            for layers in allocation
        ]
        slowest = max(worker_costs) if worker_costs else baseline
        print(f"   workers={n_workers:>2}  speedup over Top-k = {baseline / slowest:7.2f}x")

    print("\n3) Communication cost (alpha-beta model of the sparse all-gather)")
    model = AlphaBetaModel()
    for n_workers in (4, 16):
        buildup = min(1.0, density * (1 + 0.6 * (n_workers - 1)))  # empirical-ish Top-k union growth
        topk_cost = model.allgather_cost(n_workers, buildup * n_g).total
        deft_cost = model.allgather_cost(n_workers, k).total
        dense_cost = model.allreduce_cost(n_workers, n_g).total
        print(
            f"   workers={n_workers:>2}  modelled comm: dense={dense_cost * 1e6:8.1f}us  "
            f"topk={topk_cost * 1e6:8.1f}us  deft={deft_cost * 1e6:8.1f}us"
        )


if __name__ == "__main__":
    main()
