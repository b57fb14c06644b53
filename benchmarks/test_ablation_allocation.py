"""Ablation: bin-packing layer allocation (Algorithm 4) vs naive policies.

DEFT's design argues that cost-aware bin packing is needed because layers
have very different selection costs; this ablation measures the load
imbalance (max / mean per-worker analytic selection cost) under the paper's
policy, a size-only packing, and round-robin allocation on a realistic
layered gradient snapshot.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig09_speedup import gradient_snapshot
from repro.sparsifiers.deft import DEFTSparsifier
from repro.sparsifiers.deft.allocation import AllocationPolicy
from repro.analysis.cost import worker_selection_cost

POLICIES = (AllocationPolicy.BIN_PACKING, AllocationPolicy.SIZE_ONLY, AllocationPolicy.ROUND_ROBIN)


def _imbalance(policy, layout, flat, density, n_workers):
    sparsifier = DEFTSparsifier(density, allocation_policy=policy)
    sparsifier.setup(layout, n_workers)
    plan = sparsifier.coordinate(0, [flat] * n_workers)
    allocation, ks = plan.allocation, plan.ks
    costs = [
        worker_selection_cost(
            [sparsifier.partitions[i].size for i in layers], [int(ks[i]) for i in layers]
        )
        for layers in allocation
    ]
    mean = max(float(np.mean(costs)), 1e-12)
    return max(costs) / mean, max(costs)


def test_ablation_allocation_policies(benchmark):
    layout, flat = gradient_snapshot("lm", scale="smoke", seed=7)
    n_workers, density = 8, 0.01

    def run_all():
        return {policy.value: _imbalance(policy, layout, flat, density, n_workers) for policy in POLICIES}

    results = run_once(benchmark, run_all)
    print("\nAblation: layer-allocation policy (imbalance = max/mean worker cost)")
    for policy, (imbalance, max_cost) in results.items():
        print(f"  {policy:<12} imbalance={imbalance:6.2f}  max worker cost={max_cost:10.0f}")

    bin_packing_imbalance, bin_packing_max = results["bin_packing"]
    _, round_robin_max = results["round_robin"]
    _, size_only_max = results["size_only"]

    # The paper's policy yields the lowest (or tied-lowest) slowest-worker cost.
    assert bin_packing_max <= round_robin_max + 1e-9
    assert bin_packing_max <= size_only_max * 1.05
    # And its imbalance stays moderate.
    assert bin_packing_imbalance < 4.0


@pytest.mark.parametrize("n_workers", [2, 8, 16])
def test_ablation_bin_packing_scales(benchmark, n_workers):
    """The bin-packing max-cost keeps falling as workers are added."""
    layout, flat = gradient_snapshot("lm", scale="smoke", seed=7)

    def compute():
        return _imbalance(AllocationPolicy.BIN_PACKING, layout, flat, 0.01, n_workers)[1]

    max_cost = run_once(benchmark, compute)
    baseline = _imbalance(AllocationPolicy.BIN_PACKING, layout, flat, 0.01, 1)[1]
    print(f"\nworkers={n_workers}: max worker cost {max_cost:.0f} (1-worker baseline {baseline:.0f})")
    assert max_cost <= baseline
