"""Ablation: two-stage partitioning (Algorithm 2) vs stage-one only.

Stage two splits any layer larger than ``n_g / n_workers`` so no single
worker can be stuck with a huge monolithic layer.  This ablation compares the
slowest worker's analytic selection cost with and without stage two on the
LM workload, whose embedding/decoder matrices dominate the model.
"""


from benchmarks.conftest import run_once
from repro.analysis.cost import worker_selection_cost
from repro.experiments.fig09_speedup import gradient_snapshot
from repro.sparsifiers.deft import DEFTSparsifier


def _max_worker_cost(two_stage, layout, flat, density, n_workers):
    sparsifier = DEFTSparsifier(density, two_stage=two_stage)
    sparsifier.setup(layout, n_workers)
    plan = sparsifier.coordinate(0, [flat] * n_workers)
    allocation, ks = plan.allocation, plan.ks
    costs = [
        worker_selection_cost(
            [sparsifier.partitions[i].size for i in layers], [int(ks[i]) for i in layers]
        )
        for layers in allocation
    ]
    return max(costs), len(sparsifier.partitions)


def test_ablation_two_stage_partitioning(benchmark):
    layout, flat = gradient_snapshot("lm", scale="smoke", seed=13)
    n_workers, density = 8, 0.01

    def run_both():
        return (
            _max_worker_cost(True, layout, flat, density, n_workers),
            _max_worker_cost(False, layout, flat, density, n_workers),
        )

    (two_stage_cost, two_stage_parts), (single_stage_cost, single_stage_parts) = run_once(benchmark, run_both)
    print(f"\ntwo-stage:   {two_stage_parts:3d} partitions, slowest-worker cost {two_stage_cost:.0f}")
    print(f"single-stage:{single_stage_parts:3d} partitions, slowest-worker cost {single_stage_cost:.0f}")

    # Stage two produces more partitions...
    assert two_stage_parts > single_stage_parts
    # ...and a lower (or equal) slowest-worker cost, because the dominating
    # embedding/decoder layers can be spread over several workers.
    assert two_stage_cost <= single_stage_cost + 1e-9
    # On this embedding-dominated model the improvement is substantial.
    assert two_stage_cost < 0.8 * single_stage_cost
