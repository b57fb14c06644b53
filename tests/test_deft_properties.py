"""System-level property tests for DEFT's core guarantees.

These use hypothesis to generate random model layouts, accumulators and
worker counts and check the invariants the paper's correctness argument rests
on: disjoint selections, density invariance to the worker count, coverage of
every partition, and the cost ordering behind Eq. 5.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.cost import worker_selection_cost
from repro.comm import SimulatedBackend
from repro.sparsifiers import DEFTSparsifier, GradientLayout
from repro.sparsifiers.deft.allocation import AllocationPolicy, allocate_layers, layer_costs
from repro.sparsifiers.deft.k_assignment import assign_local_k, layer_norms


@st.composite
def deft_problem(draw):
    """A random layout + per-worker accumulators + a density and worker count."""
    n_layers = draw(st.integers(2, 8))
    sizes = [draw(st.integers(4, 400)) for _ in range(n_layers)]
    n_workers = draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    seed = draw(st.integers(0, 10_000))
    layout = GradientLayout.from_named_shapes([(f"l{i}", (s,)) for i, s in enumerate(sizes)])
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(layout.total_size)
    scales = rng.uniform(0.1, 5.0, n_layers)
    for i, sl in enumerate(layout.slices()):
        base[sl] *= scales[i]
    accs = [base + 0.05 * np.random.default_rng(seed + 1 + r).standard_normal(base.size) for r in range(n_workers)]
    return layout, accs, density, n_workers


@given(problem=deft_problem())
@settings(max_examples=40, deadline=None)
def test_deft_selections_disjoint_and_in_range(problem):
    """Workers never select the same index twice, and all indices are valid."""
    layout, accs, density, n_workers = problem
    sparsifier = DEFTSparsifier(density)
    sparsifier.setup(layout, n_workers)
    sparsifier.coordinate(0, accs)
    union = []
    for rank in range(n_workers):
        idx = sparsifier.select(0, rank, accs[rank]).indices
        if idx.size:
            assert idx.min() >= 0 and idx.max() < layout.total_size
        union.append(idx)
    flat_union = np.concatenate(union) if union else np.empty(0, dtype=np.int64)
    assert np.unique(flat_union).size == flat_union.size


@given(problem=deft_problem())
@settings(max_examples=40, deadline=None)
def test_deft_union_size_bounded_by_budget_and_floor(problem):
    """The union of the workers' selections is close to k: never more than
    k + one-per-partition (Algorithm 3's floor), never less than
    min(k, n_partitions) by more than the rounding slack."""
    layout, accs, density, n_workers = problem
    sparsifier = DEFTSparsifier(density)
    sparsifier.setup(layout, n_workers)
    sparsifier.coordinate(0, accs)
    union = np.concatenate([sparsifier.select(0, r, accs[r]).indices for r in range(n_workers)])
    k = sparsifier.global_k
    n_partitions = len(sparsifier.partitions)
    # Each worker derives its own per-layer budget from its own accumulator,
    # so the union can exceed k by the per-layer floor plus the (small)
    # worker-to-worker norm disagreement -- but it never grows with the
    # worker count the way Top-k's union does.
    assert union.size <= 1.3 * k + n_partitions
    # Algorithm 3's floor guarantees at least one selection per partition.
    assert union.size >= min(k, n_partitions)


def _two_layer_problem():
    """Layers of 4 and 182 gradients with norms 11.6 and 18.2, d = 0.3.

    At one worker Algorithm 3 visits the 182-wide layer first and gives it
    34 of k = 56 slots; the 4-wide layer's share of the other 22 is capped
    at its size and no layer is left to take the rest, so the union is 38.
    Three workers partition the wide layer and spend nearly all of k.
    """
    layout = GradientLayout.from_named_shapes([("l0", (4,)), ("l1", (182,))])
    base = np.concatenate([np.full(4, 11.6 / 2.0), np.full(182, 18.2 / np.sqrt(182))])
    return layout, [base], 0.3, 3


@given(problem=deft_problem(), second_worker_count=st.integers(1, 8))
@example(problem=_two_layer_problem(), second_worker_count=1)
@settings(max_examples=25, deadline=None)
def test_deft_density_invariant_to_worker_count(problem, second_worker_count):
    """The union size (and therefore the realised density) does not grow with
    the number of workers -- the anti-build-up guarantee."""
    layout, accs, density, n_workers = problem
    base = accs[0]

    for workers in (n_workers, second_worker_count):
        sparsifier = DEFTSparsifier(density)
        sparsifier.setup(layout, workers)
        worker_accs = [
            base + 0.05 * np.random.default_rng(123 + r).standard_normal(base.size)
            for r in range(workers)
        ]
        sparsifier.coordinate(0, worker_accs)
        union = np.concatenate(
            [sparsifier.select(0, r, worker_accs[r]).indices for r in range(workers)]
        )
        # The sibling test's budget + floor window holds at every worker
        # count.  Two worker counts need not land close to each other:
        # Algorithm 3 can leave budget unspent when a small layer's share
        # is capped at its size (the pinned example), but the union never
        # grows with the worker count the way Top-k's does.
        assert union.size <= 1.3 * sparsifier.global_k + len(sparsifier.partitions)


@given(problem=deft_problem())
@settings(max_examples=30, deadline=None)
def test_deft_every_partition_allocated_once(problem):
    layout, accs, density, n_workers = problem
    sparsifier = DEFTSparsifier(density)
    sparsifier.setup(layout, n_workers)
    allocation = sparsifier.compute_allocation(accs[0])
    allocated = sorted(i for items in allocation for i in items)
    assert allocated == list(range(len(sparsifier.partitions)))


@given(problem=deft_problem())
@settings(max_examples=30, deadline=None)
def test_deft_makespan_obeys_list_scheduling_bound(problem):
    """Eq. 5's max-over-workers cost under the paper's bin-packing allocation
    never exceeds (total cost)/n + (largest single-partition cost) -- the
    classic greedy list-scheduling guarantee that underpins the paper's
    load-balance claim."""
    layout, accs, density, n_workers = problem
    flat = accs[0]
    sparsifier = DEFTSparsifier(density, allocation_policy=AllocationPolicy.BIN_PACKING)
    sparsifier.setup(layout, n_workers)
    plan = sparsifier.coordinate(0, [flat] * n_workers)
    allocation, ks = plan.allocation, plan.ks

    def partition_cost(i):
        return worker_selection_cost([sparsifier.partitions[i].size], [int(ks[i])])

    per_worker = [
        worker_selection_cost(
            [sparsifier.partitions[i].size for i in layers], [int(ks[i]) for i in layers]
        )
        for layers in allocation
    ]
    all_costs = [partition_cost(i) for i in range(len(sparsifier.partitions))]
    makespan = max(per_worker) if per_worker else 0.0
    bound = sum(all_costs) / n_workers + (max(all_costs) if all_costs else 0.0)
    assert makespan <= bound + 1e-6


def _reference_round(sparsifier, accs, root):
    """Algorithms 3 and 4 straight from their parts: the allocation built from
    the root's norms (their median over workers under ``robust_norms``), and
    the ``ks`` each rank selects with."""
    parts, k = sparsifier.partitions, sparsifier.global_k
    rows = [layer_norms(acc, parts) for acc in accs]
    if sparsifier.robust_norms:
        rows = [np.median(rows, axis=0)] * len(accs)
    rank_ks = [assign_local_k(parts, norms, k) for norms in rows]
    costs = layer_costs(parts, rank_ks[root])
    allocation = allocate_layers(costs, len(accs), sizes=[p.size for p in parts]).assignment
    return allocation, rank_ks


@given(
    problem=deft_problem(),
    iteration=st.integers(0, 20),
    integer_valued=st.booleans(),
    robust_norms=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_deft_round_matches_reference(problem, iteration, integer_valued, robust_norms):
    """One coordinated round against the reference: the allocation is the
    root's, each rank picks exactly its own ``ks[x]`` entries and only in the
    partitions it owns, and nothing it left out there is larger in magnitude
    than its smallest pick (tie-safe: integer-valued accumulators tie a lot)."""
    layout, accs, density, n_workers = problem
    if integer_valued:
        accs = [np.round(acc) for acc in accs]
    sparsifier = DEFTSparsifier(density, robust_norms=robust_norms)
    sparsifier.setup(layout, n_workers)
    sparsifier.coordinate(iteration, accs, SimulatedBackend(n_workers))
    picks = [sparsifier.select(iteration, rank, accs[rank]).indices for rank in range(n_workers)]
    allocation, rank_ks = _reference_round(sparsifier, accs, iteration % n_workers)
    owned = [sparsifier.allocation_for(iteration, rank, accs[rank]) for rank in range(n_workers)]
    assert owned == allocation
    for rank, indices in enumerate(picks):
        inside = 0
        for x in owned[rank]:
            part = sparsifier.partitions[x]
            chosen = indices[(indices >= part.start) & (indices < part.end)] - part.start
            inside += chosen.size
            assert chosen.size == rank_ks[rank][x]
            if chosen.size:
                magnitude = np.abs(accs[rank][part.start : part.end])
                left_out = np.delete(magnitude, chosen)
                assert not left_out.size or left_out.max() <= magnitude[chosen].min()
        assert inside == indices.size
