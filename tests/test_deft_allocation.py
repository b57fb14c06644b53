"""Tests for Algorithm 4: bin-packing based layer allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsifiers.base import GradientLayout
from repro.sparsifiers.deft.allocation import (
    AllocationPolicy,
    allocate_layers,
    allocation_payload_elements,
    layer_costs,
)
from repro.sparsifiers.deft.k_assignment import assign_local_k, layer_norms
from repro.sparsifiers.deft.partitioning import two_stage_partition


def make_partitions(sizes, n_workers=1):
    layout = GradientLayout.from_named_shapes([(f"l{i}", (s,)) for i, s in enumerate(sizes)])
    return two_stage_partition(layout, n_workers)


class TestLayerCosts:
    def test_cost_formula(self):
        partitions = make_partitions([100, 200])
        costs = layer_costs(partitions, [8, 16])
        assert costs[0] == pytest.approx(100 * np.log2(8))
        assert costs[1] == pytest.approx(200 * np.log2(16))

    def test_zero_k_costs_nothing(self):
        partitions = make_partitions([100])
        assert layer_costs(partitions, [0])[0] == 0.0

    def test_k_one_still_costs_a_scan(self):
        partitions = make_partitions([100])
        assert layer_costs(partitions, [1])[0] == pytest.approx(100.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            layer_costs(make_partitions([10, 10]), [1])


class TestAllocateLayers:
    def test_bin_packing_assigns_every_layer_once(self):
        costs = [50.0, 10.0, 40.0, 5.0, 25.0]
        result = allocate_layers(costs, 2)
        assert sorted(i for items in result.assignment for i in items) == list(range(5))

    def test_bin_packing_balances_load(self):
        costs = [100.0, 1.0, 1.0, 1.0, 1.0, 96.0]
        balanced = allocate_layers(costs, 2, AllocationPolicy.BIN_PACKING)
        round_robin = allocate_layers(costs, 2, AllocationPolicy.ROUND_ROBIN)
        assert balanced.max_load <= round_robin.max_load

    def test_round_robin_policy(self):
        costs = [1.0, 2.0, 3.0, 4.0]
        result = allocate_layers(costs, 2, AllocationPolicy.ROUND_ROBIN)
        assert result.assignment[0] == [0, 2]
        assert result.assignment[1] == [1, 3]

    def test_size_only_policy_requires_sizes(self):
        with pytest.raises(ValueError):
            allocate_layers([1.0, 2.0], 2, AllocationPolicy.SIZE_ONLY)

    def test_size_only_policy_reports_cost_loads(self):
        costs = [10.0, 20.0]
        sizes = [100, 100]
        result = allocate_layers(costs, 2, AllocationPolicy.SIZE_ONLY, sizes=sizes)
        assert sorted(i for items in result.assignment for i in items) == [0, 1]
        assert sum(result.loads) == pytest.approx(30.0)

    def test_policy_accepts_string(self):
        result = allocate_layers([1.0, 2.0], 2, "round_robin")
        assert result.n_bins == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            allocate_layers([1.0], 1, "not_a_policy")

    def test_deterministic(self):
        costs = list(np.random.default_rng(0).random(20) * 100)
        a = allocate_layers(costs, 4).assignment
        b = allocate_layers(costs, 4).assignment
        assert a == b


class TestAllocationPayload:
    def test_counts_one_element_per_layer(self):
        assignment = [[0, 2], [1], [3, 4, 5]]
        assert allocation_payload_elements(assignment) == 6


class TestEndToEndAllocation:
    def test_realistic_pipeline_is_balanced(self):
        """Partition -> assign k -> cost -> allocate on a realistic layout:
        the resulting max worker load should be within 2x of the mean."""
        rng = np.random.default_rng(0)
        sizes = [3200, 768, 768, 96, 1280, 200, 64, 64]
        n_workers = 4
        partitions = make_partitions(sizes, n_workers)
        flat = rng.standard_normal(sum(sizes))
        norms = layer_norms(flat, partitions)
        ks = assign_local_k(partitions, norms, int(0.01 * sum(sizes)))
        costs = layer_costs(partitions, ks)
        result = allocate_layers(costs, n_workers)
        mean_load = sum(result.loads) / n_workers
        assert result.max_load <= 2.0 * mean_load + max(costs)


# --------------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------------- #
@given(
    costs=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=50),
    n_workers=st.integers(1, 16),
    policy=st.sampled_from([AllocationPolicy.BIN_PACKING, AllocationPolicy.ROUND_ROBIN]),
)
@settings(max_examples=80, deadline=None)
def test_every_layer_allocated_exactly_once(costs, n_workers, policy):
    """No layer may be dropped or duplicated, or gradients would be lost or
    double-counted (breaking DEFT's no-build-up guarantee)."""
    result = allocate_layers(costs, n_workers, policy)
    allocated = sorted(i for items in result.assignment for i in items)
    assert allocated == list(range(len(costs)))


@given(
    costs=st.lists(st.floats(0.1, 1e4, allow_nan=False), min_size=2, max_size=40),
    n_workers=st.integers(2, 8),
)
@settings(max_examples=60, deadline=None)
def test_bin_packing_max_load_bounded(costs, n_workers):
    """Greedy packing's makespan never exceeds mean load + one item."""
    result = allocate_layers(costs, n_workers, AllocationPolicy.BIN_PACKING)
    assert result.max_load <= sum(costs) / n_workers + max(costs) + 1e-6
