"""Tests for the bin-packing heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.binpack import (
    BinPackingResult,
    pack_first_fit_decreasing,
    pack_greedy_min_bin,
    pack_round_robin,
)


class TestGreedyMinBin:
    def test_all_items_assigned_exactly_once(self):
        result = pack_greedy_min_bin([5, 3, 2, 7, 1], 2)
        assigned = sorted(result.items_flat())
        assert assigned == [0, 1, 2, 3, 4]

    def test_loads_match_assignment(self):
        weights = [5.0, 3.0, 2.0, 7.0, 1.0]
        result = pack_greedy_min_bin(weights, 3)
        for b, items in enumerate(result.assignment):
            assert result.loads[b] == pytest.approx(sum(weights[i] for i in items))

    def test_heaviest_item_goes_first(self):
        result = pack_greedy_min_bin([1.0, 10.0, 2.0], 2)
        # The heaviest item (index 1) must be alone-ish in its bin initially.
        heavy_bin = result.bin_of(1)
        assert 1 in result.assignment[heavy_bin]

    def test_balances_better_than_round_robin_on_skewed_weights(self):
        weights = [100, 1, 1, 1, 1, 1, 1, 1]
        greedy = pack_greedy_min_bin(weights, 2)
        rr = pack_round_robin(weights, 2)
        assert greedy.max_load <= rr.max_load

    def test_single_bin_gets_everything(self):
        result = pack_greedy_min_bin([4, 2, 9], 1)
        assert sorted(result.assignment[0]) == [0, 1, 2]
        assert result.max_load == 15

    def test_more_bins_than_items_leaves_empty_bins(self):
        result = pack_greedy_min_bin([3.0, 1.0], 4)
        assert result.n_bins == 4
        assert sorted(result.items_flat()) == [0, 1]
        assert result.loads.count(0.0) == 2

    def test_deterministic(self):
        weights = list(np.random.default_rng(0).random(30))
        a = pack_greedy_min_bin(weights, 4).assignment
        b = pack_greedy_min_bin(weights, 4).assignment
        assert a == b

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            pack_greedy_min_bin([1.0, -2.0], 2)

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            pack_greedy_min_bin([1.0], 0)


class TestRoundRobin:
    def test_item_i_goes_to_bin_i_mod_n(self):
        result = pack_round_robin([1, 1, 1, 1, 1], 2)
        assert result.assignment[0] == [0, 2, 4]
        assert result.assignment[1] == [1, 3]

    def test_loads_computed(self):
        result = pack_round_robin([2.0, 3.0, 4.0], 3)
        assert result.loads == [2.0, 3.0, 4.0]


class TestFirstFitDecreasing:
    def test_respects_capacity_when_possible(self):
        result = pack_first_fit_decreasing([4, 4, 4, 4], 2, capacity=8)
        assert max(result.loads) <= 8

    def test_overflows_to_lightest_bin_when_capacity_too_small(self):
        result = pack_first_fit_decreasing([10, 10, 10], 2, capacity=5)
        assert sorted(result.items_flat()) == [0, 1, 2]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            pack_first_fit_decreasing([1.0], 2, capacity=0)


class TestBinPackingResult:
    def test_imbalance_of_balanced_assignment_is_one(self):
        result = pack_greedy_min_bin([1, 1, 1, 1], 4)
        assert result.imbalance == pytest.approx(1.0)

    def test_bin_of_missing_item_raises(self):
        result = pack_greedy_min_bin([1.0], 2)
        with pytest.raises(KeyError):
            result.bin_of(99)

    def test_empty_result_properties(self):
        result = BinPackingResult()
        assert result.max_load == 0.0
        assert result.min_load == 0.0
        assert result.imbalance == 1.0


# --------------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------------- #
weights_strategy = st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=60)


@given(weights=weights_strategy, n_bins=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_greedy_assignment_is_a_partition(weights, n_bins):
    """Every item is assigned to exactly one bin."""
    result = pack_greedy_min_bin(weights, n_bins)
    assert sorted(result.items_flat()) == list(range(len(weights)))


@given(weights=weights_strategy, n_bins=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_greedy_is_near_balanced(weights, n_bins):
    """The heaviest bin exceeds the mean load by at most one item's weight.

    (LPT/greedy is a heuristic, so it is *not* always better than
    round-robin on adversarial inputs, but this balance guarantee always
    holds and is what matters for Eq. 5's max-over-workers cost.)
    """
    result = pack_greedy_min_bin(weights, n_bins)
    mean_load = sum(weights) / n_bins
    assert result.max_load <= mean_load + max(weights) + 1e-6


@given(weights=weights_strategy, n_bins=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_greedy_makespan_list_scheduling_bound(weights, n_bins):
    """Greedy list scheduling guarantee: makespan <= total/m + max item.

    (When the final item lands in the eventually-heaviest bin, that bin was
    the lightest at the time, so its prior load was at most total/m.)
    """
    result = pack_greedy_min_bin(weights, n_bins)
    total = sum(weights)
    bound = total / n_bins + max(weights)
    assert result.max_load <= bound + 1e-6
