"""Tests for the baseline sparsifiers: Top-k, CLT-k, hard-threshold, SIDCo,
Random-k and Dense."""

import numpy as np
import pytest

from repro.comm import SimulatedBackend
from repro.sparsifiers import (
    CLTKSparsifier,
    DenseSparsifier,
    HardThresholdSparsifier,
    RandomKSparsifier,
    SIDCoSparsifier,
    TopKSparsifier,
)
from repro.utils.topk_ops import topk_indices


class TestTopK:
    def test_selects_exactly_k(self, small_layout, small_acc):
        sparsifier = TopKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        result = sparsifier.select(0, 0, small_acc)
        assert result.k_selected == sparsifier.global_k

    def test_selects_largest_magnitudes(self, small_layout, small_acc):
        sparsifier = TopKSparsifier(0.05)
        sparsifier.setup(small_layout, 4)
        result = sparsifier.select(0, 0, small_acc)
        expected = set(topk_indices(small_acc, sparsifier.global_k).tolist())
        assert set(result.indices.tolist()) == expected

    def test_different_workers_select_independently(self, small_layout, rng):
        sparsifier = TopKSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        acc0 = rng.standard_normal(small_layout.total_size)
        acc1 = rng.standard_normal(small_layout.total_size)
        idx0 = set(sparsifier.select(0, 0, acc0).indices.tolist())
        idx1 = set(sparsifier.select(0, 1, acc1).indices.tolist())
        assert idx0 != idx1  # build-up: selections differ across workers

    def test_analytic_cost_is_n_log_k(self, small_layout, small_acc):
        sparsifier = TopKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        result = sparsifier.select(0, 0, small_acc)
        expected = small_layout.total_size * np.log2(max(sparsifier.global_k, 2))
        assert result.analytic_cost == pytest.approx(expected)


class TestCLTK:
    def test_leader_cycles_with_iteration(self, small_layout):
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        assert [sparsifier.leader_of(i) for i in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_all_workers_get_the_leaders_indices(self, small_layout, rng):
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 3)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(3)]
        sparsifier.coordinate(1, accs)
        leader = sparsifier.leader_of(1)
        expected = set(topk_indices(accs[leader], sparsifier.global_k).tolist())
        for rank in range(3):
            result = sparsifier.select(1, rank, accs[rank])
            assert set(result.indices.tolist()) == expected

    def test_no_buildup_across_workers(self, small_layout, rng):
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(4)]
        sparsifier.coordinate(0, accs)
        union = set()
        for rank in range(4):
            union |= set(sparsifier.select(0, rank, accs[rank]).indices.tolist())
        assert len(union) == sparsifier.global_k

    def test_only_leader_pays_selection_cost(self, small_layout, rng):
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(4)]
        sparsifier.coordinate(2, accs)
        leader = sparsifier.leader_of(2)
        for rank in range(4):
            result = sparsifier.select(2, rank, accs[rank])
            if rank == leader:
                assert result.analytic_cost > 0
            else:
                assert result.analytic_cost == 0.0

    def test_broadcast_recorded_when_backend_given(self, small_layout, rng):
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 2)
        backend = SimulatedBackend(2)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(2)]
        sparsifier.coordinate(0, accs, backend)
        assert backend.meter.call_count(op="broadcast") == 1

    def test_non_leader_without_coordinate_raises(self, small_layout, small_acc):
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        with pytest.raises(RuntimeError):
            sparsifier.select(0, 1, small_acc)

    def test_leader_without_a_plan_raises(self, small_layout, small_acc):
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        with pytest.raises(RuntimeError, match="coordinate"):
            sparsifier.select(0, 0, small_acc)  # rank 0 is the leader of iteration 0
        sparsifier.coordinate(0, [small_acc] * 4)
        assert sparsifier.select(0, 0, small_acc).k_selected == sparsifier.global_k

    def test_named_root_leads(self, small_layout, rng):
        """A schedule may name the leader; ``ranks`` maps a partial group."""
        sparsifier = CLTKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(2)]
        plan = sparsifier.coordinate(1, accs, root=3, ranks=[2, 3])
        assert plan.root == 3
        assert set(plan.indices.tolist()) == set(topk_indices(accs[1], sparsifier.global_k).tolist())
        assert sparsifier.select(1, 3, accs[1]).info["is_leader"]


class TestHardThreshold:
    def test_fixed_threshold_selection(self, small_layout):
        sparsifier = HardThresholdSparsifier(0.1, threshold=1.0)
        sparsifier.setup(small_layout, 2)
        acc = np.array([0.5, -2.0, 1.5, 0.1] * (small_layout.total_size // 4 + 1))[: small_layout.total_size]
        result = sparsifier.select(0, 0, acc)
        assert (np.abs(acc[result.indices]) >= 1.0).all()
        assert result.k_selected == int((np.abs(acc) >= 1.0).sum())

    def test_auto_calibration_targets_density(self, small_layout, small_acc):
        sparsifier = HardThresholdSparsifier(0.1)
        sparsifier.setup(small_layout, 2)
        result = sparsifier.select(0, 0, small_acc)
        # First-iteration calibration should select approximately k entries.
        assert abs(result.k_selected - sparsifier.global_k) <= max(2, 0.1 * sparsifier.global_k)

    def test_stale_threshold_changes_selection_count(self, small_layout, small_acc):
        """As gradients shrink, a fixed threshold selects fewer entries -- the
        unpredictable-density weakness of Table 1."""
        sparsifier = HardThresholdSparsifier(0.1)
        sparsifier.setup(small_layout, 2)
        first = sparsifier.select(0, 0, small_acc)
        shrunk = sparsifier.select(1, 0, small_acc * 0.1)
        assert shrunk.k_selected < first.k_selected

    def test_threshold_persists_after_calibration(self, small_layout, small_acc):
        sparsifier = HardThresholdSparsifier(0.1)
        sparsifier.setup(small_layout, 2)
        sparsifier.select(0, 0, small_acc)
        threshold_after_first = sparsifier.threshold
        sparsifier.select(1, 0, small_acc * 2.0)
        assert sparsifier.threshold == threshold_after_first


class TestSIDCo:
    def test_threshold_estimation_is_positive(self, small_layout, small_acc):
        sparsifier = SIDCoSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        threshold = sparsifier.estimate_threshold(np.abs(small_acc))
        assert threshold > 0

    def test_selection_count_is_in_the_right_ballpark(self, small_layout, rng):
        """For exponential-ish magnitudes the fitted threshold should select
        within a factor ~3 of the target k (SIDCo's accuracy claim)."""
        sparsifier = SIDCoSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        acc = rng.exponential(scale=1.0, size=small_layout.total_size) * rng.choice([-1, 1], small_layout.total_size)
        result = sparsifier.select(0, 0, acc)
        k = sparsifier.global_k
        assert k / 3 <= result.k_selected <= 3 * k

    def test_more_stages_refine_threshold(self, small_layout, rng):
        acc = rng.exponential(scale=1.0, size=small_layout.total_size)
        single = SIDCoSparsifier(0.05, n_stages=1)
        multi = SIDCoSparsifier(0.05, n_stages=4)
        single.setup(small_layout, 2)
        multi.setup(small_layout, 2)
        assert single.estimate_threshold(acc) != multi.estimate_threshold(acc)

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            SIDCoSparsifier(0.1, n_stages=0)

    def test_overhead_reported_separately(self, small_layout, small_acc):
        sparsifier = SIDCoSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        result = sparsifier.select(0, 0, small_acc)
        assert "overhead_seconds" in result.info
        assert result.info["overhead_seconds"] >= 0


class TestRandomK:
    def test_selects_k_unique_indices(self, small_layout, small_acc):
        sparsifier = RandomKSparsifier(0.1)
        sparsifier.setup(small_layout, 2, seed=3)
        result = sparsifier.select(0, 0, small_acc)
        assert result.k_selected == sparsifier.global_k
        assert np.unique(result.indices).size == result.k_selected

    def test_reproducible_per_iteration_and_rank(self, small_layout, small_acc):
        a = RandomKSparsifier(0.1)
        b = RandomKSparsifier(0.1)
        a.setup(small_layout, 2, seed=3)
        b.setup(small_layout, 2, seed=3)
        np.testing.assert_array_equal(
            a.select(5, 1, small_acc).indices, b.select(5, 1, small_acc).indices
        )

    def test_different_ranks_select_differently(self, small_layout, small_acc):
        sparsifier = RandomKSparsifier(0.1)
        sparsifier.setup(small_layout, 2, seed=3)
        idx0 = sparsifier.select(0, 0, small_acc).indices
        idx1 = sparsifier.select(0, 1, small_acc).indices
        assert not np.array_equal(np.sort(idx0), np.sort(idx1))


class TestDense:
    def test_selects_everything(self, small_layout, small_acc):
        sparsifier = DenseSparsifier()
        sparsifier.setup(small_layout, 2)
        result = sparsifier.select(0, 0, small_acc)
        assert result.k_selected == small_layout.total_size
        np.testing.assert_array_equal(np.sort(result.indices), np.arange(small_layout.total_size))

    def test_density_forced_to_one(self):
        assert DenseSparsifier(0.3).density == 1.0
