"""Tests for the end-to-end DEFTSparsifier (orchestration of Algorithms 2-5)."""

import importlib

import numpy as np
import pytest

from repro.comm import SimulatedBackend
from repro.sparsifiers import DEFTSparsifier
from repro.sparsifiers.deft.allocation import AllocationPolicy
from repro.sparsifiers.deft.k_assignment import assign_local_k, layer_norms
from repro.sparsifiers.deft.selection import layerwise_select


def make_accs(layout, n_workers, seed=0, scale=0.05):
    """Per-worker accumulators: shared signal plus small worker-specific noise
    (workers share model state, so their gradients are similar but not equal)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(layout.total_size)
    for i, (offset, size) in enumerate(zip(layout.offsets, layout.sizes)):
        base[offset : offset + size] *= (i + 1) * 0.4
    accs = []
    for rank in range(n_workers):
        noise = np.random.default_rng(seed + 100 + rank).standard_normal(layout.total_size)
        accs.append(base + scale * noise)
    return accs


class TestSetup:
    def test_partitions_created_on_setup(self, small_layout):
        sparsifier = DEFTSparsifier(0.05)
        sparsifier.setup(small_layout, 4)
        assert len(sparsifier.partitions) >= small_layout.n_layers
        assert sum(p.size for p in sparsifier.partitions) == small_layout.total_size

    def test_single_stage_ablation_has_one_partition_per_layer(self, small_layout):
        sparsifier = DEFTSparsifier(0.05, two_stage=False)
        sparsifier.setup(small_layout, 8)
        assert len(sparsifier.partitions) == small_layout.n_layers

    def test_delegate_cycles(self, small_layout):
        sparsifier = DEFTSparsifier(0.05)
        sparsifier.setup(small_layout, 4)
        assert [sparsifier.delegate_of(i) for i in range(5)] == [0, 1, 2, 3, 0]


class TestSelection:
    def test_workers_select_disjoint_indices(self, small_layout):
        n_workers = 4
        sparsifier = DEFTSparsifier(0.1)
        sparsifier.setup(small_layout, n_workers)
        accs = make_accs(small_layout, n_workers)
        sparsifier.coordinate(0, accs)
        all_indices = [sparsifier.select(0, rank, accs[rank]).indices for rank in range(n_workers)]
        union = np.concatenate(all_indices)
        assert np.unique(union).size == union.size

    def test_union_size_close_to_global_k(self, small_layout):
        n_workers = 4
        sparsifier = DEFTSparsifier(0.1)
        sparsifier.setup(small_layout, n_workers)
        accs = make_accs(small_layout, n_workers)
        sparsifier.coordinate(0, accs)
        union = np.concatenate([sparsifier.select(0, r, accs[r]).indices for r in range(n_workers)])
        k = sparsifier.global_k
        # The per-layer floor of 1 and worker-local k assignment can move the
        # total by roughly the number of partitions.
        assert abs(union.size - k) <= len(sparsifier.partitions) + n_workers

    def test_indices_within_range(self, small_layout):
        sparsifier = DEFTSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        accs = make_accs(small_layout, 2)
        sparsifier.coordinate(0, accs)
        for rank in range(2):
            idx = sparsifier.select(0, rank, accs[rank]).indices
            assert idx.min() >= 0 and idx.max() < small_layout.total_size

    def test_standalone_mode_without_coordinate(self, small_layout, small_acc):
        """Without the round plan of its iteration, select refuses: it never
        builds an allocation from whichever rank happens to call first."""
        sparsifier = DEFTSparsifier(0.1)
        sparsifier.setup(small_layout, 3)
        with pytest.raises(RuntimeError, match="coordinate"):
            sparsifier.select(0, 1, small_acc)
        sparsifier.coordinate(0, [small_acc] * 3)
        with pytest.raises(RuntimeError, match="coordinate"):
            sparsifier.select(1, 1, small_acc)
        assert sparsifier.select(0, 1, small_acc).k_selected > 0

    def test_selection_prefers_high_norm_layers(self, small_layout):
        """A layer given a 10x larger gradient magnitude must receive a larger
        share of the selected indices than an equal-sized quiet layer."""
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(small_layout.total_size) * 0.01
        loud = small_layout.slices()[1]  # lstm.weight_ih (256 elements)
        quiet = small_layout.slices()[2]  # lstm.weight_hh (same size)
        flat[loud] = rng.standard_normal(loud.stop - loud.start) * 1.0
        sparsifier = DEFTSparsifier(0.05)
        sparsifier.setup(small_layout, 1)
        sparsifier.coordinate(0, [flat])
        result = sparsifier.select(0, 0, flat)
        idx = result.indices
        loud_count = ((idx >= loud.start) & (idx < loud.stop)).sum()
        quiet_count = ((idx >= quiet.start) & (idx < quiet.stop)).sum()
        assert loud_count > quiet_count

    def test_allocation_covers_all_partitions(self, small_layout):
        sparsifier = DEFTSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        accs = make_accs(small_layout, 4)
        plan = sparsifier.coordinate(0, accs)
        allocated = sorted(i for items in plan.allocation for i in items)
        assert allocated == list(range(len(sparsifier.partitions)))

    def test_info_contains_partition_metadata(self, small_layout, small_acc):
        sparsifier = DEFTSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        sparsifier.coordinate(0, [small_acc] * 2)
        result = sparsifier.select(0, 0, small_acc)
        assert result.info["n_partitions"] == len(sparsifier.partitions)
        assert result.info["allocation_policy"] == "bin_packing"
        assert "partition_seconds" in result.info


class TestCoordinate:
    def test_broadcast_overhead_recorded(self, small_layout):
        n_workers = 3
        sparsifier = DEFTSparsifier(0.1)
        sparsifier.setup(small_layout, n_workers)
        backend = SimulatedBackend(n_workers)
        accs = make_accs(small_layout, n_workers)
        sparsifier.coordinate(0, accs, backend)
        record = backend.meter.records[-1]
        assert record.op == "broadcast"
        assert record.tag == "deft-allocation"
        # Payload is one integer per partitioned layer (the paper's 4L bytes).
        assert record.received_per_rank[0] == len(sparsifier.partitions)

    def test_allocation_changes_with_delegate(self, small_layout):
        """Different iterations can produce different allocations because the
        delegated worker (and its accumulator) changes."""
        n_workers = 2
        sparsifier = DEFTSparsifier(0.1)
        sparsifier.setup(small_layout, n_workers)
        accs = make_accs(small_layout, n_workers, scale=1.0)
        plan0 = sparsifier.coordinate(0, accs)
        plan1 = sparsifier.coordinate(1, accs)
        # They may coincide, but the delegate must differ, and each plan is
        # built from its own delegate's accumulator.
        assert (plan0.root, plan1.root) == (0, 1)
        assert plan0.allocation == sparsifier.compute_allocation(accs[0])
        assert plan1.allocation == sparsifier.compute_allocation(accs[1])

    def test_cached_allocation_reused_within_iteration(self, small_layout):
        sparsifier = DEFTSparsifier(0.1)
        sparsifier.setup(small_layout, 2)
        accs = make_accs(small_layout, 2)
        plan = sparsifier.coordinate(5, accs)
        for rank in range(2):
            result = sparsifier.select(5, rank, accs[rank])
            assert result.info["n_allocated_layers"] == len(plan.allocation[rank])
        assert sparsifier.plan is plan


class TestAblations:
    def test_round_robin_policy_still_disjoint(self, small_layout):
        sparsifier = DEFTSparsifier(0.1, allocation_policy=AllocationPolicy.ROUND_ROBIN)
        sparsifier.setup(small_layout, 3)
        accs = make_accs(small_layout, 3)
        sparsifier.coordinate(0, accs)
        union = np.concatenate([sparsifier.select(0, r, accs[r]).indices for r in range(3)])
        assert np.unique(union).size == union.size

    def test_bin_packing_balances_better_than_round_robin(self):
        """On a layout with very unequal layer sizes, the paper's bin-packing
        allocation yields a lower max per-worker analytic cost."""
        from repro.sparsifiers.base import GradientLayout

        layout = GradientLayout.from_named_shapes(
            [("big", (5000,)), ("mid", (800,)), ("small1", (60,)), ("small2", (40,)), ("small3", (30,)), ("small4", (20,))]
        )
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(layout.total_size)
        n_workers = 3

        def max_cost(policy):
            sparsifier = DEFTSparsifier(0.02, allocation_policy=policy)
            sparsifier.setup(layout, n_workers)
            accs = [flat + 0.01 * rng.standard_normal(flat.size) for _ in range(n_workers)]
            sparsifier.coordinate(0, accs)
            costs = [sparsifier.select(0, r, accs[r]).analytic_cost for r in range(n_workers)]
            return max(costs)

        assert max_cost(AllocationPolicy.BIN_PACKING) <= max_cost(AllocationPolicy.ROUND_ROBIN)

    def test_uniform_k_ablation_differs_from_norm_proportional(self, small_layout):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(small_layout.total_size)
        # Make one layer much louder so the norm-aware assignment must differ.
        flat[small_layout.slices()[0]] *= 20.0
        norm_aware = DEFTSparsifier(0.05, norm_proportional_k=True)
        uniform = DEFTSparsifier(0.05, norm_proportional_k=False)
        norm_aware.setup(small_layout, 1)
        uniform.setup(small_layout, 1)
        ks_norm = norm_aware.coordinate(0, [flat]).ks
        uniform_plan = uniform.coordinate(0, [flat])
        ks_uniform = uniform_plan.ks
        assert uniform_plan.shared_ks
        assert not np.array_equal(ks_norm, ks_uniform)
        # The loud layer gets more budget under the norm-aware rule.
        assert ks_norm[0] >= ks_uniform[0]


class TestRobustNorms:
    """--robust-norms: median-of-norms k assignment in the coordinate phase."""

    def test_median_norms_computed_and_gathered(self, small_layout):
        sparsifier = DEFTSparsifier(0.05, robust_norms=True)
        sparsifier.setup(small_layout, 4)
        backend = SimulatedBackend(4)
        accs = make_accs(small_layout, 4)
        plan = sparsifier.coordinate(0, accs, backend)
        median = np.median([layer_norms(acc, sparsifier.partitions) for acc in accs], axis=0)
        assert plan.shared_ks
        np.testing.assert_array_equal(
            plan.ks, assign_local_k(sparsifier.partitions, median, sparsifier.global_k)
        )
        assert backend.meter.call_count(tag="deft-norms") == 1

    def test_byzantine_delegate_cannot_grab_budget(self, small_layout):
        """Iteration 3's delegate is rank 3.  When that worker inflates one
        layer's accumulator by 1e6, the non-robust allocation assigns that
        layer (nearly) the whole budget; the robust one does not."""
        n_workers = 4
        accs = make_accs(small_layout, n_workers)
        accs[3] = accs[3].copy()
        inflated = slice(small_layout.offsets[0], small_layout.offsets[0] + small_layout.sizes[0])
        accs[3][inflated] *= 1e6

        def k_in_inflated_layer(sparsifier):
            sparsifier.setup(small_layout, n_workers)
            ks = sparsifier.coordinate(3, accs, SimulatedBackend(n_workers)).ks
            end = small_layout.offsets[0] + small_layout.sizes[0]
            return sum(
                int(k) for k, p in zip(ks, sparsifier.partitions) if p.start < end
            ), int(ks.sum())

        grabbed, total_plain = k_in_inflated_layer(DEFTSparsifier(0.05))
        robust, total_robust = k_in_inflated_layer(DEFTSparsifier(0.05, robust_norms=True))
        # Algorithm 3's one-slot floor leaves each other partition a single
        # gradient, so "the whole budget" means everything above that floor.
        assert grabbed >= 0.8 * total_plain
        assert robust < 0.6 * total_robust

    def test_benign_selection_stays_disjoint(self, small_layout):
        sparsifier = DEFTSparsifier(0.05, robust_norms=True)
        sparsifier.setup(small_layout, 4)
        accs = make_accs(small_layout, 4)
        sparsifier.coordinate(0, accs, SimulatedBackend(4))
        all_indices = []
        for rank in range(4):
            result = sparsifier.select(0, rank, accs[rank])
            all_indices.append(result.indices)
        union = np.concatenate(all_indices)
        assert len(union) == len(np.unique(union))

    def test_robust_norms_shared_across_workers(self, small_layout):
        """With the statistic coordinated, every worker assigns the same
        per-partition k, matching the allocation's cost assumptions."""
        sparsifier = DEFTSparsifier(0.05, robust_norms=True)
        sparsifier.setup(small_layout, 4)
        accs = make_accs(small_layout, 4)
        plan = sparsifier.coordinate(0, accs, SimulatedBackend(4))
        assert plan.shared_ks
        for rank in range(4):
            picks = sparsifier.select(0, rank, accs[rank]).indices
            for x in plan.allocation[rank]:
                part = sparsifier.partitions[x]
                inside = (picks >= part.start) & (picks < part.end)
                assert int(inside.sum()) == plan.ks[x]

    def test_off_by_default_and_standalone_fallback(self, small_layout, small_acc):
        sparsifier = DEFTSparsifier(0.05)
        assert sparsifier.robust_norms is False
        robust = DEFTSparsifier(0.05, robust_norms=True)
        robust.setup(small_layout, 4)
        # Standalone use is a plan over the caller's accumulator alone: the
        # median of one norm row is that row (local norms).
        plan = robust.coordinate(0, [small_acc])
        local = assign_local_k(robust.partitions, layer_norms(small_acc, robust.partitions), robust.global_k)
        np.testing.assert_array_equal(plan.ks, local)
        assert robust.select(0, 0, small_acc).k_selected > 0


class TestNormReuse:
    """One per-partition norm pass per rank and iteration.

    ``coordinate`` computes the delegate's norm vector for the allocation and
    puts the ``ks`` Algorithm 3 assigns from it into the round plan; the
    delegate's ``select`` reads them, every other rank runs its own pass.
    """

    @staticmethod
    def _record(monkeypatch):
        """Count norm passes and capture the norms Algorithm 3 receives."""
        module = importlib.import_module("repro.sparsifiers.deft.deft")
        passes, assigned = [], []

        def counting_layer_norms(acc_flat, partitions):
            passes.append(np.asarray(acc_flat).__array_interface__["data"][0])
            return layer_norms(acc_flat, partitions)

        def recording_assign_local_k(partitions, norms, k_total):
            assigned.append(np.array(norms))
            return assign_local_k(partitions, norms, k_total)

        monkeypatch.setattr(module, "layer_norms", counting_layer_norms)
        monkeypatch.setattr(module, "assign_local_k", recording_assign_local_k)
        return passes, assigned

    def _setup(self, layout, n_workers=4, **kwargs):
        sparsifier = DEFTSparsifier(0.05, **kwargs)
        sparsifier.setup(layout, n_workers)
        return sparsifier

    def test_delegate_select_reuses_coordinate_norms(self, small_layout, monkeypatch):
        sparsifier = self._setup(small_layout)
        accs = make_accs(small_layout, 4)
        passes, assigned = self._record(monkeypatch)
        sparsifier.coordinate(1, accs, SimulatedBackend(4))
        assert len(passes) == 1
        sparsifier.select(1, 1, accs[1])
        assert len(passes) == 1
        np.testing.assert_array_equal(assigned[-1], layer_norms(accs[1], sparsifier.partitions))
        for rank in (0, 2, 3):
            sparsifier.select(1, rank, accs[rank])
        assert len(passes) == 4

    def test_rank_sharing_the_delegates_buffer_computes_its_own(self, small_layout, monkeypatch):
        """Ranks 1 and 3 pass the same buffer (as the select_scale benchmark
        does): rank 3 still runs its own pass, and only the delegate, rank 1,
        reads the plan's ``ks`` -- as often as it selects."""
        sparsifier = self._setup(small_layout)
        a, b = make_accs(small_layout, 2)
        passes, _ = self._record(monkeypatch)
        sparsifier.coordinate(1, [a, b, a, b], SimulatedBackend(4))
        sparsifier.select(1, 3, b)
        assert len(passes) == 2
        sparsifier.select(1, 1, b)
        sparsifier.select(1, 1, b)
        assert len(passes) == 2

    def test_other_iteration_or_buffer_recomputes(self, small_layout, monkeypatch):
        """A rank other than the delegate runs its pass on whatever buffer it
        is handed.  The delegate's ``select`` reads the plan's ``ks`` for any
        buffer: a louder copy selects with the norms ``coordinate`` saw."""
        sparsifier = self._setup(small_layout)
        accs = make_accs(small_layout, 4)
        passes, assigned = self._record(monkeypatch)
        plan = sparsifier.coordinate(1, accs, SimulatedBackend(4))
        louder = accs[1] * 2.0
        result = sparsifier.select(1, 1, louder)
        assert len(passes) == 1
        expected, _, _ = layerwise_select(louder, sparsifier.partitions, plan.ks, plan.allocation[1])
        assert set(result.indices.tolist()) == set(expected.tolist())
        sparsifier.select(1, 0, louder)
        assert len(passes) == 2
        np.testing.assert_array_equal(assigned[-1], layer_norms(louder, sparsifier.partitions))
        # The trainer updates accumulators in place between iterations; the
        # next round's plan is built from the new contents, never from the
        # vector the last round saw in the same buffer.
        accs[2] *= 3.0
        sparsifier.coordinate(2, accs, SimulatedBackend(4))
        assert len(passes) == 3
        np.testing.assert_array_equal(assigned[-1], layer_norms(accs[2], sparsifier.partitions))

    def test_standalone_select_is_one_pass_and_unchanged(self, small_layout, small_acc, monkeypatch):
        sparsifier = self._setup(small_layout)
        reference = self._setup(small_layout)
        ks = assign_local_k(
            reference.partitions, layer_norms(small_acc, reference.partitions), reference.global_k
        )
        allocation = reference.compute_allocation(small_acc)
        expected, _, _ = layerwise_select(small_acc, reference.partitions, ks, allocation[2])
        passes, _ = self._record(monkeypatch)
        # Standalone use: the caller names itself the root of a one-rank view.
        sparsifier.coordinate(0, [small_acc], root=2, ranks=[2])
        result = sparsifier.select(0, 2, small_acc)
        assert len(passes) == 1
        assert set(result.indices.tolist()) == set(expected.tolist())

    def test_robust_norms_one_pass_per_worker(self, small_layout, monkeypatch):
        sparsifier = self._setup(small_layout, robust_norms=True)
        accs = make_accs(small_layout, 4)
        rows = np.stack([layer_norms(acc, sparsifier.partitions) for acc in accs])
        passes, assigned = self._record(monkeypatch)
        sparsifier.coordinate(0, accs, SimulatedBackend(4))
        for rank in range(4):
            sparsifier.select(0, rank, accs[rank])
        assert len(passes) == 4
        np.testing.assert_array_equal(assigned[-1], np.median(rows, axis=0))
