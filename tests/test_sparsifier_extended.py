"""Tests for the extended baselines: DGC, Gaussian-k and gTop-k."""

import numpy as np
import pytest

from repro.comm import SimulatedBackend
from repro.sparsifiers import DGCSparsifier, GaussianKSparsifier, GlobalTopKSparsifier
from repro.sparsifiers.gaussiank import _gaussian_two_sided_quantile
from repro.utils.topk_ops import topk_indices


class TestDGC:
    def test_selection_near_target_k(self, small_layout, rng):
        sparsifier = DGCSparsifier(0.05, sample_ratio=0.5)
        sparsifier.setup(small_layout, 2, seed=1)
        acc = rng.standard_normal(small_layout.total_size)
        result = sparsifier.select(0, 0, acc)
        k = sparsifier.global_k
        assert k / 3 <= result.k_selected <= 3 * k

    def test_refinement_caps_overshoot(self, small_layout, rng):
        sparsifier = DGCSparsifier(0.05, sample_ratio=0.05, refine=True, overshoot_tolerance=1.0)
        sparsifier.setup(small_layout, 2, seed=1)
        acc = rng.standard_normal(small_layout.total_size)
        result = sparsifier.select(0, 0, acc)
        assert result.k_selected <= sparsifier.global_k

    def test_no_refinement_can_overshoot(self, small_layout):
        sparsifier = DGCSparsifier(0.05, sample_ratio=0.02, refine=False)
        sparsifier.setup(small_layout, 2, seed=1)
        # A heavy-tailed accumulator makes the sampled threshold unreliable.
        rng = np.random.default_rng(0)
        acc = rng.standard_cauchy(small_layout.total_size)
        result = sparsifier.select(0, 0, acc)
        assert result.k_selected >= 1

    def test_selected_values_are_large(self, small_layout, rng):
        sparsifier = DGCSparsifier(0.1, sample_ratio=0.5)
        sparsifier.setup(small_layout, 2, seed=2)
        acc = rng.standard_normal(small_layout.total_size)
        result = sparsifier.select(0, 0, acc)
        selected_min = np.abs(acc[result.indices]).min()
        median = np.median(np.abs(acc))
        assert selected_min > median

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DGCSparsifier(0.1, sample_ratio=0.0)
        with pytest.raises(ValueError):
            DGCSparsifier(0.1, overshoot_tolerance=0.5)

    def test_reproducible_given_seed(self, small_layout, rng):
        acc = rng.standard_normal(small_layout.total_size)
        a = DGCSparsifier(0.05)
        b = DGCSparsifier(0.05)
        a.setup(small_layout, 2, seed=7)
        b.setup(small_layout, 2, seed=7)
        np.testing.assert_array_equal(a.select(3, 1, acc).indices, b.select(3, 1, acc).indices)

    def test_table1_style_metadata(self):
        sparsifier = DGCSparsifier(0.1)
        assert sparsifier.has_gradient_buildup
        assert not sparsifier.has_worker_idling


class TestGaussianK:
    def test_quantile_helper(self):
        # 5% two-sided tail of a standard normal is ~1.96 sigma.
        assert _gaussian_two_sided_quantile(0.05) == pytest.approx(1.96, abs=0.01)

    def test_selection_close_to_k_for_gaussian_data(self, small_layout):
        sparsifier = GaussianKSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        rng = np.random.default_rng(3)
        acc = rng.standard_normal(small_layout.total_size)
        result = sparsifier.select(0, 0, acc)
        k = sparsifier.global_k
        assert 0.4 * k <= result.k_selected <= 2.5 * k

    def test_underselects_for_heavy_tailed_data(self, small_layout):
        """On heavy-tailed data the Gaussian fit overestimates the threshold
        -- the density unpredictability the paper criticises."""
        sparsifier = GaussianKSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        rng = np.random.default_rng(4)
        acc = rng.standard_cauchy(small_layout.total_size)
        result = sparsifier.select(0, 0, acc)
        assert result.k_selected < sparsifier.global_k

    def test_threshold_reported(self, small_layout, small_acc):
        sparsifier = GaussianKSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        result = sparsifier.select(0, 0, small_acc)
        assert result.info["threshold"] > 0
        assert result.info["sigma"] > 0


class TestGlobalTopK:
    def test_exactly_k_selected_globally(self, small_layout, rng):
        n_workers = 4
        sparsifier = GlobalTopKSparsifier(0.05)
        sparsifier.setup(small_layout, n_workers)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(n_workers)]
        sparsifier.coordinate(0, accs)
        union = set()
        for rank in range(n_workers):
            result = sparsifier.select(0, rank, accs[rank])
            union |= set(result.indices.tolist())
            assert result.k_selected == sparsifier.global_k
        assert len(union) == sparsifier.global_k

    def test_all_workers_share_the_same_indices(self, small_layout, rng):
        sparsifier = GlobalTopKSparsifier(0.05)
        sparsifier.setup(small_layout, 3)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(3)]
        sparsifier.coordinate(1, accs)
        reference = sparsifier.select(1, 0, accs[0]).indices
        for rank in (1, 2):
            np.testing.assert_array_equal(sparsifier.select(1, rank, accs[rank]).indices, reference)

    def test_keeps_largest_summed_contributions(self, small_layout):
        """The merge ranks candidates by |sum over workers|, so an index large
        on every worker beats one that is large on a single worker only."""
        n = small_layout.total_size
        acc_a = np.zeros(n)
        acc_b = np.zeros(n)
        acc_a[0] = 1.0
        acc_b[0] = 1.0      # index 0: moderate on both workers (sum 2.0)
        acc_a[1] = 1.5      # index 1: large on one worker only (sum 1.5)
        acc_a[2:12] = 0.01
        acc_b[2:12] = 0.01
        sparsifier = GlobalTopKSparsifier(1.0 / n)  # k == 1
        sparsifier.setup(small_layout, 2)
        sparsifier.coordinate(0, [acc_a, acc_b])
        result = sparsifier.select(0, 0, acc_a)
        assert result.indices.tolist() == [0]

    def test_candidate_gather_recorded(self, small_layout, rng):
        sparsifier = GlobalTopKSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        backend = SimulatedBackend(2)
        accs = [rng.standard_normal(small_layout.total_size) for _ in range(2)]
        sparsifier.coordinate(0, accs, backend)
        assert backend.meter.call_count(op="allgather", tag="gtopk-candidates") == 1

    def test_select_without_a_plan_raises(self, small_layout, small_acc):
        sparsifier = GlobalTopKSparsifier(0.05)
        sparsifier.setup(small_layout, 2)
        with pytest.raises(RuntimeError, match="coordinate"):
            sparsifier.select(0, 0, small_acc)
        # A one-accumulator plan is that accumulator's own top-k.
        sparsifier.coordinate(0, [small_acc])
        expected = set(topk_indices(small_acc, sparsifier.global_k).tolist())
        assert set(sparsifier.select(0, 0, small_acc).indices.tolist()) == expected

    def test_no_buildup_metadata(self):
        sparsifier = GlobalTopKSparsifier(0.1)
        assert not sparsifier.has_gradient_buildup
        assert not sparsifier.has_worker_idling


class TestExtendedBaselinesInTraining:
    @pytest.mark.parametrize("name", ["dgc", "gaussiank", "gtopk"])
    def test_short_training_run(self, name, smoke_lm_task):
        from repro.sparsifiers import build_sparsifier
        from repro.api import RunSpec
        from repro.training.trainer import DistributedTrainer

        sparsifier = build_sparsifier(name, 0.05)
        config = RunSpec.from_flat(n_workers=2, batch_size=8, epochs=1, lr=0.2, seed=0,
                                max_iterations_per_epoch=3, evaluate_each_epoch=False).resolve()
        result = DistributedTrainer(smoke_lm_task, sparsifier, config).train()
        assert np.isfinite(result.logger.series("loss").values).all()
        assert result.mean_density() > 0

    def test_gtopk_density_does_not_build_up(self, smoke_lm_task):
        from repro.sparsifiers import build_sparsifier
        from repro.api import RunSpec
        from repro.training.trainer import DistributedTrainer

        sparsifier = build_sparsifier("gtopk", 0.05)
        config = RunSpec.from_flat(n_workers=4, batch_size=8, epochs=1, lr=0.2, seed=0,
                                max_iterations_per_epoch=3, evaluate_each_epoch=False).resolve()
        result = DistributedTrainer(smoke_lm_task, sparsifier, config).train()
        assert result.mean_density() == pytest.approx(0.05, rel=0.1)
