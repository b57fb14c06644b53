"""Tests for the Sparsifier base class, GradientLayout and the registry."""

import numpy as np
import pytest

from repro.models.mlp import MLP
from repro.sparsifiers import (
    CLTKSparsifier,
    DEFTSparsifier,
    DenseSparsifier,
    GradientLayout,
    HardThresholdSparsifier,
    RandomKSparsifier,
    SIDCoSparsifier,
    Sparsifier,
    TopKSparsifier,
    available_sparsifiers,
    build_sparsifier,
)
from repro.sparsifiers.deft.k_assignment import layer_norms
from repro.sparsifiers.deft.partitioning import two_stage_partition


class TestGradientLayout:
    def test_from_named_shapes(self):
        layout = GradientLayout.from_named_shapes([("a", (3, 4)), ("b", (5,))])
        assert layout.n_layers == 2
        assert layout.total_size == 17
        assert layout.sizes == (12, 5)
        assert layout.offsets == (0, 12)

    def test_from_model(self):
        model = MLP(in_features=6, hidden_sizes=(4,), num_classes=3, rng=np.random.default_rng(0))
        layout = GradientLayout.from_model(model)
        assert layout.total_size == model.num_parameters()
        assert layout.n_layers == len(model.parameters())

    def test_slices_cover_vector(self, small_layout):
        slices = small_layout.slices()
        covered = sum(s.stop - s.start for s in slices)
        assert covered == small_layout.total_size
        assert slices[0].start == 0
        assert slices[-1].stop == small_layout.total_size

    def test_layer_norms(self, small_layout):
        """A layout's per-layer norms are DEFT's over its stage-one partitions."""
        flat = np.zeros(small_layout.total_size)
        flat[small_layout.offsets[2] : small_layout.offsets[2] + small_layout.sizes[2]] = 3.0
        norms = layer_norms(flat, two_stage_partition(small_layout, 1))
        assert norms[2] > 0
        assert norms[0] == 0.0

    def test_layer_norms_wrong_length(self, small_layout):
        with pytest.raises(ValueError):
            layer_norms(np.zeros(small_layout.total_size + 1), two_stage_partition(small_layout, 1))

    def test_scalar_parameter_has_size_one(self):
        layout = GradientLayout.from_named_shapes([("scalar", ())])
        assert layout.total_size == 1


class TestSparsifierBase:
    def test_invalid_density_rejected(self):
        for density in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                TopKSparsifier(density)

    def test_density_one_allowed(self):
        assert TopKSparsifier(1.0).density == 1.0

    def test_setup_required_before_use(self, small_acc):
        sparsifier = TopKSparsifier(0.1)
        with pytest.raises(RuntimeError):
            sparsifier.select(0, 0, small_acc)

    def test_setup_validates_workers(self, small_layout):
        with pytest.raises(ValueError):
            TopKSparsifier(0.1).setup(small_layout, 0)

    def test_global_k(self, small_layout):
        sparsifier = TopKSparsifier(0.1)
        sparsifier.setup(small_layout, 4)
        assert sparsifier.global_k == max(1, round(0.1 * small_layout.total_size))

    def test_global_k_at_least_one(self, small_layout):
        sparsifier = TopKSparsifier(1e-9)
        sparsifier.setup(small_layout, 4)
        assert sparsifier.global_k == 1

    def test_describe_contains_metadata(self, small_layout):
        sparsifier = DEFTSparsifier(0.01)
        sparsifier.setup(small_layout, 2)
        description = sparsifier.describe()
        assert description["name"] == "deft"
        assert description["gradient_buildup"] is False

    def test_base_select_not_implemented(self, small_layout, small_acc):
        sparsifier = Sparsifier(0.5)
        sparsifier.setup(small_layout, 2)
        with pytest.raises(NotImplementedError):
            sparsifier.select(0, 0, small_acc)


class TestRegistry:
    def test_all_expected_names(self):
        assert set(available_sparsifiers()) == {
            "topk",
            "cltk",
            "hard_threshold",
            "sidco",
            "randomk",
            "dense",
            "deft",
            "dgc",
            "gaussiank",
            "gtopk",
        }

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("topk", TopKSparsifier),
            ("cltk", CLTKSparsifier),
            ("hard_threshold", HardThresholdSparsifier),
            ("sidco", SIDCoSparsifier),
            ("randomk", RandomKSparsifier),
            ("dense", DenseSparsifier),
            ("deft", DEFTSparsifier),
        ],
    )
    def test_builds_correct_type(self, name, cls):
        assert isinstance(build_sparsifier(name, 0.05), cls)

    def test_builds_extended_baselines(self):
        from repro.sparsifiers import DGCSparsifier, GaussianKSparsifier, GlobalTopKSparsifier

        assert isinstance(build_sparsifier("dgc", 0.05), DGCSparsifier)
        assert isinstance(build_sparsifier("gaussiank", 0.05), GaussianKSparsifier)
        assert isinstance(build_sparsifier("gtopk", 0.05), GlobalTopKSparsifier)

    def test_case_insensitive(self):
        assert isinstance(build_sparsifier("DEFT", 0.05), DEFTSparsifier)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_sparsifier("magic", 0.01)

    def test_kwargs_forwarded(self):
        sparsifier = build_sparsifier("hard_threshold", 0.01, threshold=0.5)
        assert sparsifier.threshold == 0.5

    def test_table1_metadata_matches_paper(self):
        """The class-level flags must agree with the paper's Table 1."""
        expectations = {
            "topk": (True, False, False),
            "cltk": (False, False, True),
            "hard_threshold": (True, True, False),
            "sidco": (True, False, False),
            "deft": (False, False, False),
        }
        for name, (buildup, tuning, idling) in expectations.items():
            sparsifier = build_sparsifier(name, 0.01)
            assert sparsifier.has_gradient_buildup is buildup, name
            assert sparsifier.needs_hyperparameter_tuning is tuning, name
            assert sparsifier.has_worker_idling is idling, name
