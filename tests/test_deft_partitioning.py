"""Tests for Algorithm 2: two-stage gradient vector partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsifiers.base import GradientLayout
from repro.sparsifiers.deft.k_assignment import layer_norms
from repro.sparsifiers.deft.partitioning import LayerPartition, two_stage_partition


def layout_from_sizes(sizes):
    return GradientLayout.from_named_shapes([(f"layer{i}", (s,)) for i, s in enumerate(sizes)])


class TestLayerPartition:
    def test_size_and_slice(self):
        part = LayerPartition(start=5, end=12, source_layer=0, source_name="a")
        assert part.size == 7
        assert part.slice() == slice(5, 12)

    def test_norm(self):
        """A partition's norm covers only its own fragment of the vector."""
        partitions = [
            LayerPartition(start=0, end=1, source_layer=0, source_name="a"),
            LayerPartition(start=1, end=3, source_layer=0, source_name="a", fragment=1),
            LayerPartition(start=3, end=4, source_layer=1, source_name="b"),
        ]
        norms = layer_norms(np.array([9.0, 3.0, 4.0, 9.0]), partitions)
        np.testing.assert_array_equal(norms, [9.0, 5.0, 9.0])


class TestTwoStagePartition:
    def test_small_layers_kept_whole(self):
        layout = layout_from_sizes([10, 20, 30])
        partitions = two_stage_partition(layout, 2)
        # threshold = 60/2 = 30; no layer exceeds it, so stage one only.
        assert len(partitions) == 3
        assert [p.size for p in partitions] == [10, 20, 30]

    def test_large_layer_is_split_into_n_fragments(self):
        layout = layout_from_sizes([100, 10])
        partitions = two_stage_partition(layout, 4)
        # threshold = 110/4 = 27.5; the 100-layer splits into 4 fragments.
        fragments = [p for p in partitions if p.source_layer == 0]
        assert len(fragments) == 4
        assert sum(p.size for p in fragments) == 100
        assert max(p.size for p in fragments) - min(p.size for p in fragments) <= 1

    def test_remainder_distributed_to_first_fragments(self):
        layout = layout_from_sizes([103, 1])
        partitions = two_stage_partition(layout, 4)
        fragments = [p.size for p in partitions if p.source_layer == 0]
        assert fragments == [26, 26, 26, 25]

    def test_partitions_are_contiguous_and_cover_vector(self):
        layout = layout_from_sizes([50, 7, 200, 3])
        partitions = two_stage_partition(layout, 4)
        position = 0
        for part in partitions:
            assert part.start == position
            position = part.end
        assert position == layout.total_size

    def test_single_worker_keeps_stage_one_only(self):
        layout = layout_from_sizes([100, 10])
        partitions = two_stage_partition(layout, 1)
        assert len(partitions) == 2

    def test_source_names_preserved(self):
        layout = GradientLayout.from_named_shapes([("conv.weight", (64,)), ("fc.weight", (8,))])
        partitions = two_stage_partition(layout, 4)
        assert partitions[0].source_name == "conv.weight"
        assert partitions[-1].source_name == "fc.weight"

    def test_fragment_indices_enumerate_splits(self):
        layout = layout_from_sizes([40])
        partitions = two_stage_partition(layout, 4)
        assert [p.fragment for p in partitions] == [0, 1, 2, 3]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            two_stage_partition(layout_from_sizes([10]), 0)

    def test_realistic_model_partition_sizes_bounded(self):
        """After stage two, no partition from a split layer exceeds n_g / n."""
        from repro.models.lstm_lm import LSTMLanguageModel

        model = LSTMLanguageModel(vocab_size=120, embed_dim=16, hidden_dim=24, rng=np.random.default_rng(0))
        layout = GradientLayout.from_model(model)
        n_workers = 8
        partitions = two_stage_partition(layout, n_workers)
        threshold = layout.total_size / n_workers
        for part in partitions:
            original_size = layout.sizes[part.source_layer]
            if original_size > threshold:
                assert part.size <= int(np.ceil(original_size / n_workers))


# --------------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------------- #
sizes_strategy = st.lists(st.integers(1, 500), min_size=1, max_size=20)


@given(sizes=sizes_strategy, n_workers=st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_partition_covers_vector_exactly(sizes, n_workers):
    """Partitions are contiguous, disjoint and cover [0, n_g)."""
    layout = layout_from_sizes(sizes)
    partitions = two_stage_partition(layout, n_workers)
    position = 0
    for part in partitions:
        assert part.start == position
        assert part.end > part.start
        position = part.end
    assert position == layout.total_size


@given(sizes=sizes_strategy, n_workers=st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_split_layers_respect_threshold(sizes, n_workers):
    """Any layer larger than n_g/n is split into fragments of near-equal size."""
    layout = layout_from_sizes(sizes)
    partitions = two_stage_partition(layout, n_workers)
    threshold = layout.total_size / n_workers
    by_source = {}
    for part in partitions:
        by_source.setdefault(part.source_layer, []).append(part)
    for source, parts in by_source.items():
        original = layout.sizes[source]
        assert sum(p.size for p in parts) == original
        if original > threshold and n_workers > 1:
            assert len(parts) == min(n_workers, original)
            assert max(p.size for p in parts) - min(p.size for p in parts) <= 1
        else:
            assert len(parts) == 1
