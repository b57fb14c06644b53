"""Tests for Algorithm 3: gradient-norm based local k assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsifiers.base import GradientLayout
from repro.sparsifiers.deft.k_assignment import assign_local_k, layer_norms, norm_statistic
from repro.sparsifiers.deft.partitioning import two_stage_partition


def make_partitions(sizes, n_workers=1):
    layout = GradientLayout.from_named_shapes([(f"l{i}", (s,)) for i, s in enumerate(sizes)])
    return two_stage_partition(layout, n_workers)


class TestLayerNorms:
    def test_norms_match_numpy(self):
        """Bit for bit, on float64, float32 and integer input."""
        partitions = make_partitions([4, 6, 1, 300])
        rng = np.random.default_rng(0)
        for flat in (
            rng.standard_normal(311),
            rng.standard_normal(311).astype(np.float32),
            rng.integers(-9, 9, size=311),
        ):
            expected = [np.linalg.norm(flat[p.start : p.end], ord=2) for p in partitions]
            norms = layer_norms(flat, partitions)
            assert norms.dtype == np.float64
            np.testing.assert_array_equal(norms, np.array(expected, dtype=np.float64))


class TestAssignLocalK:
    def test_total_close_to_budget(self):
        partitions = make_partitions([100, 200, 300])
        norms = [1.0, 2.0, 3.0]
        ks = assign_local_k(partitions, norms, 60)
        assert abs(int(ks.sum()) - 60) <= len(partitions)

    def test_proportional_to_norms_for_equal_sizes(self):
        partitions = make_partitions([100, 100, 100])
        ks = assign_local_k(partitions, [1.0, 2.0, 7.0], 100)
        assert ks[2] > ks[1] > ks[0]

    def test_larger_norm_never_gets_less_with_equal_sizes(self):
        partitions = make_partitions([50, 50])
        ks = assign_local_k(partitions, [10.0, 1.0], 20)
        assert ks[0] >= ks[1]

    def test_k_capped_by_layer_size(self):
        partitions = make_partitions([5, 1000])
        ks = assign_local_k(partitions, [100.0, 1.0], 500)
        assert ks[0] <= 5

    def test_every_layer_gets_at_least_one_when_budget_positive(self):
        """Algorithm 3 line 13 floors each layer's k at 1, so even layers with
        tiny norms contribute (and the total can slightly exceed k)."""
        partitions = make_partitions([10, 10, 10])
        ks = assign_local_k(partitions, [5.0, 0.001, 0.001], 9)
        assert (ks >= 1).all()

    def test_zero_budget_assigns_zero(self):
        partitions = make_partitions([10, 10])
        ks = assign_local_k(partitions, [1.0, 1.0], 0)
        assert int(ks.sum()) == 0

    def test_zero_norms_handled(self):
        partitions = make_partitions([10, 10])
        ks = assign_local_k(partitions, [0.0, 0.0], 5)
        # With no norm signal the algorithm still terminates with a valid
        # (possibly conservative) assignment bounded by layer sizes.
        assert (ks >= 0).all()
        assert (ks <= 10).all()

    def test_budget_equal_to_total_size_selects_everything(self):
        partitions = make_partitions([10, 20])
        ks = assign_local_k(partitions, [1.0, 2.0], 30)
        assert int(ks.sum()) == 30
        assert list(ks) == [10, 20]

    def test_negative_inputs_rejected(self):
        partitions = make_partitions([10])
        with pytest.raises(ValueError):
            assign_local_k(partitions, [-1.0], 5)
        with pytest.raises(ValueError):
            assign_local_k(partitions, [1.0], -5)
        with pytest.raises(ValueError):
            assign_local_k(partitions, [1.0, 2.0], 5)

    def test_deterministic(self):
        partitions = make_partitions([30, 60, 90])
        norms = [3.0, 2.0, 1.0]
        np.testing.assert_array_equal(
            assign_local_k(partitions, norms, 40), assign_local_k(partitions, norms, 40)
        )

    def test_empty_partition_list(self):
        assert assign_local_k([], [], 10).size == 0

    def test_layers_are_visited_in_decreasing_norm_order(self):
        """Algorithm 3 visits the larger norm first.  Here the order
        decides ``ks``: the 100-layer (norm 3) first takes 40 * 3/4 = 30 and
        the 4-layer is capped at its size, ks = [4, 30].  Visiting the
        4-layer first would cap it at 4 and leave all 36 to the other
        layer, ks = [4, 36]."""
        ks = assign_local_k(make_partitions([4, 100]), [1.0, 3.0], 40)
        assert ks.tolist() == [4, 30]

    def test_l2_norms_not_l1_norms_split_the_budget(self):
        """A spiky layer (one entry of 15) against a flat one (100 entries
        of 0.5): L2 norms 15 and 5, L1 norms 15 and 50.  With k = 0.2 * 200
        = 40, L2 gives the spiky layer 40 * 15/20 = 30 and the flat one the
        remaining 10; L1 would give the flat layer 40 * 50/65 -> 30 first
        and the spiky one 10."""
        from repro.sparsifiers import DEFTSparsifier

        layout = GradientLayout.from_named_shapes([("spiky", (100,)), ("flat", (100,))])
        flat = np.concatenate([np.zeros(100), np.full(100, 0.5)])
        flat[37] = 15.0
        sparsifier = DEFTSparsifier(0.2)
        sparsifier.setup(layout, 1)
        np.testing.assert_array_equal(layer_norms(flat, sparsifier.partitions), [15.0, 5.0])
        assert sparsifier.coordinate(0, [flat]).ks.tolist() == [30, 10]

    def test_priority_order_is_by_norm(self):
        """The highest-norm layer is assigned first and therefore gets the
        full proportional share before rounding losses accumulate."""
        partitions = make_partitions([1000, 1000])
        ks = assign_local_k(partitions, [9.0, 1.0], 100)
        assert ks[0] == pytest.approx(90, abs=2)
        assert ks[1] == pytest.approx(10, abs=2)


# --------------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------------- #
@st.composite
def partition_problem(draw):
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=15))
    norms = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=len(sizes),
            max_size=len(sizes),
        )
    )
    total = sum(sizes)
    k_total = draw(st.integers(0, total))
    return sizes, norms, k_total


@given(problem=partition_problem())
@settings(max_examples=80, deadline=None)
def test_assignment_respects_sizes_and_budget(problem):
    """Invariants of Algorithm 3: 0 <= k_x <= size_x and the total is close
    to the requested budget (within one unit per layer from the max(1,.)
    floor and integer truncation)."""
    sizes, norms, k_total = problem
    partitions = make_partitions(sizes)
    ks = assign_local_k(partitions, norms, k_total)
    assert len(ks) == len(sizes)
    for k, size in zip(ks, sizes):
        assert 0 <= k <= size
    assert int(ks.sum()) <= k_total + len(sizes)
    if k_total > 0:
        # The per-layer floor of 1 (Algorithm 3) applies to every layer.
        assert (ks >= 1).all()


@given(
    sizes=st.lists(st.integers(50, 200), min_size=2, max_size=8),
    seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_monotone_in_norm_for_equal_sizes(sizes, seed):
    """With equal sizes, a layer with a strictly larger norm never receives a
    smaller k than a layer with a smaller norm."""
    size = sizes[0]
    partitions = make_partitions([size] * len(sizes))
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0.1, 10.0, len(sizes))
    ks = assign_local_k(partitions, norms, size * len(sizes) // 4)
    order = np.argsort(-norms)
    sorted_ks = ks[order]
    # Allow equality but not inversions of more than one unit (integer floor).
    for i in range(len(sorted_ks) - 1):
        assert sorted_ks[i] + 1 >= sorted_ks[i + 1]


class TestRobustLayerNorms:
    """Median-of-norms statistic for attack-resistant k assignment: what
    DEFT's ``coordinate`` computes under ``robust_norms``."""

    def _accs(self, partitions, n_workers=5, seed=0):
        total = sum(p.size for p in partitions)
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(total) for _ in range(n_workers)]

    @staticmethod
    def _statistic(accs, partitions, statistic="median"):
        return norm_statistic([layer_norms(a, partitions) for a in accs], statistic)

    def test_median_matches_numpy(self):
        partitions = make_partitions([30, 50])
        accs = self._accs(partitions)
        matrix = np.stack([layer_norms(a, partitions) for a in accs])
        np.testing.assert_allclose(
            self._statistic(accs, partitions), np.median(matrix, axis=0)
        )
        np.testing.assert_allclose(
            self._statistic(accs, partitions, statistic="mean"), matrix.mean(axis=0)
        )

    def test_single_inflator_cannot_move_median(self):
        partitions = make_partitions([40, 40, 40])
        accs = self._accs(partitions)
        benign_norms = self._statistic(accs, partitions)
        # The last worker inflates layer 0 by six orders of magnitude.
        accs[-1] = accs[-1].copy()
        accs[-1][:40] *= 1e6
        attacked_norms = self._statistic(accs, partitions)
        # One corrupted sample shifts the median by at most one order
        # statistic of the benign spread -- never toward the 1e6 inflation.
        np.testing.assert_allclose(attacked_norms[1:], benign_norms[1:])
        assert attacked_norms[0] < 2.0 * benign_norms[0]

    def test_mean_statistic_is_moved_for_contrast(self):
        partitions = make_partitions([40, 40])
        accs = self._accs(partitions)
        accs[-1] = accs[-1].copy()
        accs[-1][:40] *= 1e6
        inflated = self._statistic(accs, partitions, statistic="mean")
        benign = self._statistic(accs[:-1], partitions, statistic="mean")
        assert inflated[0] > 100 * benign[0]

    def test_budget_grab_blocked(self):
        """The attack the statistic exists for: k assignment from an
        inflated norm vector gives the inflated layer the whole budget,
        while the median assignment keeps the benign split."""
        partitions = make_partitions([100, 100, 100])
        accs = self._accs(partitions)
        accs[-1] = accs[-1].copy()
        accs[-1][:100] *= 1e6
        k_total = 30
        grabbed = assign_local_k(partitions, layer_norms(accs[-1], partitions), k_total)
        robust = assign_local_k(partitions, self._statistic(accs, partitions), k_total)
        # Inflated view: layer 0 takes (almost) everything.
        assert grabbed[0] >= k_total - 2
        # Median view: the split stays balanced (no layer above ~half).
        assert robust[0] < k_total * 0.6

    def test_invalid_statistic_rejected(self):
        partitions = make_partitions([10])
        with pytest.raises(ValueError):
            self._statistic(self._accs(partitions), partitions, statistic="mode")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            self._statistic([], make_partitions([10]))
