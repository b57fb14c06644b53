"""Tests for the alpha-beta cost model, topology helpers and placement pricing."""

import math

import pytest

from repro.comm.cost_model import AlphaBetaModel, CommunicationCost
from repro.comm.topology import (
    TopologySpec,
    build_topology,
    fat_node_topology,
    parse_topology,
    ring_topology,
    star_topology,
    tree_topology,
)


class TestCommunicationCost:
    def test_total_and_addition(self):
        a = CommunicationCost(1.0, 2.0)
        b = CommunicationCost(0.5, 0.25)
        combined = a + b
        assert combined.total == pytest.approx(3.75)
        assert combined.latency == pytest.approx(1.5)


class TestAlphaBetaModel:
    def test_allgather_matches_paper_formula(self):
        model = AlphaBetaModel(alpha=1e-5, beta=1e-9)
        n, k = 16, 1000
        cost = model.allgather_cost(n, k)
        assert cost.latency == pytest.approx(math.log2(n) * 1e-5)
        assert cost.bandwidth == pytest.approx(2 * (n - 1) * k * 1e-9)

    def test_single_worker_costs_nothing(self):
        model = AlphaBetaModel()
        assert model.allgather_cost(1, 1000).total == 0.0
        assert model.allreduce_cost(1, 1000).total == 0.0
        assert model.broadcast_cost(1, 1000).total == 0.0

    def test_allgather_cost_grows_with_payload(self):
        model = AlphaBetaModel()
        assert model.allgather_cost(8, 10_000).total > model.allgather_cost(8, 100).total

    def test_allgather_cost_grows_with_workers(self):
        model = AlphaBetaModel()
        assert model.allgather_cost(32, 1000).total > model.allgather_cost(4, 1000).total

    def test_buildup_makes_topk_more_expensive_than_deft(self):
        """With the same configured k, Top-k's build-up (union ~ w*k values to
        reduce) costs more than DEFT's fixed k -- the Section 5.3 argument."""
        model = AlphaBetaModel()
        n, k = 16, 5000
        deft_cost = model.allgather_cost(n, k).total
        topk_cost = model.allgather_cost(n, 10 * k).total  # ~10x build-up
        assert topk_cost > deft_cost

    def test_ring_allreduce_formula(self):
        model = AlphaBetaModel(alpha=1e-5, beta=1e-9)
        cost = model.allreduce_cost(8, 1_000_000)
        assert cost.latency == pytest.approx(2 * 3 * 1e-5)
        assert cost.bandwidth == pytest.approx(2 * 7 / 8 * 1_000_000 * 1e-9)

    def test_broadcast_formula(self):
        model = AlphaBetaModel(alpha=2e-5, beta=1e-9)
        cost = model.broadcast_cost(16, 100)
        assert cost.latency == pytest.approx(4 * 2e-5)
        assert cost.bandwidth == pytest.approx(4 * 100 * 1e-9)

    def test_sparsifier_step_cost_components(self):
        model = AlphaBetaModel()
        parts = model.sparsifier_step_cost(8, 100, 500, allocation_payload=20)
        assert set(parts) == {"allgather_indices", "allreduce_values", "broadcast_allocation"}
        assert model.total_step_cost(8, 100, 500, 20) == pytest.approx(
            sum(c.total for c in parts.values())
        )

    def test_allreduce_values_priced_as_allreduce(self):
        """Regression: the value phase is the sum all-reduce of Algorithm 1
        but was priced with the all-gather formula, overcharging the
        Figure-7 value phase.  It must match allreduce_cost -- the same
        formula the trainer's metered path applies to "values" all-reduce
        records -- and be cheaper than the all-gather for n > 2."""
        model = AlphaBetaModel(alpha=1e-5, beta=1e-9)
        n, k = 8, 500
        parts = model.sparsifier_step_cost(n, 100, k)
        expected = model.allreduce_cost(n, k)
        assert parts["allreduce_values"].latency == pytest.approx(expected.latency)
        assert parts["allreduce_values"].bandwidth == pytest.approx(expected.bandwidth)
        assert parts["allreduce_values"].bandwidth < model.allgather_cost(n, k).bandwidth

    def test_dense_allreduce_is_most_expensive_for_small_k(self):
        model = AlphaBetaModel()
        n, n_g = 16, 1_000_000
        k = int(0.01 * n_g)
        sparse = model.total_step_cost(n, k, k)
        dense = model.dense_allreduce_step_cost(n, n_g)
        assert dense > sparse


class TestTopologies:
    def test_ring_diameter(self):
        assert ring_topology(8).diameter_hops() == 4
        assert ring_topology(2).diameter_hops() == 1
        assert ring_topology(1).diameter_hops() == 0

    def test_star_diameter_is_two(self):
        assert star_topology(8).diameter_hops() == 2
        assert star_topology(1).n_workers == 1

    def test_tree_depth_grows_logarithmically(self):
        shallow = tree_topology(4).diameter_hops()
        deep = tree_topology(64).diameter_hops()
        assert deep > shallow
        assert deep <= 2 * math.ceil(math.log2(64)) + 1

    def test_all_topologies_have_requested_size(self):
        for builder in (ring_topology, star_topology, tree_topology):
            assert builder(10).n_workers == 10

    def test_fat_node_topology(self):
        topo = fat_node_topology(4, 4)
        assert topo.n_workers == 16
        # Intra-node workers are directly connected.
        assert topo.path_hops(0, 3) == 1
        # Inter-node leaders form a ring.
        assert topo.path_hops(0, 4) <= 2

    def test_latency_scale_at_least_one(self):
        assert ring_topology(1).latency_scale() >= 1.0

    def test_average_hops_positive(self):
        assert ring_topology(6).average_hops() > 1.0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ring_topology(0)
        with pytest.raises(ValueError):
            fat_node_topology(0, 4)

    def test_edges_listed(self):
        topo = star_topology(4)
        assert len(topo.edges()) == 3

    def test_hops_matrix_matches_path_hops(self):
        topo = fat_node_topology(2, 4)
        matrix = topo.hops_matrix()
        for src in range(topo.n_workers):
            for dst in range(topo.n_workers):
                assert matrix[src][dst] == topo.path_hops(src, dst)
        assert matrix[0][0] == 0

    def test_neighbors_sorted_one_hop(self):
        topo = ring_topology(6)
        assert topo.neighbors(0) == [1, 5]
        assert all(topo.path_hops(0, v) == 1 for v in topo.neighbors(0))


class TestTopologySpecs:
    def test_parse_plain_names(self):
        assert parse_topology("ring") == TopologySpec("ring")
        assert parse_topology(" star ") == TopologySpec("star")

    def test_parse_parameterised(self):
        assert parse_topology("tree:3").kwargs() == {"branching": 3}
        assert parse_topology("fat_node:8x4").kwargs() == {
            "n_nodes": 8, "gpus_per_node": 4,
        }

    def test_canonical_text_round_trips(self):
        for text in ("ring", "tree:3", "fat_node:2x4"):
            assert parse_topology(text).text == text
            assert parse_topology(parse_topology(text).text) == parse_topology(text)

    def test_fat_node_requires_dimensions(self):
        with pytest.raises(ValueError, match="explicit dimensions"):
            parse_topology("fat_node")

    def test_malformed_parameters_rejected(self):
        with pytest.raises(ValueError):
            parse_topology("fat_node:8")
        with pytest.raises(ValueError):
            parse_topology("tree:x")
        with pytest.raises(ValueError):
            parse_topology("ring:3")
        with pytest.raises(ValueError):
            parse_topology("fat_node:0x4")

    def test_unknown_name_raises_registry_error(self):
        with pytest.raises(KeyError, match="unknown topology 'nonexistent'"):
            build_topology("nonexistent", 8)

    def test_size_mismatch_refused(self):
        spec = parse_topology("fat_node:2x4")
        assert spec.size_refusal(8) is None
        assert "but the cluster has 6" in spec.size_refusal(6)
        with pytest.raises(ValueError, match="but the cluster has 6"):
            spec.build(6)

    def test_flat_builds_no_graph(self):
        assert build_topology("flat", 8) is None
        assert build_topology(None, 8) is None
        assert build_topology("ring", 8).name == "ring"


def _placement_run(task, execution, topology=None, server_rank=None, **kwargs):
    from repro.sparsifiers import build_sparsifier
    from repro.api import RunSpec
    from repro.training.trainer import DistributedTrainer

    config = RunSpec.from_flat(
        n_workers=8,
        batch_size=8,
        epochs=1,
        lr=0.2,
        seed=0,
        max_iterations_per_epoch=3,
        evaluate_each_epoch=False,
        execution=execution,
        topology=topology,
        server_rank=server_rank,
        **kwargs,
    ).resolve()
    trainer = DistributedTrainer(task, build_sparsifier("deft", 0.05), config)
    return trainer.train()


class TestPlacementPricing:
    """Routing server traffic over real topology paths (the tentpole)."""

    def test_star_hub_beats_star_leaf_async(self, smoke_lm_task):
        hub = _placement_run(smoke_lm_task, "async_bsp", "star", 0)
        leaf = _placement_run(smoke_lm_task, "async_bsp", "star", 7)
        assert hub.estimated_wallclock < leaf.estimated_wallclock

    def test_star_hub_beats_star_leaf_elastic(self, smoke_lm_task):
        hub = _placement_run(smoke_lm_task, "elastic", "star", 0)
        leaf = _placement_run(smoke_lm_task, "elastic", "star", 7)
        assert hub.estimated_wallclock < leaf.estimated_wallclock

    def test_ring_and_fat_node_price_differently(self, smoke_lm_task):
        ring = _placement_run(smoke_lm_task, "async_bsp", "ring", 0)
        fat = _placement_run(smoke_lm_task, "async_bsp", "fat_node:2x4", 0)
        assert ring.estimated_wallclock != fat.estimated_wallclock

    def test_placement_changes_only_the_clock(self, smoke_lm_task):
        """The topology prices traffic; it must not perturb training."""
        import numpy as np

        hub = _placement_run(smoke_lm_task, "elastic", "star", 0)
        leaf = _placement_run(smoke_lm_task, "elastic", "star", 7)
        np.testing.assert_array_equal(
            hub.logger.series("loss").values, leaf.logger.series("loss").values
        )

    def test_flat_is_bit_identical_to_no_topology(self, smoke_lm_task):
        import numpy as np

        default = _placement_run(smoke_lm_task, "async_bsp")
        flat = _placement_run(smoke_lm_task, "async_bsp", "flat")
        assert default.estimated_wallclock == flat.estimated_wallclock
        np.testing.assert_array_equal(
            default.logger.series("loss").values, flat.logger.series("loss").values
        )

    def test_collective_latency_scales_with_diameter(self, smoke_lm_task):
        """Synchronous collectives pay alpha x diameter: the 8-ring
        (diameter 4) must model slower rounds than the star (diameter 2)."""
        star = _placement_run(smoke_lm_task, "synchronous", "star")
        ring = _placement_run(smoke_lm_task, "synchronous", "ring")
        assert star.estimated_wallclock < ring.estimated_wallclock

    def test_metadata_records_placement(self, smoke_lm_task):
        result = _placement_run(smoke_lm_task, "async_bsp", "star", 0)
        assert result.logger.metadata["topology"] == "star"
        assert result.logger.metadata["server_rank"] == 0
        default = _placement_run(smoke_lm_task, "synchronous")
        assert default.logger.metadata["topology"] == "flat"


class TestPlacementRefusals:
    """Capability matrix: placements every layer refuses identically."""

    def test_server_schedule_refuses_unplaced_graph_topology(self, smoke_lm_task):
        with pytest.raises(ValueError, match="set server_rank"):
            _placement_run(smoke_lm_task, "async_bsp", "star")

    def test_serverless_schedule_refuses_server_rank(self, smoke_lm_task):
        with pytest.raises(ValueError, match="no parameter server to place"):
            _placement_run(smoke_lm_task, "synchronous", "star", 0)

    def test_server_rank_out_of_range(self, smoke_lm_task):
        with pytest.raises(ValueError, match="out of range"):
            _placement_run(smoke_lm_task, "async_bsp", "star", 8)

    def test_runspec_validate_agrees(self):
        from repro.api import ClusterSpec, ExecutionSpec, RunSpec

        spec = RunSpec(
            cluster=ClusterSpec(n_workers=8, topology="ring"),
            execution=ExecutionSpec(model="async_bsp"),
        )
        with pytest.raises(ValueError, match="set server_rank"):
            spec.validate()
        placed = RunSpec(
            cluster=ClusterSpec(n_workers=8, topology="ring", server_rank=3),
            execution=ExecutionSpec(model="async_bsp"),
        )
        placed.validate()


class TestPlacementGridExperiment:
    def test_runs_through_sweep_with_cache_hits_on_rerun(self, tmp_path):
        from repro.experiments import placement_grid
        from repro.sweep import ResultCache

        cache = ResultCache(root=tmp_path / "cache")
        kwargs = dict(
            scale="smoke",
            executions=("async_bsp", "gossip"),
            topologies=("star",),
            n_workers=4,
            max_iterations_per_epoch=2,
            cache=cache,
        )
        first = placement_grid.run(**kwargs)
        assert all("error" not in cell for cell in first["cells"].values())
        entries = list((tmp_path / "cache").rglob("*.json"))
        assert len(entries) == len(first["cells"])
        # Rerun: every cell must be served from the spec-addressed cache
        # with identical numbers.
        second = placement_grid.run(**kwargs)
        assert second["cells"] == first["cells"]

    def test_penalty_relative_to_best_placement(self):
        from repro.experiments import placement_grid

        result = placement_grid.run(
            scale="smoke",
            executions=("async_bsp",),
            topologies=("star",),
            n_workers=4,
            max_iterations_per_epoch=2,
        )
        cells = result["cells"]
        hub = cells["star|async_bsp|0"]
        leaf = cells["star|async_bsp|3"]
        assert hub["placement_penalty"] == pytest.approx(1.0)
        assert leaf["placement_penalty"] > 1.0
