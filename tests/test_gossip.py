"""Tests for the server-less gossip execution schedule."""

import numpy as np
import pytest

from repro.sparsifiers import build_sparsifier
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer


def run_gossip(task, sparsifier="deft", density=0.05, n_workers=4, iterations=5,
               epochs=1, seed=0, lr=0.2, **config_kwargs):
    config = RunSpec.from_flat(
        n_workers=n_workers,
        batch_size=8,
        epochs=epochs,
        lr=lr,
        seed=seed,
        max_iterations_per_epoch=iterations,
        evaluate_each_epoch=False,
        execution="gossip",
        **config_kwargs,
    ).resolve()
    trainer = DistributedTrainer(task, build_sparsifier(sparsifier, density), config)
    return trainer, trainer.train()


class TestGossipSchedule:
    def test_trains_with_zero_server_and_collective_traffic(self, smoke_lm_task):
        """The acceptance criterion: a gossip run records only neighbour
        sends -- no push/pull, no allgather/allreduce/broadcast/gather."""
        trainer, result = run_gossip(smoke_lm_task)
        ops = {record.op for record in trainer.backend.meter.records}
        assert ops == {"send"}
        assert trainer.backend.meter.by_tag() == {
            "gossip": trainer.backend.meter.total_sent(op="send")
        }
        assert result.iterations_run == 5
        assert np.isfinite(result.logger.series("loss").values).all()

    def test_defaults_to_ring_topology(self, smoke_lm_task):
        trainer, result = run_gossip(smoke_lm_task)
        assert trainer.spec.cluster.topology == "ring"
        assert trainer.topology is not None
        assert trainer.topology.name == "ring"
        assert result.logger.metadata["topology"] == "ring"
        assert result.logger.metadata["server_rank"] is None

    def test_send_traffic_covers_both_ring_directions(self, smoke_lm_task):
        trainer, _ = run_gossip(smoke_lm_task, n_workers=4, iterations=2)
        sends = [r for r in trainer.backend.meter.records if r.op == "send"]
        directed_edges = {(r.src, r.dst) for r in sends}
        # A 4-ring has 4 edges, each exercised in both directions.
        assert len(directed_edges) == 8
        assert all((dst, src) in directed_edges for src, dst in directed_edges)

    def test_bit_reproducible_across_runs_same_seed(self, smoke_lm_task):
        _, a = run_gossip(smoke_lm_task, seed=7)
        _, b = run_gossip(smoke_lm_task, seed=7)
        np.testing.assert_array_equal(
            a.logger.series("loss").values, b.logger.series("loss").values
        )
        assert a.estimated_wallclock == b.estimated_wallclock

    def test_seed_changes_trajectory(self, smoke_lm_task):
        _, a = run_gossip(smoke_lm_task, seed=7)
        _, c = run_gossip(smoke_lm_task, seed=8)
        assert not np.allclose(
            a.logger.series("loss").values, c.logger.series("loss").values
        )

    def test_loss_decreases_dense(self, smoke_lm_task):
        _, result = run_gossip(
            smoke_lm_task, sparsifier="dense", density=1.0, iterations=20, lr=0.5
        )
        losses = result.logger.series("loss").values
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
        assert np.isfinite(losses).all()

    def test_error_feedback_engaged(self, smoke_lm_task):
        """Sparse gossip leaves unsent accumulator mass in the memories."""
        trainer, result = run_gossip(smoke_lm_task, density=0.01)
        assert result.logger.series("error").values[-1] > 0.0

    def test_star_topology_also_supported(self, smoke_lm_task):
        trainer, result = run_gossip(smoke_lm_task, topology="star")
        assert trainer.topology.name == "star"
        assert {r.op for r in trainer.backend.meter.records} == {"send"}
        # The hub has 3 neighbours, the leaves 1: the busiest inbox prices
        # the round, so the star round costs more than a 2-neighbour ring's.
        _, ring = run_gossip(smoke_lm_task, topology="ring")
        assert result.estimated_wallclock > ring.estimated_wallclock

    def test_final_model_is_worker_consensus(self, smoke_lm_task):
        """Evaluation uses the average of the local parameter copies, so
        the shared model must be finite and actually trained."""
        trainer, result = run_gossip(smoke_lm_task, iterations=8)
        from repro.execution.base import flatten_parameters

        params = flatten_parameters(trainer.model)
        assert np.isfinite(params).all()
        assert result.final_metrics["loss"] > 0

    def test_per_rank_gradient_attack_bites(self, smoke_lm_task):
        _, benign = run_gossip(smoke_lm_task, seed=2)
        _, attacked = run_gossip(
            smoke_lm_task, seed=2, attack="sign_flip", n_byzantine=1
        )
        assert not np.allclose(
            benign.logger.series("loss").values, attacked.logger.series("loss").values
        )


class TestGossipRefusals:
    def test_flat_topology_refused(self, smoke_lm_task):
        with pytest.raises(ValueError, match="topology edges"):
            run_gossip(smoke_lm_task, topology="flat")

    def test_server_rank_refused(self, smoke_lm_task):
        with pytest.raises(ValueError, match="no parameter server"):
            run_gossip(smoke_lm_task, topology="ring", server_rank=0)

    def test_non_mean_aggregator_refused(self, smoke_lm_task):
        with pytest.raises(ValueError, match="silently ignored"):
            run_gossip(smoke_lm_task, aggregator="krum")

    def test_explicit_mean_accepted(self, smoke_lm_task):
        _, result = run_gossip(smoke_lm_task, aggregator="mean", iterations=2)
        assert result.iterations_run == 2

    def test_momentum_refused(self, smoke_lm_task):
        with pytest.raises(ValueError, match="momentum"):
            run_gossip(smoke_lm_task, momentum=0.9)

    def test_runspec_validation_agrees(self):
        from repro.api import ClusterSpec, ExecutionSpec, RobustnessSpec, RunSpec

        spec = RunSpec(
            cluster=ClusterSpec(n_workers=4, topology="flat"),
            execution=ExecutionSpec(model="gossip"),
        )
        with pytest.raises(ValueError, match="topology edges"):
            spec.validate()
        defaulted = RunSpec(execution=ExecutionSpec(model="gossip")).resolve()
        assert defaulted.cluster.topology == "ring"
        assert defaulted.robustness.aggregator == "mean"
        with pytest.raises(ValueError, match="silently ignored"):
            RunSpec(
                execution=ExecutionSpec(model="gossip"),
                robustness=RobustnessSpec(aggregator="median"),
            ).validate()


class TestGossipThroughFacades:
    def test_cli_run_gossip(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--execution", "gossip", "--workers", "4",
            "--epochs", "1", "--max-iterations-per-epoch", "2",
            "--no-eval-each-epoch",
        ]) == 0
        out = capsys.readouterr().out
        assert "execution=gossip" in out
        assert "estimated wall-clock" in out

    def test_cli_refuses_gossip_with_server_rank(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--execution", "gossip", "--server-rank", "0",
        ]) == 2
        assert "no parameter server" in capsys.readouterr().err

    def test_argv_round_trip_carries_topology(self):
        from repro.api import ExecutionSpec, RunSpec
        from repro.cli import spec_from_argv

        spec = RunSpec(execution=ExecutionSpec(model="gossip"))
        argv = spec.to_argv()
        assert "--topology" in argv
        assert spec_from_argv(argv).resolve() == spec.resolve()

    def test_gossip_through_session_reports_traffic(self, smoke_lm_task):
        from repro.api import (
            CompressionSpec,
            ExecutionSpec,
            OptimizerSpec,
            RunSpec,
            Session,
        )

        spec = RunSpec(
            workload="lm",
            optimizer=OptimizerSpec(
                lr=0.2, batch_size=8, epochs=1,
                max_iterations_per_epoch=2, evaluate_each_epoch=False,
            ),
            compression=CompressionSpec(sparsifier="deft", density=0.05),
            execution=ExecutionSpec(model="gossip"),
        )
        result = Session().run(spec, task=smoke_lm_task)
        assert set(result.traffic["by_tag"]) == {"gossip"}
        assert result.estimated_wallclock > 0
