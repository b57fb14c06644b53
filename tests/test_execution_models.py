"""Tests for the pluggable execution models and straggler simulation."""

import numpy as np
import pytest

from repro.execution import (
    STRAGGLER_PROFILES,
    AsyncBSPExecution,
    ElasticAveragingExecution,
    LocalSGDExecution,
    SynchronousExecution,
    VirtualClock,
    WorkerSpeedModel,
    available_execution_models,
    build_execution_model,
    build_speed_factors,
    flatten_parameters,
    load_flat_parameters,
)
from repro.sparsifiers import build_sparsifier
from repro.utils.topk_ops import topk_indices
from repro.api import RunSpec
from repro.training.trainer import DistributedTrainer


def run_with(task, execution, sparsifier="deft", density=0.05, n_workers=4, iterations=6,
             epochs=1, seed=0, lr=0.2, **config_kwargs):
    config = RunSpec.from_flat(
        n_workers=n_workers,
        batch_size=8,
        epochs=epochs,
        lr=lr,
        seed=seed,
        max_iterations_per_epoch=iterations,
        evaluate_each_epoch=False,
        execution=execution,
        **config_kwargs,
    ).resolve()
    trainer = DistributedTrainer(task, build_sparsifier(sparsifier, density), config)
    return trainer, trainer.train()


class TestRegistry:
    def test_available_names(self):
        assert available_execution_models() == [
            "async_bsp", "elastic", "gossip", "local_sgd", "synchronous",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_execution_model("nonexistent")

    def test_builders_produce_right_types(self):
        assert isinstance(build_execution_model("synchronous"), SynchronousExecution)
        assert isinstance(build_execution_model("local_sgd", local_steps=2), LocalSGDExecution)
        assert isinstance(build_execution_model("async_bsp", max_staleness=3), AsyncBSPExecution)
        assert isinstance(build_execution_model("elastic"), ElasticAveragingExecution)

    def test_uniform_knob_set_tolerated(self):
        """The runner passes every knob to every model; extras are ignored."""
        model = build_execution_model("synchronous", local_steps=2, max_staleness=3)
        assert isinstance(model, SynchronousExecution)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            build_execution_model("local_sgd", local_steps=0)
        with pytest.raises(ValueError):
            build_execution_model("async_bsp", max_staleness=-1)
        with pytest.raises(ValueError):
            build_execution_model("elastic", elastic_alpha=1.5)


class TestStragglerProfiles:
    def test_uniform_profile_is_all_ones(self):
        assert np.all(build_speed_factors("uniform", 8) == 1.0)

    def test_straggler_profile_slows_last_rank(self):
        factors = build_speed_factors("straggler", 8, straggler_factor=5.0)
        assert factors[-1] == 5.0
        assert np.all(factors[:-1] == 1.0)

    def test_lognormal_profile_deterministic_per_seed(self):
        a = build_speed_factors("lognormal", 8, seed=3)
        b = build_speed_factors("lognormal", 8, seed=3)
        c = build_speed_factors("lognormal", 8, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)
        assert np.all(a > 0)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            build_speed_factors("nonexistent", 4)

    def test_speed_model_batch_seconds(self):
        model = WorkerSpeedModel(4, base_compute_seconds=0.01, profile="straggler")
        assert model.batch_seconds(0) == pytest.approx(0.01)
        assert model.batch_seconds(3) == pytest.approx(0.04)
        assert model.slowest_batch_seconds() == pytest.approx(0.04)


class TestVirtualClock:
    def test_lockstep_advance(self):
        clock = VirtualClock(3)
        clock.advance_all(1.0)
        clock.advance_all(0.5)
        assert clock.now == pytest.approx(1.5)
        assert np.all(clock.worker_time == 1.5)

    def test_worker_advance_and_synchronize(self):
        clock = VirtualClock(2)
        clock.advance_worker(0, 1.0)
        clock.advance_worker(1, 3.0)
        assert clock.now == pytest.approx(3.0)
        clock.synchronize()
        assert np.all(clock.worker_time == 3.0)

    def test_advance_to_is_monotone(self):
        clock = VirtualClock(2)
        clock.advance_to(2.0)
        clock.advance_to(1.0)
        assert clock.now == pytest.approx(2.0)

    def test_idle_seconds_never_negative_for_workers_ahead(self):
        """Regression: a worker that ran ahead of the last global event
        (async/elastic event loops) must report zero idle time, not a
        negative one -- idle is measured against the `now` property."""
        clock = VirtualClock(3)
        clock.advance_to(1.0)
        clock.advance_worker(0, 2.5)  # ahead of the last global event
        clock.advance_worker(1, 0.5)
        idle = clock.idle_seconds()
        assert all(i >= 0.0 for i in idle)
        assert idle[0] == pytest.approx(0.0)
        assert idle[1] == pytest.approx(2.0)
        assert idle[2] == pytest.approx(2.5)


class TestParameterFlattening:
    def test_roundtrip(self, smoke_lm_task):
        import numpy as np
        from repro.utils.seeding import new_rng

        model = smoke_lm_task.build_model(rng=new_rng(0))
        flat = flatten_parameters(model)
        load_flat_parameters(model, flat * 2.0)
        np.testing.assert_allclose(flatten_parameters(model), flat * 2.0, rtol=1e-6)

    def test_size_mismatch_rejected(self, smoke_lm_task):
        from repro.utils.seeding import new_rng

        model = smoke_lm_task.build_model(rng=new_rng(0))
        with pytest.raises(ValueError):
            load_flat_parameters(model, np.zeros(3))


class TestSynchronousExtraction:
    def test_explicit_synchronous_matches_default(self, smoke_lm_task):
        """The default config and an explicit --execution synchronous must
        produce the same trajectory (the extraction is pure code motion)."""
        _, default = run_with(smoke_lm_task, "synchronous", seed=5)
        config = RunSpec.from_flat(
            n_workers=4, batch_size=8, epochs=1, lr=0.2, seed=5,
            max_iterations_per_epoch=6, evaluate_each_epoch=False,
        ).resolve()
        trainer = DistributedTrainer(smoke_lm_task, build_sparsifier("deft", 0.05), config)
        baseline = trainer.train()
        np.testing.assert_array_equal(
            default.logger.series("loss").values, baseline.logger.series("loss").values
        )

    def test_metadata_records_execution(self, smoke_lm_task):
        trainer, result = run_with(smoke_lm_task, "synchronous")
        assert result.logger.metadata["execution"] == "synchronous"
        assert result.logger.metadata["straggler_profile"] == "uniform"

    def test_virtual_time_logged_and_monotone(self, smoke_lm_task):
        _, result = run_with(smoke_lm_task, "synchronous")
        series = result.logger.series("virtual_time").values
        assert len(series) == result.iterations_run
        assert all(b >= a for a, b in zip(series, series[1:]))
        assert result.estimated_wallclock == pytest.approx(series[-1])


class TestLocalSGD:
    def test_runs_and_reduces_value_collectives(self, smoke_lm_task):
        trainer_sync, _ = run_with(smoke_lm_task, "synchronous", iterations=8)
        trainer_local, result = run_with(
            smoke_lm_task, "local_sgd", iterations=8, local_steps=4
        )
        assert result.iterations_run == 8
        sync_calls = trainer_sync.backend.meter.call_count(tag="values")
        local_calls = trainer_local.backend.meter.call_count(tag="values")
        # 8 lock-step exchanges vs one sync every 4 steps (incl. epoch end).
        assert sync_calls == 8
        assert local_calls == 2

    def test_loss_decreases(self, smoke_lm_task):
        _, result = run_with(
            smoke_lm_task, "local_sgd", sparsifier="dense", density=1.0,
            iterations=20, local_steps=2, lr=0.5,
        )
        losses = result.logger.series("loss").values
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
        assert np.isfinite(losses).all()

    def test_dense_local_sgd_with_h1_matches_periodic_averaging(self, smoke_lm_task):
        """With H=1 and density 1 every sync applies x_ref - mean(x_i): the
        model equals the average of the one-step local models each round."""
        trainer, result = run_with(
            smoke_lm_task, "local_sgd", sparsifier="dense", density=1.0,
            iterations=3, local_steps=1,
        )
        assert result.mean_density() == pytest.approx(1.0)
        for p in trainer.model.parameters():
            assert np.isfinite(p.data).all()

    def test_wallclock_below_synchronous_with_same_compute(self, smoke_lm_task):
        """Same modelled compute, but the collectives fire H times less
        often, so the virtual makespan can only shrink."""
        _, sync = run_with(smoke_lm_task, "synchronous", iterations=8)
        _, local = run_with(smoke_lm_task, "local_sgd", iterations=8, local_steps=4)
        assert local.estimated_wallclock < sync.estimated_wallclock


class TestAsyncBSP:
    def test_completes_and_respects_budget(self, smoke_lm_task):
        trainer, result = run_with(
            smoke_lm_task, "async_bsp", iterations=6, straggler_profile="lognormal"
        )
        arrived = result.logger.series("n_arrived").values
        assert sum(arrived) == 6 * 4  # per-epoch batch budget = iterations * workers
        assert np.isfinite(result.logger.series("loss").values).all()

    def test_staleness_bounded(self, smoke_lm_task):
        max_staleness = 2
        _, result = run_with(
            smoke_lm_task, "async_bsp", iterations=8,
            straggler_profile="straggler", max_staleness=max_staleness,
        )
        staleness = result.logger.series("staleness").values
        assert max(staleness) <= max_staleness

    def test_zero_staleness_degenerates_to_lockstep(self, smoke_lm_task):
        trainer, result = run_with(
            smoke_lm_task, "async_bsp", iterations=4,
            straggler_profile="lognormal", max_staleness=0,
        )
        # Every round all workers are forced to arrive together.
        arrived = result.logger.series("n_arrived").values
        assert all(a == 4 for a in arrived)

    def test_faster_than_synchronous_under_stragglers(self, smoke_lm_task):
        """The acceptance criterion: same straggler profile, same per-epoch
        batch budget, lower estimated wall-clock."""
        _, sync = run_with(
            smoke_lm_task, "synchronous", iterations=8, straggler_profile="lognormal"
        )
        _, async_ = run_with(
            smoke_lm_task, "async_bsp", iterations=8, straggler_profile="lognormal"
        )
        assert async_.estimated_wallclock < sync.estimated_wallclock

    def test_runner_defaults_to_staleness_weighted_mean(self, smoke_lm_task):
        from repro.experiments.runner import run_training

        result = run_training(
            "lm", "deft", density=0.05, n_workers=2, epochs=1,
            max_iterations_per_epoch=2, task=smoke_lm_task, execution="async_bsp",
        )
        assert result.logger.metadata["aggregator"] == "staleness_weighted_mean"

    def test_explicit_mean_is_honoured(self, smoke_lm_task):
        from repro.experiments.runner import run_training

        result = run_training(
            "lm", "deft", density=0.05, n_workers=2, epochs=1,
            max_iterations_per_epoch=2, task=smoke_lm_task, execution="async_bsp",
            aggregator="mean",
        )
        assert result.logger.metadata["aggregator"] == "mean"

    def test_per_rank_gradient_attack_bites(self, smoke_lm_task):
        """sign_flip goes through the singular per-rank hook, so it must
        change the async trajectory relative to the benign run."""
        _, benign = run_with(smoke_lm_task, "async_bsp", iterations=5, seed=2)
        _, attacked = run_with(
            smoke_lm_task, "async_bsp", iterations=5, seed=2,
            attack="sign_flip", n_byzantine=1,
        )
        assert not np.allclose(
            benign.logger.series("loss").values, attacked.logger.series("loss").values
        )

    def test_colluding_attack_rejected(self, smoke_lm_task):
        """ALIE only acts through the plural synchronized-view hook, which
        an asynchronous schedule can never provide -- refuse, don't no-op."""
        with pytest.raises(ValueError, match="synchronized group view"):
            run_with(
                smoke_lm_task, "async_bsp", iterations=2,
                attack="alie", n_byzantine=1,
            )

    def test_robust_norms_engaged_without_collective_coordinate(self, smoke_lm_task):
        """--robust-norms must keep protecting DEFT's k assignment even
        though the async schedule has no collective coordinate phase."""
        from repro.sparsifiers import build_sparsifier as build

        config = RunSpec.from_flat(
            n_workers=4, batch_size=8, epochs=1, lr=0.2, seed=0,
            max_iterations_per_epoch=3, evaluate_each_epoch=False,
            execution="async_bsp", straggler_profile="lognormal",
        ).resolve()
        sparsifier = build("deft", 0.05, robust_norms=True)
        trainer = DistributedTrainer(smoke_lm_task, sparsifier, config)
        trainer.train()
        plan = sparsifier.plan
        assert plan is not None and plan.iteration == trainer.iteration - 1
        assert plan.shared_ks and plan.ks is not None

    def test_server_traffic_metered(self, smoke_lm_task):
        trainer, _ = run_with(smoke_lm_task, "async_bsp", iterations=3)
        tags = trainer.backend.meter.by_tag()
        assert "ps-push" in tags
        assert trainer.backend.meter.call_count(op="pull", tag="ps-pull") > 0

    def test_reproducible_given_seed(self, smoke_lm_task):
        _, a = run_with(smoke_lm_task, "async_bsp", iterations=5, seed=9,
                        straggler_profile="lognormal")
        _, b = run_with(smoke_lm_task, "async_bsp", iterations=5, seed=9,
                        straggler_profile="lognormal")
        np.testing.assert_array_equal(
            a.logger.series("loss").values, b.logger.series("loss").values
        )


class TestRoundPlanWithoutCollectives:
    """CLT-k and gTop-k under the schedules without a collective phase: the
    schedule builds each round's plan, and every rank sends it."""

    @pytest.mark.parametrize("execution", ["gossip", "async_bsp"])
    @pytest.mark.parametrize("name", ["cltk", "gtopk"])
    def test_every_rank_sends_the_round_plan(self, smoke_lm_task, execution, name):
        config = RunSpec.from_flat(
            n_workers=4, batch_size=8, epochs=1, lr=0.2, seed=0,
            max_iterations_per_epoch=6, evaluate_each_epoch=False, execution=execution,
        ).resolve()
        sparsifier = build_sparsifier(name, 0.05)
        rounds = {}
        select = sparsifier.select

        def recording_select(iteration, rank, acc):
            result = select(iteration, rank, acc)
            rounds.setdefault(iteration, []).append(
                (rank, np.array(acc), set(result.indices.tolist()), sparsifier.plan.root)
            )
            return result

        sparsifier.select = recording_select
        DistributedTrainer(smoke_lm_task, sparsifier, config).train()
        assert len(rounds) >= 6
        for iteration, group in rounds.items():
            ranks = [rank for rank, _, _, _ in group]
            accs = [acc for _, acc, _, _ in group]
            # The root is the first rank to select: rank 0 under gossip, the
            # first arrival under async_bsp.
            assert {root for _, _, _, root in group} == {ranks[0]}
            if execution == "gossip":
                assert ranks == [0, 1, 2, 3]
            if name == "cltk":
                expected = set(topk_indices(accs[0], sparsifier.global_k).tolist())
            else:
                reference = build_sparsifier("gtopk", 0.05)
                reference.setup(sparsifier.layout, 4)
                expected = set(reference.coordinate(iteration, accs).indices.tolist())
            for _, _, picked, _ in group:
                assert picked == expected


class TestElastic:
    def test_runs_and_center_is_finite(self, smoke_lm_task):
        trainer, result = run_with(
            smoke_lm_task, "elastic", iterations=8, local_steps=2
        )
        assert result.iterations_run == 8
        assert np.isfinite(result.logger.series("loss").values).all()
        for p in trainer.model.parameters():
            assert np.isfinite(p.data).all()

    def test_elastic_spread_logged_on_sync_steps(self, smoke_lm_task):
        _, result = run_with(smoke_lm_task, "elastic", iterations=4, local_steps=2)
        spread = result.logger.series("elastic_spread").values
        # Sync fires on steps 2 and 4; local steps log zero spread.
        assert spread[0] == 0.0
        assert spread[1] > 0.0

    def test_loss_decreases(self, smoke_lm_task):
        _, result = run_with(
            smoke_lm_task, "elastic", sparsifier="dense", density=1.0,
            iterations=20, local_steps=2, lr=0.5,
        )
        losses = result.logger.series("loss").values
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_server_traffic_metered(self, smoke_lm_task):
        trainer, _ = run_with(smoke_lm_task, "elastic", iterations=4, local_steps=2)
        tags = trainer.backend.meter.by_tag()
        assert "elastic-push" in tags
        assert "elastic-pull" in tags

    def test_momentum_rejected(self, smoke_lm_task):
        """The elastic exchange bypasses the optimizer: momentum and weight
        decay would be silently dropped, so the schedule refuses them."""
        with pytest.raises(ValueError, match="momentum"):
            run_with(smoke_lm_task, "elastic", iterations=2, momentum=0.9)

    def test_gradient_attacks_rejected_data_poisoning_allowed(self, smoke_lm_task):
        """Elastic exchanges parameters, never gradient accumulators:
        accumulator attacks would be silently inert, so they are refused;
        data poisoning hooks before the local step and stays supported."""
        with pytest.raises(ValueError, match="accumulators"):
            run_with(smoke_lm_task, "elastic", iterations=2,
                     attack="sign_flip", n_byzantine=1)
        _, benign = run_with(smoke_lm_task, "elastic", iterations=4, seed=2)
        _, poisoned = run_with(smoke_lm_task, "elastic", iterations=4, seed=2,
                               attack="label_flip", n_byzantine=1)
        assert not np.allclose(
            benign.logger.series("loss").values, poisoned.logger.series("loss").values
        )


class TestConfigValidation:
    def test_negative_byzantine_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RunSpec.from_flat(n_workers=4, n_byzantine=-1).resolve()

    def test_all_byzantine_rejected(self):
        with pytest.raises(ValueError, match="benign worker"):
            RunSpec.from_flat(n_workers=4, n_byzantine=4).resolve()

    def test_more_byzantine_than_workers_rejected(self):
        with pytest.raises(ValueError, match="benign worker"):
            RunSpec.from_flat(n_workers=2, n_byzantine=5).resolve()

    def test_valid_byzantine_accepted(self):
        spec = RunSpec.from_flat(n_workers=4, n_byzantine=3).resolve()
        assert spec.robustness.n_byzantine == 3

    def test_bad_local_steps_rejected(self):
        with pytest.raises(ValueError, match="local_steps must be >= 1"):
            RunSpec.from_flat(local_steps=0).resolve()

    def test_bad_staleness_rejected(self):
        with pytest.raises(ValueError, match="max_staleness must be >= 0"):
            RunSpec.from_flat(max_staleness=-1).resolve()

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown straggler profile"):
            RunSpec.from_flat(straggler_profile="nonexistent").resolve()

    def test_profiles_registry_is_stable(self):
        assert STRAGGLER_PROFILES == ("uniform", "lognormal", "straggler")
