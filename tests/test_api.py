"""Tests for the :mod:`repro.api` facade: RunSpec, Session, RunResult."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterSpec,
    CompressionSpec,
    ExecutionSpec,
    OptimizerSpec,
    RobustnessSpec,
    RunResult,
    RunSpec,
    Session,
)
from repro.api import run as api_run
from repro.api.spec import spec_fields
from repro.cli import _build_parser, spec_from_argv
from repro.plugins import available_components


def smoke_spec(**overrides) -> RunSpec:
    """A tiny, fast, benign synchronous spec."""
    fields = dict(
        workload="lm",
        scale="smoke",
        seed=0,
        cluster=ClusterSpec(n_workers=2),
        optimizer=OptimizerSpec(epochs=1, max_iterations_per_epoch=2, batch_size=8),
        compression=CompressionSpec(sparsifier="deft", density=0.05),
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestResolve:
    def test_resolve_fills_workload_presets(self):
        resolved = RunSpec(workload="lm").resolve()
        assert resolved.compression.density == 0.001
        assert resolved.optimizer.lr == 0.5
        assert resolved.optimizer.epochs == 2
        assert resolved.optimizer.batch_size == 8
        assert resolved.robustness.aggregator == "mean"

    def test_resolve_does_not_mutate_the_original(self):
        spec = RunSpec(workload="cv")
        spec.resolve()
        assert spec.compression.density is None
        assert spec.robustness.aggregator is None

    def test_explicit_values_survive_resolution(self):
        spec = smoke_spec(robustness=RobustnessSpec(aggregator="median"))
        resolved = spec.resolve()
        assert resolved.compression.density == 0.05
        assert resolved.robustness.aggregator == "median"

    def test_async_resolves_staleness_weighted_default(self):
        resolved = smoke_spec(execution=ExecutionSpec(model="async_bsp")).resolve()
        assert resolved.robustness.aggregator == "staleness_weighted_mean"

    def test_async_explicit_mean_is_honoured(self):
        resolved = smoke_spec(
            execution=ExecutionSpec(model="async_bsp"),
            robustness=RobustnessSpec(aggregator="mean"),
        ).resolve()
        assert resolved.robustness.aggregator == "mean"

    def test_resolving_twice_is_idempotent(self):
        once = smoke_spec().resolve()
        assert once.resolve() == once


class TestTrainingConfigDefaultAggregator:
    """The aggregator default lives in spec resolution, so a flat-keyword
    caller building its own trainer (what ``TrainingConfig`` callers did
    before the trainer read the spec) agrees with the runner and the CLI."""

    def test_direct_config_gets_staleness_weighted_under_async(self):
        resolved = RunSpec.from_flat(execution="async_bsp").resolve()
        assert resolved.robustness.aggregator == "staleness_weighted_mean"

    def test_direct_config_gets_mean_elsewhere(self):
        assert RunSpec.from_flat().resolve().robustness.aggregator == "mean"
        resolved = RunSpec.from_flat(execution="local_sgd").resolve()
        assert resolved.robustness.aggregator == "mean"

    def test_explicit_choice_always_honoured(self):
        resolved = RunSpec.from_flat(execution="async_bsp", aggregator="mean").resolve()
        assert resolved.robustness.aggregator == "mean"

    def test_trainer_metadata_agrees(self, smoke_lm_task):
        from repro.training.trainer import DistributedTrainer
        from repro.sparsifiers import build_sparsifier

        spec = RunSpec.from_flat(
            n_workers=2, batch_size=8, epochs=1, max_iterations_per_epoch=2,
            evaluate_each_epoch=False, execution="async_bsp",
        ).resolve()
        trainer = DistributedTrainer(
            smoke_lm_task, build_sparsifier("deft", 0.05), spec
        )
        result = trainer.train()
        assert result.logger.metadata["aggregator"] == "staleness_weighted_mean"

    def test_trainer_refuses_an_unresolved_spec(self, smoke_lm_task):
        from repro.training.trainer import DistributedTrainer
        from repro.sparsifiers import build_sparsifier

        with pytest.raises(ValueError, match="resolved spec"):
            DistributedTrainer(smoke_lm_task, build_sparsifier("deft", 0.05), RunSpec())


#: Flat keywords giving every run field a valid non-default value.  No one
#: spec can: only ``elastic`` takes execution kwargs and it refuses momentum,
#: weight decay and gradient attacks -- the variant below covers that side.
EVERYTHING = dict(
    workload="cv", scale="repro", seed=7, run_name="everything",
    n_workers=6, straggler_profile="lognormal", base_compute_seconds=0.01,
    topology="ring", server_rank=2,
    lr=0.3, momentum=0.5, weight_decay=0.01, batch_size=8, epochs=3,
    max_iterations_per_epoch=5, evaluate_each_epoch=False,
    sparsifier="dgc", density=0.05,
    sparsifier_kwargs={"sample_ratio": 0.2, "refine": False},
    aggregator="centered_clipping", aggregator_kwargs={"tau": 0.5},
    attack="gaussian_noise", attack_kwargs={"std": 0.2}, n_byzantine=1,
    execution="async_bsp", local_steps=2, max_staleness=3,
    trace=True, metrics=True,
)
ELASTIC_VARIANT = dict(
    EVERYTHING, execution="elastic", execution_kwargs={"elastic_alpha": 0.2},
    momentum=0.0, weight_decay=0.0, attack="label_flip", attack_kwargs={},
)


def declared_fields():
    """``(section, field)`` of every run field, walked off the dataclasses."""
    for top in dataclasses.fields(RunSpec):
        section = getattr(RunSpec(), top.name)
        if dataclasses.is_dataclass(section):
            for f in dataclasses.fields(section):
                yield top.name, f.name
        else:
            yield None, top.name


class TestRoundTrips:
    def specs_with_everything(self):
        return [RunSpec.from_flat(**EVERYTHING), RunSpec.from_flat(**ELASTIC_VARIANT)]

    def test_every_field_takes_a_non_default_value_and_owns_one_flag(self):
        """Structural: a field added without a flag, or one the specs above
        never exercise, fails here."""
        table = {(f.section, f.name): f for f in spec_fields()}
        assert set(table) == set(declared_fields())
        for f in table.values():
            values = [getattr(f.owner(spec), f.name) for spec in self.specs_with_everything()]
            assert any(value != f.default for value in values), f.flat

        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a.choices, dict)
        )
        actions = subparsers.choices["train"]._actions
        by_flag = {opt: action for action in actions for opt in action.option_strings}
        dests = [action.dest for action in actions]
        assert len({f.flag for f in table.values()}) == len(table)
        for f in table.values():
            assert by_flag[f.flag].dest == f.flat
            assert by_flag[f.flag].option_strings == [f.flag]
            assert dests.count(f.flat) == 1

    def test_dict_round_trip(self):
        for spec in self.specs_with_everything():
            assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        for spec in self.specs_with_everything():
            rebuilt = RunSpec.from_json(spec.to_json(indent=2))
            assert rebuilt == spec
            assert rebuilt.resolve() == spec.resolve()

    @pytest.mark.parametrize("data, match", [
        ({"cluster": {"workers": 4}}, r"cluster\.workers.*n_workers"),
        ({"clutser": {}}, "clutser.*cluster"),
        ({"optimizer": None}, "'optimizer' must be a mapping, got NoneType"),
        (["cluster"], "must be a mapping, got list"),
    ])
    def test_from_dict_names_the_bad_key(self, data, match):
        with pytest.raises(ValueError, match=match):
            RunSpec.from_dict(data)

    def test_from_flat_rejects_unknown_keywords(self):
        with pytest.raises(TypeError, match="workers.*n_workers"):
            RunSpec.from_flat(workers=4)

    def test_from_dict_tolerates_missing_sections(self):
        spec = RunSpec.from_dict({"workload": "cv", "cluster": {"n_workers": 8}})
        assert spec.workload == "cv"
        assert spec.cluster.n_workers == 8
        assert spec.optimizer == OptimizerSpec()

    def test_argv_round_trip(self):
        for spec in self.specs_with_everything():
            argv = spec.to_argv()
            assert argv[0] == "train"
            rebuilt = spec_from_argv(argv)
            assert rebuilt.resolve() == spec.resolve()

    def test_argv_round_trip_with_robust_norms(self):
        spec = smoke_spec(
            compression=CompressionSpec(sparsifier="deft", density=0.05,
                                        kwargs={"robust_norms": True}),
        )
        rebuilt = spec_from_argv(spec.to_argv())
        assert rebuilt.resolve() == spec.resolve()
        assert rebuilt.compression.kwargs["robust_norms"] is True

    def test_argv_round_trip_of_defaults(self):
        spec = RunSpec()
        assert spec_from_argv(spec.to_argv()).resolve() == spec.resolve()


class TestValidationMatrix:
    """The capability matrix covers every refusal the trainer enforces."""

    EXECUTIONS = ("synchronous", "local_sgd", "async_bsp", "elastic")
    AGGREGATORS = (
        "mean", "median", "trimmed_mean", "krum", "multi_krum",
        "geometric_median", "centered_clipping", "staleness_weighted_mean",
    )
    ATTACKS = ("none", "sign_flip", "gaussian_noise", "label_flip", "alie")

    @staticmethod
    def expected_refusal(execution: str, attack: str) -> bool:
        colluding = attack == "alie"
        corrupts_data = attack == "label_flip"
        if attack == "none":
            return False
        if execution == "async_bsp" and colluding:
            return True
        if execution == "elastic" and not corrupts_data:
            return True
        return False

    def test_full_matrix(self):
        """Every (execution x aggregator x attack) combination validates
        exactly when the schedule can host it."""
        for execution in self.EXECUTIONS:
            for aggregator in self.AGGREGATORS:
                for attack in self.ATTACKS:
                    spec = smoke_spec(
                        cluster=ClusterSpec(n_workers=4),
                        robustness=RobustnessSpec(
                            aggregator=aggregator,
                            attack=attack,
                            n_byzantine=0 if attack == "none" else 1,
                        ),
                        execution=ExecutionSpec(model=execution),
                    )
                    if self.expected_refusal(execution, attack):
                        with pytest.raises(ValueError):
                            spec.validate()
                    else:
                        spec.validate()

    def test_colluding_attack_message_matches_trainer(self):
        spec = smoke_spec(
            cluster=ClusterSpec(n_workers=4),
            robustness=RobustnessSpec(attack="alie", n_byzantine=1),
            execution=ExecutionSpec(model="async_bsp"),
        )
        with pytest.raises(ValueError, match="synchronized group view"):
            spec.validate()

    def test_gradient_attack_under_elastic_message_matches_trainer(self):
        spec = smoke_spec(
            cluster=ClusterSpec(n_workers=4),
            robustness=RobustnessSpec(attack="sign_flip", n_byzantine=1),
            execution=ExecutionSpec(model="elastic"),
        )
        with pytest.raises(ValueError, match="accumulators"):
            spec.validate()

    def test_momentum_under_elastic_rejected(self):
        spec = smoke_spec(
            optimizer=OptimizerSpec(momentum=0.9, epochs=1),
            execution=ExecutionSpec(model="elastic"),
        )
        with pytest.raises(ValueError, match="momentum"):
            spec.validate()

    def test_all_byzantine_rejected(self):
        spec = smoke_spec(
            cluster=ClusterSpec(n_workers=2),
            robustness=RobustnessSpec(attack="sign_flip", n_byzantine=2),
        )
        with pytest.raises(ValueError, match="benign worker"):
            spec.validate()

    @pytest.mark.parametrize("knobs, match", [
        (dict(n_workers=0), "n_workers must be positive, got 0"),
        (dict(n_workers=-2), "n_workers must be positive, got -2"),
        (dict(local_steps=0), "local_steps must be >= 1, got 0"),
        (dict(max_staleness=-1), "max_staleness must be >= 0, got -1"),
        (dict(base_compute_seconds=0.0), "base_compute_seconds must be positive"),
        (dict(base_compute_seconds=-1.0), "base_compute_seconds must be positive"),
        (dict(density=0), r"density must be in \(0, 1\], got 0\.0"),
        (dict(density=1.5), r"density must be in \(0, 1\], got 1\.5"),
        (dict(density=-0.1), r"density must be in \(0, 1\], got -0\.1"),
        (dict(density=float("nan")), r"density must be in \(0, 1\], got nan"),
        (dict(lr=-1), r"lr must be positive, got -1\.0"),
        (dict(batch_size=0), "batch_size must be positive, got 0"),
        (dict(momentum=-0.5), "momentum must be >= 0, got -0.5"),
        (dict(weight_decay=-1.0), "weight_decay must be >= 0, got -1.0"),
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(max_iterations_per_epoch=0), "max_iterations_per_epoch must be >= 1, got 0"),
    ])
    def test_out_of_range_knobs_rejected_at_resolve(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            RunSpec.from_flat(**knobs).resolve()

    def test_unknown_component_names_rejected(self):
        with pytest.raises(KeyError, match="unknown sparsifier"):
            smoke_spec(compression=CompressionSpec(sparsifier="zzz")).validate()
        with pytest.raises(KeyError, match="unknown aggregator"):
            smoke_spec(robustness=RobustnessSpec(aggregator="zzz")).validate()
        with pytest.raises(KeyError, match="unknown attack"):
            smoke_spec(robustness=RobustnessSpec(attack="zzz")).validate()
        with pytest.raises(KeyError, match="unknown execution"):
            smoke_spec(execution=ExecutionSpec(model="zzz")).validate()

    def test_unknown_straggler_profile_rejected(self):
        spec = smoke_spec(cluster=ClusterSpec(straggler_profile="zzz"))
        with pytest.raises(ValueError, match="straggler profile"):
            spec.validate()

    def test_unknown_component_kwargs_rejected(self):
        spec = smoke_spec(
            compression=CompressionSpec(sparsifier="deft", density=0.05,
                                        kwargs={"bogus": 1}),
        )
        with pytest.raises(ValueError, match="bogus"):
            spec.validate()

    def test_robust_norms_rejected_for_non_deft(self):
        spec = smoke_spec(
            compression=CompressionSpec(sparsifier="topk", density=0.05,
                                        kwargs={"robust_norms": True}),
        )
        with pytest.raises(ValueError, match="robust-norms"):
            spec.validate()

    def test_validation_fires_before_any_construction(self):
        """Session.run must raise on an invalid spec without building a task."""
        session = Session()
        with pytest.raises(ValueError):
            session.run(smoke_spec(
                cluster=ClusterSpec(n_workers=4),
                robustness=RobustnessSpec(attack="alie", n_byzantine=1),
                execution=ExecutionSpec(model="async_bsp"),
            ))
        assert session._tasks == {}

    @settings(max_examples=400, deadline=None)
    @given(
        execution=st.sampled_from(available_components("execution")),
        attack=st.sampled_from(available_components("attack")),
        n_byzantine=st.sampled_from((0, 1)),
        aggregator=st.sampled_from((None,) + tuple(available_components("aggregator"))),
        topology=st.sampled_from((None, "flat", "ring", "star", "fat_node:2x2")),
        server_rank=st.sampled_from((None, 0, 4)),
        momentum=st.sampled_from((0.0, 0.9)),
        sparsifier=st.sampled_from(("deft", "topk")),
        robust_norms=st.booleans(),
    )
    def test_validate_raises_exactly_the_spec_refusal(
        self, execution, attack, n_byzantine, aggregator, topology, server_rank,
        momentum, sparsifier, robust_norms,
    ):
        """``validate()`` refuses a spec exactly when the exception-free
        predicate does, with the predicate's reason as its message."""
        from repro.sweep import spec_refusal

        spec = smoke_spec(
            cluster=ClusterSpec(n_workers=4, topology=topology, server_rank=server_rank),
            optimizer=OptimizerSpec(
                momentum=momentum, epochs=1, max_iterations_per_epoch=2, batch_size=8
            ),
            compression=CompressionSpec(
                sparsifier=sparsifier, density=0.05,
                kwargs={"robust_norms": True} if robust_norms else {},
            ),
            robustness=RobustnessSpec(
                aggregator=aggregator, attack=attack, n_byzantine=n_byzantine
            ),
            execution=ExecutionSpec(model=execution),
        )
        reason = spec_refusal(spec)
        if reason is None:
            spec.validate()
        else:
            with pytest.raises(ValueError) as refused:
                spec.validate()
            assert str(refused.value) == reason


class TestSessionRun:
    def test_run_returns_structured_result(self):
        result = api_run(smoke_spec())
        assert isinstance(result, RunResult)
        assert result.iterations_run == 2
        assert result.spec.robustness.aggregator == "mean"
        assert result.traffic["total_sent_elements"] > 0
        assert "indices" in result.traffic["by_tag"]
        assert result.estimated_wallclock > 0

    def test_result_to_json_round_trips_spec(self):
        result = api_run(smoke_spec())
        payload = json.loads(result.to_json())
        assert RunSpec.from_dict(payload["spec"]) == result.spec
        assert payload["iterations_run"] == 2
        assert set(payload["final_metrics"]) == set(result.final_metrics)

    def test_bit_identical_to_direct_trainer(self, smoke_lm_task):
        """Acceptance criterion: the facade adds nothing to the math."""
        from repro.sparsifiers import build_sparsifier
        from repro.training.trainer import DistributedTrainer

        config = RunSpec.from_flat(
            n_workers=2, batch_size=8, epochs=1, lr=0.2, seed=3,
            max_iterations_per_epoch=4,
        ).resolve()
        direct = DistributedTrainer(
            smoke_lm_task, build_sparsifier("deft", 0.05), config
        ).train()

        via_api = Session().run(
            smoke_spec(
                seed=3,
                optimizer=OptimizerSpec(lr=0.2, batch_size=8, epochs=1,
                                        max_iterations_per_epoch=4),
            ),
            task=smoke_lm_task,
        )
        np.testing.assert_array_equal(
            direct.logger.series("loss").values, via_api.series("loss").values
        )
        assert direct.final_metrics == via_api.final_metrics
        assert direct.estimated_wallclock == via_api.estimated_wallclock

    def test_session_caches_tasks(self):
        session = Session()
        first = session.task_for("lm", "smoke", 0)
        assert session.task_for("lm", "smoke", 0) is first
        assert session.task_for("lm", "smoke", 1) is not first

    def test_run_result_delegates_training_surface(self):
        result = api_run(smoke_spec())
        assert result.mean_density() == result.training.mean_density()
        assert result.final_metric("perplexity") == result.training.final_metric("perplexity")
        assert result.timing is result.training.timing
        assert list(result.series("loss").values) == list(result.training.series("loss").values)

    def test_runner_routes_through_facade(self):
        """The legacy keyword helper now returns the structured result."""
        from repro.experiments.runner import run_training

        result = run_training(
            "lm", "deft", density=0.05, n_workers=2, epochs=1,
            max_iterations_per_epoch=2,
        )
        assert isinstance(result, RunResult)
        assert result.spec.compression.sparsifier == "deft"
