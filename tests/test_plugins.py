"""Tests for the unified component registry (:mod:`repro.plugins`)."""

import pytest

from repro.plugins import (
    REGISTRY,
    ComponentSpec,
    Kwarg,
    available_components,
    build_component,
    component_inventory,
    component_kinds,
    get_component,
    register_component,
)


class TestRegistryFramework:
    def test_all_kinds_registered(self):
        assert component_kinds() == [
            "aggregator", "attack", "execution", "model",
            "sparsifier", "topology",
        ]

    def test_available_matches_legacy_registries(self):
        from repro.aggregators import available_aggregators
        from repro.attacks import available_attacks
        from repro.execution import available_execution_models
        from repro.models import available_models
        from repro.sparsifiers import available_sparsifiers

        assert available_components("sparsifier") == available_sparsifiers()
        assert available_components("aggregator") == available_aggregators()
        assert available_components("attack") == available_attacks()
        assert available_components("execution") == available_execution_models()
        assert available_components("model") == available_models()

    def test_unknown_name_error_names_kind_and_alternatives(self):
        with pytest.raises(KeyError) as excinfo:
            get_component("sparsifier", "nonexistent")
        message = excinfo.value.args[0]
        assert "unknown sparsifier 'nonexistent'" in message
        assert "deft" in message

    def test_error_paths_shared_across_kinds(self):
        """All five kinds produce the same error shape from the one code path."""
        for kind in component_kinds():
            with pytest.raises(KeyError, match=f"unknown {kind} 'nope'"):
                get_component(kind, "nope")

    def test_duplicate_registration_rejected(self):
        spec = ComponentSpec(kind="aggregator", name="mean", builder=object)
        with pytest.raises(KeyError, match="already registered"):
            register_component(spec)

    def test_build_component_constructs(self):
        from repro.sparsifiers.topk import TopKSparsifier

        sparsifier = build_component("sparsifier", "topk", 0.05)
        assert isinstance(sparsifier, TopKSparsifier)
        assert sparsifier.density == 0.05

    def test_lookup_is_case_insensitive_like_legacy_builders(self):
        assert get_component("sparsifier", "TopK").name == "topk"

    def test_register_and_unregister_custom_component(self):
        class Probe:
            def __init__(self, marker=0):
                self.marker = marker

        register_component(ComponentSpec(
            kind="aggregator",
            name="_probe",
            builder=Probe,
            kwargs=(Kwarg("marker", "int", 0),),
        ))
        try:
            assert "_probe" in available_components("aggregator")
            built = build_component("aggregator", "_probe", marker=3)
            assert built.marker == 3
        finally:
            REGISTRY.unregister("aggregator", "_probe")
        assert "_probe" not in available_components("aggregator")


class TestKwargSchema:
    def test_coerce_kwargs_parses_cli_strings(self):
        spec = get_component("sparsifier", "dgc")
        coerced = spec.coerce_kwargs({"sample_ratio": "0.25", "refine": "false"})
        assert coerced == {"sample_ratio": 0.25, "refine": False}

    def test_unknown_kwarg_rejected_with_accepted_list(self):
        spec = get_component("sparsifier", "dgc")
        with pytest.raises(ValueError, match="sample_ratio"):
            spec.coerce_kwargs({"bogus": "1"})

    def test_bad_value_rejected(self):
        spec = get_component("sparsifier", "dgc")
        with pytest.raises(ValueError, match="refine"):
            spec.coerce_kwargs({"refine": "maybe"})

    def test_non_string_values_pass_through(self):
        spec = get_component("aggregator", "centered_clipping")
        assert spec.coerce_kwargs({"tau": 0.5}) == {"tau": 0.5}

    def test_bad_kwarg_type_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="unsupported type"):
            Kwarg("x", "complex")


class TestCapabilities:
    def test_aggregator_gather_flags_match_classes(self):
        from repro.aggregators import build_aggregator

        for name in available_components("aggregator"):
            declared = get_component("aggregator", name).capability("requires_gather")
            assert declared == build_aggregator(name).requires_individual_contributions

    def test_attack_flags_match_classes(self):
        from repro.attacks import build_attack

        for name in available_components("attack"):
            spec = get_component("attack", name)
            attack = build_attack(name)
            assert spec.capability("colluding") == attack.colluding
            assert spec.capability("corrupts_data") == attack.corrupts_data

    def test_async_declares_staleness_weighted_default(self):
        from repro.plugins import default_aggregator_for

        assert default_aggregator_for("async_bsp") == "staleness_weighted_mean"
        assert default_aggregator_for("synchronous") == "mean"
        assert default_aggregator_for("local_sgd") == "mean"
        assert default_aggregator_for("elastic") == "mean"

    def test_elastic_declares_its_refusals(self):
        caps = get_component("execution", "elastic").capabilities
        assert caps["supports_momentum"] is False
        assert caps["exchanges_gradients"] is False

    def test_async_declares_no_synchronized_view(self):
        caps = get_component("execution", "async_bsp").capabilities
        assert caps["synchronized_view"] is False

    def test_only_deft_supports_robust_norms(self):
        robust = [
            name for name in available_components("sparsifier")
            if get_component("sparsifier", name).capability("supports_robust_norms")
        ]
        assert robust == ["deft"]


class TestInventory:
    def test_inventory_is_json_serialisable(self):
        import json

        text = json.dumps(component_inventory())
        assert "staleness_weighted_mean" in text

    def test_inventory_entries_carry_schema_and_capabilities(self):
        inventory = component_inventory()
        deft = next(e for e in inventory["sparsifier"] if e["name"] == "deft")
        assert {kw["name"] for kw in deft["kwargs"]} == {
            "allocation_policy", "norm_proportional_k", "two_stage", "robust_norms",
        }
        assert deft["capabilities"]["supports_robust_norms"] is True


class TestLegacyImportPaths:
    """The five historical registry locations must keep working verbatim."""

    def test_sparsifier_registry_imports(self):
        from repro.sparsifiers.registry import available_sparsifiers, build_sparsifier
        from repro.sparsifiers import available_sparsifiers as pkg_available

        assert build_sparsifier("topk", 0.01).name == "topk"
        assert available_sparsifiers() == pkg_available()

    def test_aggregator_registry_imports(self):
        from repro.aggregators.registry import available_aggregators, build_aggregator

        assert build_aggregator("krum", n_byzantine=1).name == "krum"
        assert "mean" in available_aggregators()

    def test_attack_registry_imports(self):
        from repro.attacks.registry import available_attacks, build_attack

        assert build_attack("sign_flip", n_byzantine=1, scale=2.0).name == "sign_flip"
        assert "alie" in available_attacks()

    def test_execution_registry_imports(self):
        from repro.execution.registry import (
            available_execution_models,
            build_execution_model,
        )

        assert build_execution_model("local_sgd", local_steps=2).name == "local_sgd"
        assert "async_bsp" in available_execution_models()

    def test_model_registry_imports(self):
        from repro.models.registry import available_models, build_model, register_model

        assert "mlp" in available_models()
        assert build_model("mlp") is not None
        with pytest.raises(KeyError):
            register_model("mlp", lambda rng=None: None)

    def test_legacy_unknown_name_messages_unchanged(self):
        from repro.aggregators import build_aggregator
        from repro.sparsifiers import build_sparsifier

        with pytest.raises(KeyError, match="unknown sparsifier 'zzz'"):
            build_sparsifier("zzz", 0.01)
        with pytest.raises(KeyError, match="unknown aggregator 'zzz'"):
            build_aggregator("zzz")
