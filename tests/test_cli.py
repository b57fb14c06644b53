"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_list_prints_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "deft" in out
        assert "fig09" in out
        assert "Computer vision" in out

    def test_list_prints_aggregators_and_attacks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "krum" in out
        assert "centered_clipping" in out
        assert "sign_flip" in out
        assert "robustness" in out

    def test_list_prints_execution_models_and_profiles(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "async_bsp" in out
        assert "local_sgd" in out
        assert "elastic" in out
        assert "lognormal" in out
        assert "staleness" in out


class TestListJson:
    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["components"]) == {
            "sparsifier", "aggregator", "attack", "execution",
            "model", "topology",
        }
        names = [entry["name"] for entry in payload["components"]["sparsifier"]]
        assert "deft" in names
        assert "robustness" in payload["experiments"]
        assert payload["straggler_profiles"] == ["uniform", "lognormal", "straggler"]

    def test_list_json_carries_schema_and_capabilities(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        async_bsp = next(
            e for e in payload["components"]["execution"] if e["name"] == "async_bsp"
        )
        assert async_bsp["capabilities"]["default_aggregator"] == "staleness_weighted_mean"
        dgc = next(e for e in payload["components"]["sparsifier"] if e["name"] == "dgc")
        assert {kw["name"] for kw in dgc["kwargs"]} == {
            "sample_ratio", "refine", "overshoot_tolerance",
        }


class TestDescribe:
    def test_describe_by_kind_and_name(self, capsys):
        assert main(["describe", "sparsifier/deft"]) == 0
        out = capsys.readouterr().out
        assert "sparsifier/deft" in out
        assert "robust_norms" in out
        assert "supports_robust_norms" in out

    def test_describe_bare_name(self, capsys):
        assert main(["describe", "krum"]) == 0
        assert "aggregator/krum" in capsys.readouterr().out

    def test_describe_json(self, capsys):
        assert main(["describe", "attack/alie", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capabilities"]["colluding"] is True

    def test_describe_unknown_fails_cleanly(self, capsys):
        assert main(["describe", "nonexistent"]) == 2
        assert "unknown component" in capsys.readouterr().err

    def test_describe_ambiguous_name_fails_cleanly(self, capsys):
        # "mean" exists only as an aggregator, so use an artificial clash is
        # unnecessary: assert the unambiguous path works and an unknown kind
        # fails with the kind list.
        assert main(["describe", "nokind/mean"]) == 2
        assert "unknown component kind" in capsys.readouterr().err


class TestTrain:
    def test_train_smoke(self, capsys):
        code = main([
            "train", "--workload", "lm", "--sparsifier", "deft", "--density", "0.05",
            "--workers", "2", "--epochs", "1", "--scale", "smoke",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean actual density" in out
        assert "final perplexity" in out

    def test_invalid_sparsifier_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--sparsifier", "nonexistent"])

    def test_train_with_robustness_flags(self, capsys):
        code = main([
            "train", "--workload", "lm", "--sparsifier", "deft", "--density", "0.05",
            "--workers", "4", "--epochs", "1", "--scale", "smoke",
            "--aggregator", "krum", "--attack", "sign_flip", "--n-byzantine", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregator=krum" in out
        assert "attack=sign_flip" in out

    def test_invalid_aggregator_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--aggregator", "nonexistent"])

    def test_invalid_attack_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--attack", "nonexistent"])

    def test_invalid_robustness_config_fails_cleanly(self, capsys):
        code = main([
            "train", "--workload", "lm", "--workers", "4",
            "--attack", "sign_flip", "--n-byzantine", "4", "--epochs", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "benign worker" in err

    def test_negative_byzantine_fails_cleanly(self, capsys):
        """Config-construction-time validation, not a downstream aggregator error."""
        code = main([
            "train", "--workload", "lm", "--workers", "4",
            "--n-byzantine", "-1", "--epochs", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-negative" in err

    def test_run_alias_with_execution_flags(self, capsys):
        code = main([
            "run", "--workload", "lm", "--sparsifier", "deft", "--density", "0.05",
            "--workers", "2", "--epochs", "1", "--scale", "smoke",
            "--execution", "async_bsp", "--straggler-profile", "lognormal",
            "--max-staleness", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution=async_bsp" in out
        assert "stragglers=lognormal" in out
        assert "estimated wall-clock" in out

    def test_train_local_sgd(self, capsys):
        code = main([
            "train", "--workload", "lm", "--density", "0.05", "--workers", "2",
            "--epochs", "1", "--execution", "local_sgd", "--local-steps", "2",
        ])
        assert code == 0
        assert "execution=local_sgd" in capsys.readouterr().out

    def test_invalid_execution_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--execution", "nonexistent"])

    def test_invalid_straggler_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--straggler-profile", "nonexistent"])

    def test_robust_norms_flag(self, capsys):
        code = main([
            "train", "--workload", "lm", "--sparsifier", "deft", "--density", "0.05",
            "--workers", "2", "--epochs", "1", "--robust-norms",
        ])
        assert code == 0

    def test_schema_generated_component_args(self, capsys):
        code = main([
            "train", "--workload", "lm", "--sparsifier", "dgc", "--density", "0.05",
            "--workers", "2", "--epochs", "1",
            "--sparsifier-arg", "sample_ratio=0.3", "--sparsifier-arg", "refine=false",
        ])
        assert code == 0
        assert "mean actual density" in capsys.readouterr().out

    def test_unknown_component_arg_fails_cleanly(self, capsys):
        code = main([
            "train", "--workload", "lm", "--sparsifier", "dgc", "--epochs", "1",
            "--sparsifier-arg", "bogus=1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "accepted" in err

    def test_malformed_component_arg_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--sparsifier-arg", "noequals"])

    def test_aggregator_arg_coerced(self, capsys):
        code = main([
            "train", "--workload", "lm", "--density", "0.05", "--workers", "4",
            "--epochs", "1", "--aggregator", "trimmed_mean",
            "--aggregator-arg", "trim=1",
        ])
        assert code == 0
        assert "aggregator=trimmed_mean" in capsys.readouterr().out

    def test_aggregator_arg_coerced_against_execution_default(self, capsys):
        """With --aggregator unset, kwargs must validate against the
        execution model's default rule (staleness_weighted_mean under
        async_bsp accepts gamma=), not against 'mean'."""
        code = main([
            "train", "--workload", "lm", "--density", "0.05", "--workers", "2",
            "--epochs", "1", "--execution", "async_bsp",
            "--aggregator-arg", "gamma=0.5",
        ])
        assert code == 0
        assert "execution=async_bsp" in capsys.readouterr().out

    def test_robust_norms_requires_deft(self, capsys):
        code = main([
            "train", "--workload", "lm", "--sparsifier", "topk", "--density", "0.05",
            "--workers", "2", "--epochs", "1", "--robust-norms",
        ])
        assert code == 2
        assert "robust-norms" in capsys.readouterr().err


class TestExperiment:
    def test_experiment_registry_covers_all_figures_and_tables(self):
        assert set(EXPERIMENTS) == {
            "fig01", "table1", "table2", "fig03", "fig04", "fig05",
            "fig06", "fig07", "fig08", "fig09", "fig10", "robustness",
            "staleness", "placement",
        }

    def test_experiment_fig09(self, capsys):
        assert main(["experiment", "fig09", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "workers" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2", "--scale", "smoke"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestNoCommand:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()
