"""Tests for the sweep engine: grids, cache, and parallel dispatch."""

import json

import pytest

from repro.api import RunSpec, Session
from repro.api.result import RunResult
from repro.experiments import robustness_grid
from repro.sweep import (
    CACHE_VERSION,
    ResultCache,
    expand_grid,
    load_grid,
    run_sweep,
    spec_key,
    spec_refusal,
)


def tiny_spec(**overrides) -> RunSpec:
    """A seconds-scale LM spec; overrides patch the top-level dict form."""
    base = {
        "workload": "lm",
        "cluster": {"n_workers": 2},
        "optimizer": {"epochs": 1, "max_iterations_per_epoch": 2},
        "compression": {"sparsifier": "deft", "density": 0.05},
    }
    data = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            merged = dict(data[key])
            merged.update(value)
            data[key] = merged
        else:
            data[key] = value
    return RunSpec.from_dict(data)


TINY_BASE = {
    "workload": "lm",
    "cluster": {"n_workers": 2},
    "optimizer": {"epochs": 1, "max_iterations_per_epoch": 2},
    "compression": {"sparsifier": "deft", "density": 0.05},
}


# ---------------------------------------------------------------------- #
class TestGridExpansion:
    def test_explicit_specs_merge_over_base(self):
        expansion = expand_grid({
            "base": TINY_BASE,
            "specs": [{"seed": 1}, {"seed": 2, "compression": {"sparsifier": "topk"}}],
        })
        assert len(expansion.specs) == 2
        assert [spec.seed for spec in expansion.specs] == [1, 2]
        assert expansion.specs[0].compression.sparsifier == "deft"
        assert expansion.specs[1].compression.sparsifier == "topk"
        # base values survive the merge
        assert all(spec.cluster.n_workers == 2 for spec in expansion.specs)

    def test_cartesian_axes(self):
        expansion = expand_grid({
            "base": TINY_BASE,
            "axes": {
                "robustness.aggregator": ["mean", "median"],
                "seed": [0, 1, 2],
            },
        })
        assert len(expansion.specs) == 6
        combos = {(s.robustness.aggregator, s.seed) for s in expansion.specs}
        assert combos == {(a, s) for a in ("mean", "median") for s in (0, 1, 2)}

    def test_axes_cells_are_independent(self):
        """Axis values must not leak between cells via shared nested dicts."""
        expansion = expand_grid({
            "base": TINY_BASE,
            "axes": {"robustness.aggregator": ["mean", "krum"]},
        })
        assert [s.robustness.aggregator for s in expansion.specs] == ["mean", "krum"]

    def test_inventory_derived_axis(self):
        from repro.plugins import available_components

        expansion = expand_grid({
            "base": TINY_BASE,
            "axes": {"robustness.aggregator": {"components": "aggregator"}},
        })
        assert sorted(s.robustness.aggregator for s in expansion.specs) == sorted(
            available_components("aggregator")
        )

    def test_star_axis_shorthand(self):
        from repro.plugins import available_components

        expansion = expand_grid({
            "base": TINY_BASE,
            "axes": {"execution.model": "*"},
        })
        assert sorted(s.execution.model for s in expansion.specs) == sorted(
            available_components("execution")
        )

    def test_bare_base_is_one_cell(self):
        expansion = expand_grid({"base": TINY_BASE})
        assert len(expansion.specs) == 1

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid keys"):
            expand_grid({"base": TINY_BASE, "cells": []})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            expand_grid({})

    def test_unknown_component_raises_not_prunes(self):
        with pytest.raises(KeyError):
            expand_grid({
                "base": TINY_BASE,
                "axes": {"robustness.aggregator": ["mean", "no_such_rule"]},
            })

    @pytest.mark.parametrize("overlay, match", [
        ({"cluster": {"workers": 4}}, r"unknown spec key cluster\.workers"),
        ({"clutser": {}}, "unknown spec key clutser"),
        ({"optimizer": None}, "'optimizer' must be a mapping"),
        ({"cluster": {"n_workers": 0}}, "n_workers must be positive"),
        ({"execution": {"local_steps": 0}}, "local_steps must be >= 1"),
        ({"execution": {"max_staleness": -1}}, "max_staleness must be >= 0"),
        ({"cluster": {"base_compute_seconds": -1}}, "base_compute_seconds must be positive"),
        ({"compression": {"density": 0}}, r"density must be in \(0, 1\]"),
        ({"compression": {"density": 1.5}}, r"density must be in \(0, 1\]"),
        ({"optimizer": {"lr": -1}}, "lr must be positive"),
        ({"optimizer": {"batch_size": 0}}, "batch_size must be positive"),
        ({"optimizer": {"momentum": -0.5}}, "momentum must be >= 0"),
        ({"optimizer": {"weight_decay": -1.0}}, "weight_decay must be >= 0"),
        ({"optimizer": {"epochs": 0}}, "epochs must be >= 1"),
        ({"optimizer": {"max_iterations_per_epoch": 0}}, "max_iterations_per_epoch must be >= 1"),
    ])
    def test_malformed_cell_fails_at_expansion_and_exits_2(
        self, overlay, match, tmp_path, capsys
    ):
        """A misspelled key or an out-of-range knob is a malformed grid: it
        is refused when the grid expands (``repro sweep --spec`` exits 2
        with ``error: ...``), not once per cell at run time."""
        from repro.cli import main

        grid = {"base": TINY_BASE, "specs": [overlay]}
        with pytest.raises(ValueError, match=match):
            expand_grid(grid)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["sweep", "--spec", str(path), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_load_grid_roundtrip(self, tmp_path):
        path = tmp_path / "grid.json"
        declared = {"base": TINY_BASE, "axes": {"seed": [0, 1]}}
        path.write_text(json.dumps(declared))
        assert load_grid(path) == declared


class TestCapabilityPruning:
    def test_invalid_cells_pruned_with_reason(self):
        expansion = expand_grid({
            "base": dict(TINY_BASE, cluster={"n_workers": 4},
                         robustness={"attack": "alie", "n_byzantine": 1}),
            "axes": {"execution.model": ["synchronous", "async_bsp"]},
        })
        assert [s.execution.model for s in expansion.specs] == ["synchronous"]
        assert len(expansion.pruned) == 1
        assert expansion.pruned[0].spec.execution.model == "async_bsp"
        assert "synchronized group view" in expansion.pruned[0].reason

    def test_spec_refusal_matches_resolve(self):
        spec = tiny_spec(
            cluster={"n_workers": 4},
            robustness={"attack": "sign_flip", "n_byzantine": 1},
            execution={"model": "elastic"},
        )
        reason = spec_refusal(spec)
        assert reason is not None
        with pytest.raises(ValueError, match="never exchanges"):
            spec.resolve()

    def test_valid_spec_has_no_refusal(self):
        assert spec_refusal(tiny_spec()) is None

    def test_robust_norms_cells_pruned_not_fatal(self):
        """A sparsifier axis with robust_norms prunes the unsupporting cells."""
        expansion = expand_grid({
            "base": dict(TINY_BASE, compression={"kwargs": {"robust_norms": True}}),
            "axes": {"compression.sparsifier": ["deft", "topk"]},
        })
        assert [s.compression.sparsifier for s in expansion.specs] == ["deft"]
        assert len(expansion.pruned) == 1
        assert "robust-norms is not supported" in expansion.pruned[0].reason

    def test_spec_refusal_over_executions_and_attacks(self):
        def refusal(execution, attack):
            return spec_refusal(tiny_spec(
                cluster={"n_workers": 4},
                robustness={"aggregator": "mean", "attack": attack, "n_byzantine": 1},
                execution={"model": execution},
            ))

        # none is hosted everywhere; alie needs a synchronized view (not
        # async); sign_flip corrupts accumulators (not elastic, which
        # exchanges parameters).
        assert refusal("synchronous", "alie") is None
        assert "synchronized group view" in refusal("async_bsp", "alie")
        assert "never exchanges" in refusal("elastic", "sign_flip")
        assert refusal("async_bsp", "none") is None


# ---------------------------------------------------------------------- #
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = tiny_spec()
        assert cache.get(spec) is None
        result = Session().run(spec)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.cached is True
        assert hit.to_dict() == result.to_dict()
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_key_is_resolution_invariant(self):
        explicit = tiny_spec()
        resolved = explicit.resolve()
        assert spec_key(explicit) == spec_key(resolved)

    def test_spec_change_changes_key(self):
        assert spec_key(tiny_spec()) != spec_key(tiny_spec(seed=1))
        assert spec_key(tiny_spec()) != spec_key(
            tiny_spec(robustness={"aggregator": "median"})
        )

    def test_cache_version_bump_invalidates(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(root=tmp_path, cache_version=CACHE_VERSION)
        cache.put(spec, Session().run(spec))
        bumped = ResultCache(root=tmp_path, cache_version=CACHE_VERSION + 1)
        assert bumped.get(spec) is None

    def test_stale_version_entry_dropped_on_read(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(root=tmp_path)
        path = cache.put(spec, Session().run(spec))
        payload = json.loads(path.read_text())
        payload["cache_version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert not path.exists()

    def test_corrupted_entry_recovered_as_miss(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(root=tmp_path)
        path = cache.put(spec, Session().run(spec))
        path.write_text("{truncated json")
        assert cache.get(spec) is None
        assert not path.exists()
        # a fresh put works again
        cache.put(spec, Session().run(spec))
        assert cache.get(spec) is not None

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(tiny_spec(), Session().run(tiny_spec()))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        cache = ResultCache()
        assert cache.root == tmp_path / "store"


class TestRunResultRoundTrip:
    def test_from_dict_roundtrips(self):
        result = Session().run(tiny_spec())
        data = result.to_dict()
        rehydrated = RunResult.from_dict(data)
        assert rehydrated.to_dict() == data
        assert rehydrated.cached is True
        assert rehydrated.final_metrics == result.final_metrics
        assert rehydrated.mean_density() == pytest.approx(result.mean_density())
        assert rehydrated.estimated_wallclock == result.estimated_wallclock
        assert rehydrated.iterations_run == result.iterations_run


# ---------------------------------------------------------------------- #
class TestRunSweep:
    def test_serial_outcomes_in_input_order(self):
        specs = [tiny_spec(seed=s) for s in (3, 1, 2)]
        report = run_sweep(specs)
        assert [o.spec.seed for o in report.outcomes] == [3, 1, 2]
        assert report.counts() == {"run": 3, "cache": 0, "error": 0}
        assert all(o.ok for o in report.outcomes)

    def test_cache_hits_skip_execution_entirely(self, tmp_path, monkeypatch):
        cache = ResultCache(root=tmp_path)
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        first = run_sweep(specs, cache=cache)
        assert first.counts()["run"] == 2

        # A fully-cached re-run must execute zero training steps: fail the
        # sweep if anything reaches the trainer.
        from repro.training.trainer import DistributedTrainer

        def boom(self):
            raise AssertionError("cache hit must not train")

        monkeypatch.setattr(DistributedTrainer, "train", boom)
        second = run_sweep(specs, cache=cache)
        assert second.counts() == {"run": 0, "cache": 2, "error": 0}
        for fresh, cached in zip(first.outcomes, second.outcomes):
            assert cached.result.to_dict() == fresh.result.to_dict()

    def test_partial_cache_only_runs_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        run_sweep([tiny_spec(seed=0)], cache=cache)
        report = run_sweep([tiny_spec(seed=0), tiny_spec(seed=5)], cache=cache)
        assert report.counts() == {"run": 1, "cache": 1, "error": 0}
        assert report.outcomes[0].source == "cache"
        assert report.outcomes[1].source == "run"

    def test_failure_isolation(self):
        # the attack's own constructor refuses the scale, inside the cell
        good = tiny_spec()
        bad = tiny_spec(robustness={"attack": "sign_flip", "attack_kwargs": {"scale": -1.0}})
        report = run_sweep([bad, good])
        assert report.counts() == {"run": 1, "cache": 0, "error": 1}
        assert report.outcomes[0].error is not None
        assert "scale must be positive" in report.outcomes[0].error
        assert report.outcomes[1].ok

    def test_progress_callback_sees_every_cell(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        run_sweep([tiny_spec(seed=0)], cache=cache)
        seen = []
        run_sweep(
            [tiny_spec(seed=0), tiny_spec(seed=9)],
            cache=cache,
            progress=lambda outcome: seen.append(outcome.source),
        )
        assert sorted(seen) == ["cache", "run"]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep([tiny_spec()], jobs=0)


class TestParallelDispatch:
    def test_parallel_bit_identical_to_serial(self):
        """A small robustness grid: every parallel cell must equal serial."""
        expansion = expand_grid({
            "base": dict(TINY_BASE, cluster={"n_workers": 4},
                         robustness={"attack": "sign_flip", "n_byzantine": 1}),
            "axes": {"robustness.aggregator": ["mean", "krum", "median"]},
        })
        serial = run_sweep(expansion.specs, jobs=1)
        parallel = run_sweep(expansion.specs, jobs=2)
        assert parallel.counts()["error"] == 0
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert p.result.to_dict() == s.result.to_dict()

    def test_parallel_failure_isolation(self):
        bad = tiny_spec(robustness={"attack": "sign_flip", "attack_kwargs": {"scale": -1.0}})
        good = tiny_spec()
        report = run_sweep([bad, good], jobs=2)
        assert report.outcomes[0].error is not None
        assert report.outcomes[1].ok

    def test_parallel_fills_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        run_sweep(specs, jobs=2, cache=cache)
        assert len(cache) == 2
        report = run_sweep(specs, jobs=2, cache=cache)
        assert report.counts() == {"run": 0, "cache": 2, "error": 0}


# ---------------------------------------------------------------------- #
class TestJobClamp:
    """The oversubscription clamp: jobs never exceed what the host can run."""

    def test_clamped_to_cpu_count(self, monkeypatch):
        from repro.sweep import engine

        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        specs = [tiny_spec(seed=s) for s in range(3)]
        report = run_sweep(specs, jobs=8)
        assert report.requested_jobs == 8
        assert report.jobs == 8  # back-compat: the requested count
        assert report.effective_jobs == 2
        assert "2 cpu" in report.clamp_reason

    def test_single_core_falls_back_to_serial(self, monkeypatch):
        from repro.sweep import engine

        monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        report = run_sweep(specs, jobs=4)
        assert report.effective_jobs == 1
        assert report.clamp_reason is not None
        assert report.counts()["error"] == 0

    def test_unclamped_when_cores_suffice(self, monkeypatch):
        from repro.sweep import engine

        monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        report = run_sweep(specs, jobs=2)
        assert report.effective_jobs == 2
        assert report.clamp_reason is None

    def test_fewer_misses_than_jobs(self, monkeypatch):
        from repro.sweep import engine

        monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
        report = run_sweep([tiny_spec()], jobs=4)
        assert report.effective_jobs == 1


class TestSessionPool:
    def test_executor_is_persistent(self):
        with Session() as session:
            pool = session.executor(2)
            assert session.executor(2) is pool

    def test_executor_resized_on_different_jobs(self):
        with Session() as session:
            pool = session.executor(2)
            resized = session.executor(3)
            assert resized is not pool

    def test_close_releases_and_reopens(self):
        session = Session()
        pool = session.executor(2)
        session.close()
        session.close()  # idempotent
        assert session.executor(2) is not pool
        session.close()

    def test_executor_rejects_bad_jobs(self):
        with Session() as session:
            with pytest.raises(ValueError):
                session.executor(0)

    def test_sweep_reuses_session_pool(self, monkeypatch):
        from repro.sweep import engine

        monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
        with Session() as session:
            first = run_sweep(
                [tiny_spec(seed=0), tiny_spec(seed=1)], jobs=2, session=session
            )
            pool = session._pool
            assert pool is not None
            second = run_sweep(
                [tiny_spec(seed=2), tiny_spec(seed=3)], jobs=2, session=session
            )
            assert session._pool is pool
        assert session._pool is None
        assert first.counts()["error"] == 0
        assert second.counts()["error"] == 0


# ---------------------------------------------------------------------- #
class TestGridDriversThroughSweep:
    def test_robustness_grid_prunes_and_reports_skipped(self):
        result = robustness_grid.run(
            scale="smoke",
            sparsifiers=("deft",),
            aggregators=("mean",),
            attacks=("none", "sign_flip"),
            n_workers=2,
            n_byzantine=1,
            epochs=1,
            max_iterations_per_epoch=2,
            execution="elastic",
        )
        cells = result["cells"]
        assert "deft|mean|none" in cells
        skipped = cells["deft|mean|sign_flip"]
        assert skipped["metric"] is None
        assert "never exchanges" in skipped["skipped"]
        assert "capability" in robustness_grid.format_report(result)

    def test_robustness_grid_uses_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        kwargs = dict(
            scale="smoke", sparsifiers=("deft",), aggregators=("mean",),
            attacks=("none",), n_workers=2, n_byzantine=0, epochs=1,
            max_iterations_per_epoch=2,
        )
        first = robustness_grid.run(cache=cache, **kwargs)
        assert cache.stats()["entries"] == 1
        second = robustness_grid.run(cache=cache, **kwargs)
        assert cache.hits >= 1
        assert second["cells"] == first["cells"]

    def test_session_task_cache_is_bounded(self):
        session = Session(max_cached_tasks=2)
        session.task_for("lm", "smoke", 0)
        session.task_for("lm", "smoke", 1)
        session.task_for("lm", "smoke", 2)
        assert len(session._tasks) == 2
        # LRU: seed 0 was evicted, seeds 1 and 2 remain
        assert ("lm", "smoke", 0) not in session._tasks
        # an evicted task is rebuilt, identically derived from its key
        rebuilt = session.task_for("lm", "smoke", 0)
        assert rebuilt is session.task_for("lm", "smoke", 0)
