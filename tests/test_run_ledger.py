"""Tests for the append-only JSONL run ledger."""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import RunSpec, Session
from repro.observability import RunLedger, default_ledger_path
from repro.observability.ledger import LEDGER_ENV_VAR
from repro.sweep import run_sweep, spec_key


def tiny_spec(**overrides) -> RunSpec:
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


# ---------------------------------------------------------------------- #
class TestDefaultPath:
    def test_env_var_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV_VAR, str(tmp_path / "custom.jsonl"))
        assert default_ledger_path() == tmp_path / "custom.jsonl"

    def test_default_under_cache_dir(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
        path = default_ledger_path()
        assert path.name == "ledger.jsonl"
        assert ".cache" in path.parts


class TestAppendAndRead:
    def test_append_stamps_defaults(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        stamped = ledger.append({"spec_key": "abc", "metrics": {"loss": 1.0}})
        assert stamped["schema"] == 1
        assert stamped["kind"] == "run"
        assert stamped["ts"] > 0
        entries = ledger.entries()
        assert len(entries) == 1
        assert entries[0]["spec_key"] == "abc"
        assert entries[0]["metrics"] == {"loss": 1.0}

    def test_append_requires_spec_key(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        with pytest.raises(ValueError):
            ledger.append({"metrics": {"loss": 1.0}})

    def test_entries_preserve_append_order(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        for i in range(5):
            ledger.append({"spec_key": "k", "i": i})
        assert [e["i"] for e in ledger.entries()] == list(range(5))
        assert len(ledger) == 5

    def test_missing_file_is_empty_history(self, tmp_path):
        ledger = RunLedger(tmp_path / "nope.jsonl")
        assert ledger.entries() == []
        assert ledger.latest("any") is None

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path)
        ledger.append({"spec_key": "good1"})
        with open(path, "a") as handle:
            handle.write('{"truncated": \n')
            handle.write("not json at all\n")
            handle.write('{"no_spec_key": 1}\n')
            handle.write("\n")
        ledger.append({"spec_key": "good2"})
        entries = ledger.entries()
        assert [e["spec_key"] for e in entries] == ["good1", "good2"]
        assert ledger.skipped == 3  # blank lines don't count

    def test_entries_for_prefix_and_latest(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append({"spec_key": "aaa111", "n": 0})
        ledger.append({"spec_key": "bbb222", "n": 1})
        ledger.append({"spec_key": "aaa111", "n": 2})
        assert [e["n"] for e in ledger.entries_for("aaa")] == [0, 2]
        assert ledger.latest("aaa")["n"] == 2
        grouped = ledger.by_spec_key()
        assert list(grouped) == ["aaa111", "bbb222"]
        assert len(grouped["aaa111"]) == 2


# ---------------------------------------------------------------------- #
def _append_burst(path, worker, count):
    ledger = RunLedger(path)
    for i in range(count):
        ledger.append({"spec_key": f"w{worker}", "i": i, "pad": "x" * 200})
    return worker


class TestConcurrentAppends:
    def test_process_pool_appends_yield_one_line_each(self, tmp_path):
        """Parallel appenders produce exactly one well-formed line per entry."""
        path = tmp_path / "concurrent.jsonl"
        n_workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_append_burst, path, worker, per_worker)
                for worker in range(n_workers)
            ]
            for future in futures:
                future.result()
        lines = path.read_text().splitlines()
        assert len(lines) == n_workers * per_worker
        parsed = [json.loads(line) for line in lines]  # every line well-formed
        ledger = RunLedger(path)
        assert len(ledger.entries()) == n_workers * per_worker
        assert ledger.skipped == 0
        # Each worker's entries survive complete and in its own order.
        for worker in range(n_workers):
            own = [e["i"] for e in parsed if e["spec_key"] == f"w{worker}"]
            assert own == list(range(per_worker))


# ---------------------------------------------------------------------- #
class TestSessionWiring:
    def test_session_records_runs(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        session = Session(ledger=ledger)
        spec = tiny_spec()
        result = session.run(spec)
        entries = ledger.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["kind"] == "run"
        assert entry["source"] == "run"
        assert entry["spec_key"] == spec_key(spec)
        assert entry["metrics"]["loss"] == pytest.approx(
            result.final_metrics["loss"]
        )
        assert entry["metrics"]["estimated_wallclock"] == pytest.approx(
            result.estimated_wallclock
        )
        assert entry["traffic"]["total_sent_elements"] > 0
        assert entry["host_seconds"] > 0
        assert entry["run"]["workload"] == "lm"
        assert entry["error"] is None

    def test_session_without_ledger_writes_nothing(self, tmp_path):
        session = Session()
        session.run(tiny_spec())
        assert session.ledger is None

    def test_ledger_entry_roundtrips_json(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        Session(ledger=ledger).run(tiny_spec())
        line = (tmp_path / "l.jsonl").read_text().strip()
        assert json.loads(line)["spec_key"]


class TestSweepWiring:
    def test_sweep_ledgers_every_cell(self, tmp_path):
        specs = [tiny_spec(seed=seed) for seed in (0, 1, 2)]
        ledger = RunLedger(tmp_path / "l.jsonl")
        report = run_sweep(specs, jobs=1, ledger=ledger)
        entries = ledger.entries()
        assert len(entries) == len(specs)
        assert {e["source"] for e in entries} == {"run"}
        assert sorted(e["spec_key"] for e in entries) == sorted(
            spec_key(s) for s in specs
        )
        assert len(report) == len(specs)

    def test_parallel_sweep_one_line_per_cell(self, tmp_path):
        specs = [tiny_spec(seed=seed) for seed in range(4)]
        ledger = RunLedger(tmp_path / "l.jsonl")
        run_sweep(specs, jobs=2, ledger=ledger)
        lines = (tmp_path / "l.jsonl").read_text().splitlines()
        assert len(lines) == len(specs)
        for line in lines:
            json.loads(line)
        assert len(ledger.entries()) == len(specs)
        assert ledger.skipped == 0

    def test_cache_hits_tagged_by_source(self, tmp_path):
        from repro.sweep import ResultCache

        specs = [tiny_spec(seed=seed) for seed in (0, 1)]
        cache = ResultCache(root=tmp_path / "cache")
        ledger = RunLedger(tmp_path / "l.jsonl")
        run_sweep(specs, jobs=1, cache=cache, ledger=ledger)
        run_sweep(specs, jobs=1, cache=cache, ledger=ledger)
        sources = [e["source"] for e in ledger.entries()]
        assert sources.count("run") == 2
        assert sources.count("cache") == 2

    def test_failed_cells_ledgered_with_error(self, tmp_path):
        good = tiny_spec(seed=0)
        # The attack's own constructor refuses the scale, inside the cell.
        bad = tiny_spec(robustness={"attack": "sign_flip", "attack_kwargs": {"scale": -1.0}})
        ledger = RunLedger(tmp_path / "l.jsonl")
        report = run_sweep([good, bad], jobs=1, ledger=ledger)
        assert report.counts()["error"] == 1
        entries = ledger.entries()
        assert len(entries) == 2
        errored = [e for e in entries if e["source"] == "error"]
        assert len(errored) == 1
        assert errored[0]["error"]


class TestCommittedBaseline:
    def test_canary_spec_key_matches_committed_baseline(self):
        """CI's regression gate re-runs this argv and looks its key up in
        baselines/ledger.jsonl; a drift of ``spec_key`` (a spec field added,
        removed or renamed) would orphan the baseline entry."""
        from pathlib import Path

        from repro.cli import spec_from_argv

        baseline = Path(__file__).resolve().parents[1] / "baselines" / "ledger.jsonl"
        (entry,) = RunLedger(baseline).entries()
        spec = spec_from_argv(
            ["train", "--workload", "lm", "--epochs", "1", "--max-iterations-per-epoch", "4"]
        )
        assert spec_key(spec) == entry["spec_key"]
        assert entry["spec_key"].startswith("2c51cc9558b3")
