"""Numerics fingerprints: a change to what a run computes cannot land silently.

``tests/fingerprints.json`` holds, for ``cv``, ``lm`` and ``rec`` at smoke
scale under each of the five schedules (DEFT, seed 0), a sha256 over the
loss series, the traffic summary, the modelled wall-clock and the final
metrics, together with the ``CACHE_VERSION`` and the environment (NumPy
version, BLAS build, BLAS core) it was recorded under.  The test re-runs
all 15 and names every run whose bits moved.  A change that moves them
must bump ``CACHE_VERSION`` (``src/repro/sweep/cache.py``) -- cached sweep
results of the old code are stale -- and re-record the file with
``scripts/record_fingerprints.py``, which refuses to overwrite changed
fingerprints under an unchanged ``CACHE_VERSION``.

Bits depend on the BLAS kernel, so on an environment other than the
recorded one the test compares only the loss series, with relative
tolerance :data:`RTOL`, and says so in a warning.
"""

from __future__ import annotations

import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.sweep.cache import CACHE_VERSION

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

#: Relative tolerance on the loss series when the environment differs.
#: Rounding-level changes (a float32 GEMM in another memory layout, or done
#: in float64 and rounded) moved the recorded loss series by at most 5e-8
#: relative, so this leaves a 200x margin for another BLAS kernel.
RTOL = 1e-5


def _recorder():
    spec = importlib.util.spec_from_file_location("record_fingerprints", ROOT / "scripts" / "record_fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDER = _recorder()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FINGERPRINTS.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return {"environment": RECORDER.environment(), "runs": RECORDER.compute_runs()}


def test_every_workload_and_schedule_is_recorded(recorded):
    expected = {f"{w}/{s}" for w in RECORDER.WORKLOADS for s in RECORDER.SCHEDULES}
    assert set(recorded["runs"]) == expected
    assert len(expected) == 15


def test_fingerprints_are_unchanged(recorded, current):
    if current["environment"] != recorded["environment"]:
        warnings.warn(
            f"environment {current['environment']} differs from the recorded "
            f"{recorded['environment']}: comparing loss series with rtol={RTOL}, not bits"
        )
        drifted = [
            key
            for key, run in recorded["runs"].items()
            if len(run["loss"]) != len(current["runs"][key]["loss"])
            or not np.allclose(current["runs"][key]["loss"], run["loss"], rtol=RTOL, atol=0.0)
        ]
        assert not drifted, f"loss series beyond rtol={RTOL}: {', '.join(drifted)}"
        return
    changed = RECORDER.changed_runs(recorded, current)
    if recorded["cache_version"] == CACHE_VERSION:
        assert not changed, (
            f"fingerprints changed while CACHE_VERSION did not: {', '.join(changed)}. "
            "A change that moves a run's bits must bump CACHE_VERSION "
            "(src/repro/sweep/cache.py) and re-record scripts/record_fingerprints.py"
        )
    assert recorded["cache_version"] == CACHE_VERSION, (
        f"CACHE_VERSION is {CACHE_VERSION} but the fingerprints were recorded under "
        f"{recorded['cache_version']}; re-record them with scripts/record_fingerprints.py"
        + (f" (changed: {', '.join(changed)})" if changed else "")
    )


def test_recorder_names_a_changed_run(recorded):
    altered = json.loads(json.dumps(recorded))
    altered["runs"]["lm/gossip"]["sha256"] = "0" * 64
    del altered["runs"]["rec/elastic"]
    assert RECORDER.changed_runs(recorded, altered) == ["lm/gossip", "rec/elastic"]
