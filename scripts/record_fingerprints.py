"""Record the numerics fingerprints that ``tests/test_fingerprints.py`` checks.

A fingerprint is a sha256 over what one smoke-scale run produces: its loss
series, its traffic summary, its modelled wall-clock
(``estimated_wallclock``) and its final metrics.  One run per workload
(``cv``, ``lm``, ``rec``) and schedule (the five execution models), all
with DEFT and seed 0 -- 15 runs, a few seconds.  The file also stores each
run's loss series (so another environment can compare them with a
tolerance), the sweep cache's ``CACHE_VERSION`` and the environment the
bits were recorded under (NumPy version, BLAS build and the BLAS core
picked at run time)::

    PYTHONPATH=src python scripts/record_fingerprints.py

Re-record only together with a ``CACHE_VERSION`` bump: a change that moves
these bits changes what a cached spec would produce.  The script refuses to
overwrite changed fingerprints recorded under the same ``CACHE_VERSION`` in
the same environment.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

import repro.api
from repro.sweep.cache import CACHE_VERSION

FINGERPRINTS = Path(__file__).resolve().parents[1] / "tests" / "fingerprints.json"
WORKLOADS = ("cv", "lm", "rec")
SCHEDULES = ("synchronous", "local_sgd", "async_bsp", "elastic", "gossip")
SEED = 0


def blas_core() -> str:
    """The core a DYNAMIC_ARCH OpenBLAS picked on this host ("" if unknown)."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return ""


def environment() -> dict:
    """What the bits depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name', '')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        build = ""
    return {"numpy": np.__version__, "blas": build, "blas_core": blas_core()}


def run_fingerprint(result) -> dict:
    losses = [float(value) for value in result.series("loss").values]
    payload = {
        "loss": [repr(value) for value in losses],
        "traffic": result.traffic,
        "estimated_wallclock": repr(float(result.estimated_wallclock)),
        "final": {key: repr(value) for key, value in result.final_metrics.items()},
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return {"sha256": digest, "loss": losses}


def compute_runs() -> dict:
    """``"workload/schedule"`` -> fingerprint for every recorded run."""
    session = repro.api.Session()
    runs = {}
    for workload in WORKLOADS:
        for schedule in SCHEDULES:
            spec = repro.api.RunSpec.from_dict(
                {
                    "workload": workload,
                    "scale": "smoke",
                    "seed": SEED,
                    "compression": {"sparsifier": "deft"},
                    "execution": {"model": schedule},
                }
            )
            runs[f"{workload}/{schedule}"] = run_fingerprint(session.run(spec))
    return runs


def changed_runs(recorded: dict, current: dict) -> list:
    """Names of the runs whose fingerprint differs (or exists on one side only)."""
    keys = set(recorded["runs"]) | set(current["runs"])
    return sorted(
        key
        for key in keys
        if recorded["runs"].get(key, {}).get("sha256") != current["runs"].get(key, {}).get("sha256")
    )


def main() -> int:
    current = {"cache_version": CACHE_VERSION, "environment": environment(), "runs": compute_runs()}
    if FINGERPRINTS.exists():
        recorded = json.loads(FINGERPRINTS.read_text())
        changed = changed_runs(recorded, current)
        same_setting = recorded["environment"] == current["environment"]
        if changed and same_setting and recorded["cache_version"] == CACHE_VERSION:
            print(
                f"refusing to re-record: {', '.join(changed)} changed while CACHE_VERSION is still "
                f"{CACHE_VERSION}; bump it in src/repro/sweep/cache.py first",
                file=sys.stderr,
            )
            return 1
    FINGERPRINTS.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(current['runs'])} fingerprints to {os.path.relpath(FINGERPRINTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
