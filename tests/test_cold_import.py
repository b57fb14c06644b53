"""Cold-start guard: imports a run does not use stay off the import path.

``import repro.api`` and ``python -m repro list`` are the fixed start-up
cost of every run, CLI call and sweep worker.  scipy (one ``ndtri`` call in
ALIE and Gaussian-k), networkx (a test-only oracle) and the process-pool
machinery (only ``jobs > 1`` sweeps) must not be loaded by either.  Building
a run's task needs ``repro.experiments.config`` only, not the figure and
grid drivers or ``repro.analysis``.  Each probe runs in a fresh
interpreter, so nothing this test process imported can hide a regression.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.attacks.alie import ALittleIsEnoughAttack, _normal_quantile
from repro.sparsifiers.gaussiank import _gaussian_two_sided_quantile

#: Modules that must not appear in ``sys.modules`` after a cold start.
_HEAVY_MODULES = ("scipy", "networkx", "concurrent.futures.process")

_PROBES = {
    "import repro.api": "import repro.api",
    "python -m repro list": (
        "import contextlib, io, runpy\n"
        "sys.argv = ['repro', 'list']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
    ),
}


#: Building a task may load these of the experiment drivers' packages.
_TASK_MODULES = ("repro.experiments", "repro.experiments.config")


def _loaded_after(action: str) -> list:
    """Every module in ``sys.modules`` after ``action`` in a fresh interpreter."""
    code = f"import json, sys\n{action}\nprint(json.dumps(sorted(sys.modules)))\n"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_cold_start_loads_no_heavy_third_party_module(probe):
    assert [m for m in _loaded_after(_PROBES[probe]) if m in _HEAVY_MODULES] == []


def test_task_build_loads_no_experiment_driver():
    loaded = _loaded_after("import repro.api\nrepro.api.Session().task_for('lm', 'smoke', 0)")
    drivers = [
        m
        for m in loaded
        if m.startswith(("repro.experiments", "repro.analysis")) and m not in _TASK_MODULES
    ]
    assert "repro.experiments.config" in loaded
    assert drivers == []


# --------------------------------------------------------------------- #
# The lazily imported quantile helpers return scipy's ``ndtri`` bit for bit.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("density", [0.001, 0.01, 0.1])
def test_gaussiank_quantile_is_ndtri(density):
    special = pytest.importorskip("scipy.special")
    assert _gaussian_two_sided_quantile(density) == float(special.ndtri(1.0 - density / 2.0))


# (n, f) of the robustness grid and the ``sweep_smoke`` benchmark (8, 2),
# plus the CLI's documented 4-worker example and two larger clusters.
@pytest.mark.parametrize("n_workers,n_byzantine", [(8, 2), (4, 1), (16, 3), (32, 7)])
def test_alie_z_max_is_ndtri(n_workers, n_byzantine):
    special = pytest.importorskip("scipy.special")
    benign = n_workers - n_byzantine
    supporters = math.floor(n_workers / 2 + 1) - n_byzantine
    phi = (benign - supporters) / benign
    expected = float(special.ndtri(phi))
    assert _normal_quantile(phi) == expected
    attack = ALittleIsEnoughAttack(n_byzantine=n_byzantine)
    attack.setup(n_workers, n_gradients=4)
    assert attack._z_max() == (expected if expected > 0.0 else 1.0)
