"""API-drift check (rule ``api-drift``).

Run fields are declared once, in the ``repro.api.spec`` dataclasses, and
the ``repro train`` flags are generated from those declarations, so a field
and its flag cannot drift apart.  What can still drift is checked here:
``RunSpec.to_argv()`` must round-trip through ``spec_from_argv`` (the
parser's hand-written additions must not shadow or break a generated
flag), and the live ``repro.api.__all__`` / component inventory must match
the committed snapshot (``tests/fixtures/api_surface.json``) that
downstream consumers of ``repro list --json`` rely on.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.devtools.core import Finding

__all__ = ["check_api_drift"]

_SPEC_FILE = "src/repro/api/spec.py"
_FIXTURE_REL = "tests/fixtures/api_surface.json"


def _fixture_path() -> Path:
    import repro

    return Path(repro.__file__).resolve().parents[2] / _FIXTURE_REL


def check_api_drift(fixture_path: Optional[Path] = None) -> List[Finding]:
    import json

    import repro.api as api
    from repro.cli import spec_from_argv
    from repro.plugins.registry import component_inventory, load_builtin_components

    findings: List[Finding] = []
    load_builtin_components()

    # -- to_argv round-trip --------------------------------------------- #
    try:
        resolved = api.RunSpec().resolve()
        reparsed = spec_from_argv(resolved.to_argv()).resolve()
        if reparsed.to_dict() != resolved.to_dict():
            findings.append(
                Finding(
                    _SPEC_FILE, 1, "api-drift",
                    "RunSpec.to_argv() does not round-trip through "
                    "spec_from_argv: the CLI and the spec disagree on some field",
                )
            )
    except Exception as exc:
        findings.append(
            Finding(
                _SPEC_FILE, 1, "api-drift",
                f"RunSpec.to_argv() round-trip raised {exc!r}",
            )
        )

    # -- committed API snapshot ----------------------------------------- #
    snapshot = fixture_path if fixture_path is not None else _fixture_path()
    display = _FIXTURE_REL if fixture_path is None else str(fixture_path)
    if not snapshot.is_file():
        findings.append(
            Finding(
                display, 1, "api-drift",
                "API surface snapshot missing; regenerate with "
                "'PYTHONPATH=src python tests/test_api_surface.py'",
            )
        )
        return findings
    try:
        recorded = json.loads(snapshot.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        findings.append(
            Finding(display, 1, "api-drift", f"unreadable API snapshot: {exc}")
        )
        return findings
    live = {
        "api_all": sorted(api.__all__),
        "components": component_inventory(),
    }
    for key in ("api_all", "components"):
        if recorded.get(key) != live[key]:
            findings.append(
                Finding(
                    display, 1, "api-drift",
                    f"recorded {key!r} diverges from the live surface; if the "
                    "change is intentional regenerate with 'PYTHONPATH=src "
                    "python tests/test_api_surface.py'",
                )
            )
    return findings
