"""The lint framework: rules, pragmas, CLI surface and project cleanliness.

Fixture modules under ``tests/fixtures/lint/`` each seed one violation
class; the tests assert every fixture triggers exactly its rule, that
the pragma vocabulary suppresses it, and that the semi-static rules
(plugin contracts, API drift) both pass on the real
project and catch injected violations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import run_lint
from repro.devtools.core import DIRECTIVES, load_module, parse_pragmas
from repro.devtools.runner import ALL_RULE_NAMES, SEMISTATIC_RULES, lint_main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def rules_fired(paths, **kwargs):
    report = run_lint(paths=[Path(p) for p in paths], **kwargs)
    return report, {f.rule for f in report.findings}


# ---------------------------------------------------------------------- #
# Per-rule fixtures: each triggers exactly its rule.
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "fixture, rule, expected_lines",
    [
        ("det_wallclock.py", "wallclock", 5),
        ("det_unseeded.py", "unseeded-rng", 6),
        ("det_hostenv.py", "hostenv", 2),
        ("exc_silent.py", "broad-except", 4),
        ("pragma_bad.py", "pragma", 3),
    ],
)
def test_fixture_triggers_exactly_its_rule(fixture, rule, expected_lines):
    report, fired = rules_fired([FIXTURES / fixture])
    assert fired == {rule}
    assert len(report.findings) == expected_lines
    assert not report.ok


def test_wallclock_fixture_flags_every_flavour():
    report, _ = rules_fired([FIXTURES / "det_wallclock.py"])
    flagged = {f.line for f in report.findings}
    text = (FIXTURES / "det_wallclock.py").read_text()
    for marker in ("time.time()", "now()", "datetime.now()", "utcnow()", "date.today()"):
        assert marker in text
    # perf_counter/monotonic (the allowed_span function) must not fire.
    allowed_line = next(
        i for i, line in enumerate(text.splitlines(), 1) if "perf_counter" in line
    )
    assert allowed_line not in flagged


def test_discipline_accepts_reraise_record_and_narrow():
    report, _ = rules_fired([FIXTURES / "exc_silent.py"])
    text = (FIXTURES / "exc_silent.py").read_text().splitlines()
    for lineno in (f.line for f in report.findings):
        assert "fine" not in text[lineno - 1]


def test_pragmas_suppress_every_rule():
    report, fired = rules_fired([FIXTURES / "pragma_ok.py"])
    assert report.ok, [f.format() for f in report.findings]
    assert fired == set()


def test_pragma_reason_is_required_and_vocabulary_closed():
    report, _ = rules_fired([FIXTURES / "pragma_bad.py"])
    messages = " ".join(f.message for f in report.findings)
    assert "unknown pragma directive" in messages
    assert "non-empty reason" in messages
    assert "malformed pragma" in messages


def test_pragma_parser_details():
    pragmas, errors = parse_pragmas(
        "x = 1  # repro: allow-wallclock(trailing)\n"
        "# repro: isolation(standalone)\n"
        "y = 2\n"
    )
    assert not errors
    assert [(p.directive, p.standalone) for p in pragmas] == [
        ("allow-wallclock", False),
        ("isolation", True),
    ]
    module = load_module(FIXTURES / "pragma_ok.py")
    # A standalone pragma governs the next line, a trailing one its own.
    assert any(p.standalone for p in module.pragmas)
    assert any(not p.standalone for p in module.pragmas)


def test_directive_vocabulary_is_closed():
    assert set(DIRECTIVES) == {
        "allow-wallclock",
        "allow-unseeded",
        "allow-hostenv",
        "isolation",
    }


# ---------------------------------------------------------------------- #
# Semi-static rules.
# ---------------------------------------------------------------------- #
def test_plugin_contracts_validate_all_six_kinds():
    from repro.devtools.contracts import check_plugin_contracts
    from repro.plugins.registry import _BUILTIN_MODULES, component_kinds, load_builtin_components

    load_builtin_components()
    assert len(_BUILTIN_MODULES) == 6
    assert sorted(_BUILTIN_MODULES) == component_kinds()
    assert check_plugin_contracts() == []


def test_plugin_contracts_catch_bad_kwarg_and_capability():
    from repro.devtools.contracts import check_plugin_contracts
    from repro.plugins.registry import REGISTRY
    from repro.plugins.spec import ComponentSpec, Kwarg

    def builder(n_byzantine=0):
        return None

    spec = ComponentSpec(
        kind="aggregator",
        name="lint_test_bogus",
        builder=builder,
        description="deliberately broken registration",
        kwargs=(Kwarg("no_such_param", "int", None, "not in the signature"),),
        capabilities={"definitely_not_a_capability": True},
    )
    REGISTRY.register(spec)
    try:
        findings = check_plugin_contracts()
    finally:
        REGISTRY.unregister("aggregator", "lint_test_bogus")
    messages = [f.message for f in findings]
    assert any("no_such_param" in m for m in messages)
    assert any("definitely_not_a_capability" in m for m in messages)
    assert check_plugin_contracts() == []


def test_capability_vocabulary_covers_every_declared_flag():
    from repro.plugins.capabilities import CAPABILITY_VOCABULARY
    from repro.plugins.registry import (
        available_components,
        component_kinds,
        get_component,
        load_builtin_components,
    )

    load_builtin_components()
    declared = {
        flag
        for kind in component_kinds()
        for name in available_components(kind)
        for flag in get_component(kind, name).capabilities
    }
    assert declared <= set(CAPABILITY_VOCABULARY)


def test_undeclared_dependency_fixture_flags_exactly_the_undeclared_imports():
    from repro.devtools.dependencies import check_declared_dependencies

    project = FIXTURES / "deps"
    findings = check_declared_dependencies(source_root=project / "src" / "fixturepkg")
    assert {f.rule for f in findings} == {"undeclared-dependency"}
    flagged = {f.message.split("'")[1] for f in findings}
    assert flagged == {"networkx", "yaml", "pandas"}
    assert all(f.path == "src/fixturepkg/module.py" for f in findings)


def test_undeclared_dependency_reads_install_requires_without_executing(tmp_path):
    from repro.devtools.dependencies import check_declared_dependencies, declared_requirements

    assert declared_requirements(FIXTURES / "deps" / "setup.py") == {"numpy", "scipy"}
    missing = check_declared_dependencies(
        source_root=FIXTURES / "deps" / "src" / "fixturepkg", setup_path=tmp_path / "setup.py"
    )
    assert [f.rule for f in missing] == ["undeclared-dependency"]
    assert "setup.py not found" in missing[0].message


def test_project_declares_every_third_party_import():
    from repro.devtools.dependencies import check_declared_dependencies, declared_requirements
    from repro.devtools.runner import default_root

    assert check_declared_dependencies() == []
    declared = declared_requirements(default_root().parents[1] / "setup.py")
    # Topology hop counts are an in-house BFS; networkx is a test-only
    # oracle, so declaring it would let it back onto the import path.
    assert "networkx" not in declared
    assert "scipy" in declared


def test_api_drift_clean_and_catches_stale_snapshot(tmp_path, monkeypatch):
    from repro.api import RunSpec
    from repro.devtools.api_drift import check_api_drift

    assert check_api_drift() == []

    # A parser that loses a field on the way back breaks the round-trip.
    with monkeypatch.context() as patch:
        patch.setattr("repro.cli.spec_from_argv", lambda argv: RunSpec(seed=1))
        broken = check_api_drift()
    assert [f.rule for f in broken] == ["api-drift"]
    assert "round-trip" in broken[0].message

    stale = tmp_path / "api_surface.json"
    stale.write_text(json.dumps({"api_all": ["nothing"], "components": {}}))
    findings = check_api_drift(fixture_path=stale)
    assert {f.rule for f in findings} == {"api-drift"}
    assert len(findings) == 2  # api_all and components both diverge

    missing = check_api_drift(fixture_path=tmp_path / "no_such.json")
    assert any("snapshot missing" in f.message for f in missing)


# ---------------------------------------------------------------------- #
# Driver and CLI surface.
# ---------------------------------------------------------------------- #
def test_default_scan_is_clean():
    report = run_lint()
    assert report.ok, "\n".join(f.format() for f in report.findings)
    assert report.files_scanned > 100
    assert set(SEMISTATIC_RULES) <= set(report.rules_run)


def test_explicit_paths_skip_semistatic_rules():
    report, _ = rules_fired([FIXTURES / "pragma_ok.py"])
    assert not set(SEMISTATIC_RULES) & set(report.rules_run)


def test_rule_filter():
    report, fired = rules_fired([FIXTURES / "det_wallclock.py"], rules=["broad-except"])
    assert fired == set()
    report, fired = rules_fired([FIXTURES / "det_wallclock.py"], rules=["wallclock"])
    assert fired == {"wallclock"}


def test_lint_main_exit_codes_and_text_output(capsys):
    assert lint_main([str(FIXTURES / "pragma_ok.py")]) == 0
    assert lint_main([str(FIXTURES / "det_wallclock.py")]) == 1
    out = capsys.readouterr().out
    assert "det_wallclock.py:" in out and " wallclock " in out
    assert lint_main(["--rules", "no-such-rule"]) == 2
    assert lint_main(["/no/such/path.py"]) == 2


def test_lint_json_schema(capsys):
    assert lint_main(["--json", str(FIXTURES / "exc_silent.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"ok", "files_scanned", "rules", "findings"}
    assert payload["ok"] is False
    assert payload["files_scanned"] == 1
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "rule", "message"}
        assert finding["rule"] == "broad-except"
        assert isinstance(finding["line"], int)


def test_cli_verb_dispatch(capsys):
    from repro.cli import main

    assert main(["lint", str(FIXTURES / "pragma_ok.py")]) == 0
    capsys.readouterr()
    assert main(["lint", "--json", str(FIXTURES / "det_hostenv.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "hostenv"
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ALL_RULE_NAMES:
        assert name in out
    for directive in DIRECTIVES:
        assert directive in out
