"""Lint driver: rule registry, file discovery, reporting.

``run_lint`` applies the per-file AST rules to every discovered source
file and, when enabled, the semi-static project rules (plugin contracts,
API drift, declared dependencies) once per invocation.  The CLI surface
lives here too so both ``repro lint`` and ``scripts/lint.py`` share one
implementation.

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.devtools.core import (
    DIRECTIVES,
    Finding,
    SourceModule,
    discover_files,
    load_module,
)
from repro.devtools.determinism import check_determinism
from repro.devtools.discipline import check_exception_discipline

__all__ = [
    "ALL_RULE_NAMES",
    "AST_RULES",
    "SEMISTATIC_RULES",
    "LintReport",
    "run_lint",
    "main",
]

#: Per-file rules: module -> findings.  ``check_determinism`` reports
#: under three names (wallclock / unseeded-rng / hostenv), so the mapping
#: here is driver -> the rule names it may emit.
AST_RULES: Dict[str, Callable[[SourceModule], List[Finding]]] = {
    "determinism": check_determinism,
    "discipline": check_exception_discipline,
}

_AST_RULE_NAMES = {
    "determinism": ("wallclock", "unseeded-rng", "hostenv"),
    "discipline": ("broad-except",),
}


def _semistatic_registry() -> Dict[str, Callable[[], List[Finding]]]:
    # Imported lazily: these rules import the plugin registry and the CLI,
    # which per-file linting of arbitrary paths must not require.
    from repro.devtools.api_drift import check_api_drift
    from repro.devtools.contracts import check_plugin_contracts
    from repro.devtools.dependencies import check_declared_dependencies

    return {
        "plugin-contract": check_plugin_contracts,
        "api-drift": check_api_drift,
        "undeclared-dependency": check_declared_dependencies,
    }


SEMISTATIC_RULES = ("plugin-contract", "api-drift", "undeclared-dependency")

ALL_RULE_NAMES = (
    "wallclock",
    "unseeded-rng",
    "hostenv",
    "broad-except",
    "pragma",
    "syntax",
) + SEMISTATIC_RULES


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules": list(self.rules_run),
            "findings": [f.to_dict() for f in sorted_findings(self.findings)],
        }


def sorted_findings(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


def default_root() -> Path:
    """The package directory ``repro lint`` scans when given no paths."""
    import repro

    return Path(repro.__file__).resolve().parent


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    rules: Optional[Sequence[str]] = None,
    include_semistatic: Optional[bool] = None,
    display_root: Optional[Path] = None,
) -> LintReport:
    """Run the lint and return a :class:`LintReport`.

    ``paths`` defaults to the installed ``repro`` package.  The
    semi-static rules run by default only on that default scan (or when
    named explicitly via ``rules``): they describe the project as a
    whole, not the files on the command line.  ``rules`` filters by rule
    name (drivers ``determinism`` / ``discipline`` or any emitted name).
    """
    explicit_paths = paths is not None and len(paths) > 0
    scan_root = default_root() if not explicit_paths else None
    scan_paths = [scan_root] if scan_root is not None else [Path(p) for p in paths or ()]
    if display_root is None:
        display_root = scan_root.parent.parent if scan_root is not None else Path.cwd()

    selected = set(rules) if rules else None

    def rule_enabled(*names: str) -> bool:
        return selected is None or bool(selected.intersection(names))

    if include_semistatic is None:
        include_semistatic = not explicit_paths or bool(
            selected and selected.intersection(SEMISTATIC_RULES)
        )

    report = LintReport()
    files = discover_files(scan_paths)
    report.files_scanned = len(files)

    ast_drivers = [
        (driver, fn)
        for driver, fn in AST_RULES.items()
        if rule_enabled(driver, *_AST_RULE_NAMES[driver])
    ]
    emit_pragma = rule_enabled("pragma")
    emit_syntax = rule_enabled("syntax")

    for path in files:
        module = load_module(path, root=display_root)
        if module.syntax_error is not None:
            if emit_syntax:
                report.findings.append(
                    Finding(module.display_path, 1, "syntax", module.syntax_error)
                )
            continue
        if emit_pragma:
            for line, message in module.pragma_errors:
                report.findings.append(
                    Finding(module.display_path, line, "pragma", message)
                )
        for _, fn in ast_drivers:
            report.findings.extend(fn(module))

    for driver, _ in ast_drivers:
        report.rules_run.extend(_AST_RULE_NAMES[driver])
    if emit_pragma:
        report.rules_run.append("pragma")
    if emit_syntax:
        report.rules_run.append("syntax")

    if include_semistatic:
        for name, fn in _semistatic_registry().items():
            if rule_enabled(name):
                report.findings.extend(fn())
                report.rules_run.append(name)

    report.findings = sorted_findings(report.findings)
    return report


def _build_argparser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Project-invariant static analysis over the repro package.",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package; "
        "explicit paths run the per-file rules only)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="NAME[,NAME...]",
        help="comma-separated rule filter (see --list-rules)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of file:line rule message lines",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule names and the pragma vocabulary, then exit",
    )
    return parser


def lint_main(argv: Optional[Sequence[str]] = None, prog: str = "repro lint") -> int:
    args = _build_argparser(prog).parse_args(argv)

    if args.list_rules:
        for name in ALL_RULE_NAMES:
            print(name)
        print()
        print("pragmas (suppress on the same line or the line above):")
        for directive, rule in sorted(DIRECTIVES.items()):
            print(f"  # repro: {directive}(<reason>)  -> suppresses {rule}")
        return 0

    rules = None
    if args.rules:
        rules = [name.strip() for name in args.rules.split(",") if name.strip()]
        unknown = set(rules) - set(ALL_RULE_NAMES) - set(AST_RULES)
        if unknown:
            print(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(ALL_RULE_NAMES)}",
                file=sys.stderr,
            )
            return 2

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"no such path: {path}", file=sys.stderr)
            return 2

    report = run_lint(paths=paths or None, rules=rules)

    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
            if report.findings
            else f"clean: {report.files_scanned} file(s), "
            f"{len(report.rules_run)} rule(s)"
        )
        print(summary)
    return 0 if report.ok else 1


main = lint_main
