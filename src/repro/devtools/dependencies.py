"""Dependency lint (rule ``undeclared-dependency``).

Every third-party module the package imports must be a distribution that
``setup.py`` lists in ``install_requires``; otherwise a clean
``pip install .`` yields a package that fails at import time.  The rule
walks every absolute import under the package -- at module scope or inside
a function, since a lazy import is still a runtime dependency -- and flags
each whose top-level module is neither standard library, nor the package
itself, nor declared.  ``setup.py`` is read as an AST, never executed;
distribution names are compared case-insensitively with ``-`` read as
``_``, so a distribution must share its import name to count as declared.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.devtools.core import Finding, discover_files, load_module

__all__ = ["check_declared_dependencies", "declared_requirements"]

_REQUIREMENT_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _normalise(name: str) -> str:
    return name.lower().replace("-", "_")


def declared_requirements(setup_path: Path) -> Set[str]:
    """Normalised names of the distributions in ``install_requires``."""
    tree = ast.parse(setup_path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if keyword.arg == "install_requires":
                requirements = ast.literal_eval(keyword.value)
                return {
                    _normalise(_REQUIREMENT_NAME.match(req.strip()).group(0))
                    for req in requirements
                }
    return set()


def _imported_roots(tree: ast.Module):
    """``(line, top-level module)`` of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            yield node.lineno, node.module.split(".")[0]


def check_declared_dependencies(
    source_root: Optional[Path] = None, setup_path: Optional[Path] = None
) -> List[Finding]:
    """Findings for imports of undeclared third-party modules.

    ``source_root`` is the package directory (default: the installed
    ``repro`` package) and ``setup_path`` the ``setup.py`` declaring its
    requirements (default: two levels above the package, the ``src``
    layout's project root).
    """
    if source_root is None:
        from repro.devtools.runner import default_root

        source_root = default_root()
    project_root = source_root.parent.parent
    if setup_path is None:
        setup_path = project_root / "setup.py"
    if not setup_path.is_file():
        return [
            Finding(
                str(setup_path), 1, "undeclared-dependency",
                "setup.py not found: cannot check install_requires",
            )
        ]
    declared = declared_requirements(setup_path)
    findings: List[Finding] = []
    for path in discover_files([source_root]):
        module = load_module(path, root=project_root)
        if module.tree is None:
            continue
        for line, root in _imported_roots(module.tree):
            if root == source_root.name or root in sys.stdlib_module_names:
                continue
            if _normalise(root) not in declared:
                findings.append(
                    Finding(
                        module.display_path, line, "undeclared-dependency",
                        f"third-party module {root!r} is imported but not declared "
                        f"in install_requires of {setup_path.name}; a clean "
                        "'pip install .' cannot import this module",
                    )
                )
    return findings
