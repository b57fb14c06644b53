"""CI entry point for the project lint (thin shim over ``repro lint``).

Runs the full rule set -- determinism, exception discipline, plugin
contracts, API drift, declared dependencies -- over the ``repro`` package
and exits non-zero on any unannotated finding::

    PYTHONPATH=src python scripts/lint.py
    PYTHONPATH=src python scripts/lint.py --json
    PYTHONPATH=src python scripts/lint.py src/repro/sweep  # per-file rules only

Equivalent to ``repro lint`` with the same arguments; kept as a script
so CI does not depend on an installed console entry point.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    repo_root = Path(__file__).resolve().parent.parent
    src = repo_root / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.devtools.runner import lint_main

    sys.exit(lint_main(prog="scripts/lint.py"))
