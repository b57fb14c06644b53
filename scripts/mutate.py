"""Mutation audit: does the test suite kill each one-line corruption of DEFT?

Each mutant in ``scripts/mutants.json`` is a ``file``/``old``/``new`` text
edit plus the paper rule it breaks.  For every mutant the script checks
that ``old`` occurs exactly once, writes the mutated file, runs a pytest
selection (``tests/ bench/`` by default), restores the file and records
whether the suite failed ("killed") or passed ("survives").  The unmutated
tree is run first: a selection that already fails would kill every mutant
and prove nothing.

The script edits source files in place, so run it on a scratch copy::

    git clone . /tmp/repro-mutate
    python scripts/mutate.py --root /tmp/repro-mutate
    python scripts/mutate.py --root /tmp/repro-mutate tests/test_deft_k_assignment.py

It prints a Markdown kill table and exits 1 if any mutant survives.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_selection(root: Path, selection) -> int:
    """Exit status of ``pytest -x -q`` over ``selection`` inside ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("selection", nargs="*", default=["tests/", "bench/"], help="pytest paths (default: tests/ bench/)")
    parser.add_argument("--root", type=Path, default=HERE.parent, help="checkout to mutate (default: this one)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    mutants = json.loads((HERE / "mutants.json").read_text(encoding="utf-8"))
    if run_selection(root, args.selection) != 0:
        print(f"the unmutated tree already fails {' '.join(args.selection)}", file=sys.stderr)
        return 2

    rows = []
    for mutant in mutants:
        path = root / mutant["file"]
        original = path.read_text(encoding="utf-8")
        count = original.count(mutant["old"])
        if count != 1:
            raise SystemExit(f"mutant {mutant['name']}: old text matches {count} times in {mutant['file']}")
        start = time.perf_counter()
        try:
            path.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            status = run_selection(root, args.selection)
        finally:
            path.write_text(original, encoding="utf-8")
        # pytest exits 1 when a test failed; anything else (2-5) means the
        # run itself broke, which kills nothing.
        verdict = {0: "survives", 1: "killed"}.get(status, f"error (pytest exit {status})")
        rows.append((mutant, verdict, time.perf_counter() - start))
        print(f"{mutant['name']}: {verdict}", file=sys.stderr, flush=True)

    print(f"| mutant | paper rule it breaks | `{' '.join(args.selection)}` | seconds |")
    print("|---|---|---|---:|")
    for mutant, verdict, seconds in rows:
        print(f"| `{mutant['name']}` ({mutant['file']}) | {mutant['rule']} | {verdict} | {seconds:.0f} |")
    return 0 if all(verdict == "killed" for _, verdict, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
