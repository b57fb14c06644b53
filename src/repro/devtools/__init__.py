"""Project-invariant static analysis (``repro lint``).

The repo's headline guarantees -- spec-addressed cache hits, the ledger
regression gate -- rest on invariants that used to be enforced only by
convention: no wall-clock in priced or cached paths, every broad
``except`` a deliberate isolation point, plugin registrations that match
their builders.  This package makes those invariants machine-checked.

Rules
-----
``wallclock`` / ``unseeded-rng`` / ``hostenv``
    The determinism lint: forbid ``time.time()`` / ``datetime.now()``,
    unseeded ``random`` / ``np.random`` draws and ``os.cpu_count()``.
``broad-except``
    Exception discipline: a broad handler must re-raise, use the bound
    error, or carry an ``isolation`` pragma.
``pragma``
    Malformed suppression pragmas are themselves findings.
``plugin-contract``
    Every registered :class:`~repro.plugins.ComponentSpec` matches its
    builder signature, draws capabilities from the closed vocabulary and
    round-trips through ``describe``.
``api-drift``
    ``RunSpec.to_argv`` round-trips through the train parser (whose spec
    flags are generated from the spec fields) and the live API surface
    matches ``tests/fixtures/api_surface.json``.
``undeclared-dependency``
    Every third-party module imported under the package is declared in
    ``setup.py``'s ``install_requires``.

Findings are suppressed with ``# repro: <directive>(<reason>)`` pragmas
on the offending line or the comment line directly above it; see
:data:`~repro.devtools.core.DIRECTIVES` for the vocabulary.
"""

from repro.devtools.core import DIRECTIVES, Finding, Pragma, SourceModule
from repro.devtools.runner import (
    ALL_RULE_NAMES,
    AST_RULES,
    SEMISTATIC_RULES,
    LintReport,
    run_lint,
)

__all__ = [
    "ALL_RULE_NAMES",
    "AST_RULES",
    "SEMISTATIC_RULES",
    "DIRECTIVES",
    "Finding",
    "LintReport",
    "Pragma",
    "SourceModule",
    "run_lint",
]
