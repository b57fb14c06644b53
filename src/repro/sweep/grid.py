"""Grid declarations and their expansion into resolved :class:`RunSpec`\\ s.

A *grid* is a JSON-able mapping describing many runs at once.  Three forms
compose (all optional, all mergeable in one declaration):

``specs``
    An explicit list of :class:`~repro.api.RunSpec` dicts.  Each entry is
    deep-merged over ``base``, so common settings are stated once.

``base`` + ``axes``
    A cartesian product.  ``base`` is one RunSpec dict; ``axes`` maps
    *dotted spec paths* (``"robustness.aggregator"``, ``"seed"``,
    ``"compression.sparsifier"``) to lists of values.  Every combination of
    axis values is deep-set into ``base`` and becomes one cell.

Inventory-derived axes
    An axis value may be the mapping ``{"components": "<kind>"}`` (or the
    shorthand string ``"*"`` for the axis paths with a known component
    kind), which expands to every registered component of that kind -- the
    same machine-readable inventory ``repro list --json`` prints.  Grids
    written this way automatically pick up newly registered components.

Expansion resolves every cell (presets filled) and, by default, prunes
combinations the centralized capability matrix refuses
(:func:`repro.plugins.combination_refusal`) instead of letting each cell
fail at run time; the dropped cells and their refusal reasons are reported
alongside the valid specs.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.api.spec import RunSpec
from repro.plugins import (
    available_components,
    combination_refusal,
    load_builtin_components,
)

__all__ = ["GridExpansion", "PrunedCell", "expand_grid", "load_grid", "spec_refusal"]

#: Dotted axis paths whose ``"*"`` shorthand has an unambiguous component
#: kind behind it.
_PATH_KINDS: Dict[str, str] = {
    "compression.sparsifier": "sparsifier",
    "robustness.aggregator": "aggregator",
    "robustness.attack": "attack",
    "execution.model": "execution",
}


@dataclass(frozen=True)
class PrunedCell:
    """One grid cell the capability matrix refused, and why."""

    spec: RunSpec
    reason: str


@dataclass
class GridExpansion:
    """The outcome of expanding one grid declaration."""

    #: Resolved, validated specs in deterministic declaration order.
    specs: List[RunSpec] = field(default_factory=list)
    #: Cells dropped up front by the capability matrix.
    pruned: List[PrunedCell] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)


def _deep_merge(base: Mapping[str, Any], overlay: Mapping[str, Any]) -> Dict[str, Any]:
    """Recursively merge ``overlay`` over ``base`` (dicts merge, rest replaces)."""
    out: Dict[str, Any] = {k: v for k, v in base.items()}
    for key, value in overlay.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), Mapping):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _deep_set(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``value`` at a dotted ``path``, creating intermediate dicts."""
    keys = path.split(".")
    node = data
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def _axis_values(path: str, declared: Any) -> List[Any]:
    """Concrete values of one axis (inventory-derived axes expand here)."""
    if declared == "*":
        kind = _PATH_KINDS.get(path)
        if kind is None:
            raise ValueError(
                f"axis {path!r} has no component kind behind it; '*' is only "
                f"valid for {sorted(_PATH_KINDS)} -- list the values explicitly"
            )
        return list(available_components(kind))
    if isinstance(declared, Mapping):
        kind = declared.get("components")
        if not kind:
            raise ValueError(
                f"axis {path!r}: a mapping axis must be {{'components': '<kind>'}}, "
                f"got {dict(declared)!r}"
            )
        return list(available_components(kind))
    if isinstance(declared, (list, tuple)):
        if not declared:
            raise ValueError(f"axis {path!r} has no values")
        return list(declared)
    raise ValueError(
        f"axis {path!r} must be a list of values, '*', or "
        f"{{'components': '<kind>'}}; got {declared!r}"
    )


def spec_refusal(spec: RunSpec) -> Optional[str]:
    """The capability matrix's refusal reason for a spec, or ``None``.

    Exception-free: the capability-driven rules (group arithmetic,
    attack/schedule compatibility, optimizer-knob support, robust-norms
    support) are evaluated directly from the declared capabilities, before
    any resolution or construction.  An unresolved ``aggregator=None`` is
    read as the execution model's declared default, exactly as
    ``resolve()`` fills it.
    """
    return combination_refusal(**spec.combination())


def expand_grid(grid: Mapping[str, Any], *, prune: Optional[bool] = None) -> GridExpansion:
    """Expand one grid declaration into resolved specs.

    ``prune`` overrides the declaration's ``"prune_invalid"`` key (default
    true).  With pruning off, a refused cell raises exactly the
    ``ValueError`` its ``resolve()`` would raise -- useful for catching
    typos in hand-written grids.
    """
    load_builtin_components()
    grid = dict(grid)
    unknown = set(grid) - {"base", "axes", "specs", "prune_invalid"}
    if unknown:
        raise ValueError(
            f"unknown grid keys {sorted(unknown)}; "
            "expected base/axes/specs/prune_invalid"
        )
    if prune is None:
        prune = bool(grid.get("prune_invalid", True))
    base = dict(grid.get("base") or {})
    axes = dict(grid.get("axes") or {})
    explicit = list(grid.get("specs") or [])
    if not axes and not explicit:
        # A bare base is a one-cell grid.
        explicit = [{}] if base else []
    if not explicit and not axes:
        raise ValueError("empty grid: declare 'specs', 'axes' or a 'base'")

    cell_dicts: List[Dict[str, Any]] = [
        _deep_merge(base, overlay) for overlay in explicit
    ]
    if axes:
        paths = sorted(axes)
        value_lists = [_axis_values(path, axes[path]) for path in paths]
        for combo in itertools.product(*value_lists):
            # Each cell gets its own deep copy: _deep_set mutates nested
            # dicts in place, which must never leak across cells.
            cell = copy.deepcopy(base)
            for path, value in zip(paths, combo):
                _deep_set(cell, path, value)
            cell_dicts.append(cell)

    expansion = GridExpansion()
    for cell in cell_dicts:
        spec = RunSpec.from_dict(cell)
        if prune:
            reason = spec_refusal(spec)
            if reason is not None:
                expansion.pruned.append(PrunedCell(spec=spec, reason=reason))
                continue
        # resolve() re-runs the full matrix plus the kwargs schemas; after
        # pruning, anything it still refuses is a malformed grid (typo'd
        # kwargs, bad density, ...) and should raise, not be swallowed.
        expansion.specs.append(spec.resolve())
    return expansion


def load_grid(path) -> Dict[str, Any]:
    """Read a grid declaration from a JSON file."""
    text = Path(path).read_text()
    grid = json.loads(text)
    if not isinstance(grid, dict):
        raise ValueError(f"grid file {path} must contain a JSON object, got {type(grid).__name__}")
    return grid
