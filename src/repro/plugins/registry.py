"""The unified component registry.

One :class:`PluginRegistry` holds every pluggable component of the
reproduction, keyed by ``(kind, name)``.  The per-package registries
(:mod:`repro.sparsifiers.registry`, :mod:`repro.aggregators.registry`,
:mod:`repro.attacks.registry`, :mod:`repro.execution.registry`,
:mod:`repro.models.registry`) are thin shims over this module: they declare
their :class:`~repro.plugins.spec.ComponentSpec` entries here and re-export
the historical ``build_*`` / ``available_*`` helpers, so both the old import
paths and the old error messages keep working while the lookup, error and
description logic lives in exactly one place.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, List, Optional, Tuple

from repro.plugins.spec import ComponentSpec

__all__ = [
    "PluginRegistry",
    "REGISTRY",
    "register_component",
    "get_component",
    "build_component",
    "available_components",
    "component_kinds",
    "component_inventory",
    "load_builtin_components",
]

#: kind -> module whose import registers the built-in components of that kind.
_BUILTIN_MODULES: Dict[str, str] = {
    "sparsifier": "repro.sparsifiers.registry",
    "aggregator": "repro.aggregators.registry",
    "attack": "repro.attacks.registry",
    "execution": "repro.execution.registry",
    "model": "repro.models.registry",
    "topology": "repro.comm.registry",
}


class PluginRegistry:
    """Registry of :class:`ComponentSpec` entries keyed by ``(kind, name)``."""

    def __init__(self) -> None:
        self._specs: Dict[Tuple[str, str], ComponentSpec] = {}

    # ------------------------------------------------------------------ #
    def register(self, spec: ComponentSpec) -> ComponentSpec:
        key = (spec.kind, spec.name)
        if key in self._specs:
            raise KeyError(f"{spec.kind} {spec.name!r} is already registered")
        self._specs[key] = spec
        return spec

    def unregister(self, kind: str, name: str) -> None:
        """Remove one entry (test helper; built-ins are never unregistered)."""
        self._specs.pop((kind, name), None)

    # ------------------------------------------------------------------ #
    def kinds(self) -> List[str]:
        return sorted({kind for kind, _ in self._specs})

    def available(self, kind: str) -> List[str]:
        """Sorted names registered under ``kind``."""
        return sorted(name for k, name in self._specs if k == kind)

    def get(self, kind: str, name: str) -> ComponentSpec:
        """Look up a spec; unknown kinds and names raise the shared ``KeyError``."""
        spec = self._specs.get((kind, str(name)))
        if spec is None:
            spec = self._specs.get((kind, str(name).lower()))
        if spec is None:
            available = self.available(kind)
            if not available:
                raise KeyError(
                    f"unknown component kind {kind!r}; available kinds: {self.kinds()}"
                )
            raise KeyError(f"unknown {kind} {name!r}; available: {available}")
        return spec

    def build(self, kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
        return self.get(kind, name).build(*args, **kwargs)

    def inventory(self) -> Dict[str, List[dict]]:
        """JSON-able description of every registered component, by kind."""
        return {
            kind: [self.get(kind, name).to_dict() for name in self.available(kind)]
            for kind in self.kinds()
        }


#: The process-wide registry every component package registers into.
REGISTRY = PluginRegistry()


# ---------------------------------------------------------------------- #
# Module-level conveniences over the singleton.
# ---------------------------------------------------------------------- #
def register_component(spec: ComponentSpec) -> ComponentSpec:
    """Register one component in the shared registry."""
    return REGISTRY.register(spec)


def load_builtin_components(kind: Optional[str] = None) -> None:
    """Import the registry module(s) that declare the built-in components.

    Component registration happens as an import side effect of the five
    per-package registry modules; callers that enumerate or look up
    components without having imported those packages (the CLI's ``list`` /
    ``describe``, the API facade) call this first.
    """
    modules = [_BUILTIN_MODULES[kind]] if kind is not None else _BUILTIN_MODULES.values()
    for module in modules:
        import_module(module)


def get_component(kind: str, name: str) -> ComponentSpec:
    """Spec of one component, loading built-ins on demand."""
    if kind in _BUILTIN_MODULES:
        load_builtin_components(kind)
    return REGISTRY.get(kind, name)


def build_component(kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
    """Instantiate a component by kind and name."""
    return get_component(kind, name).build(*args, **kwargs)


def available_components(kind: str) -> List[str]:
    """Sorted names registered under ``kind``, loading built-ins on demand."""
    if kind in _BUILTIN_MODULES:
        load_builtin_components(kind)
    return REGISTRY.available(kind)


def component_kinds() -> List[str]:
    load_builtin_components()
    return REGISTRY.kinds()


def component_inventory() -> Dict[str, List[dict]]:
    """The full machine-readable component inventory (``repro list --json``)."""
    load_builtin_components()
    return REGISTRY.inventory()
