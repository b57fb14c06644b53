"""Unified, capability-aware component registry.

Every pluggable axis of the reproduction -- sparsifiers, aggregators,
attacks, execution models, models -- registers its implementations here as
:class:`ComponentSpec` entries (name, kind, builder, kwargs schema,
capability flags).  The historical per-package registries remain importable
as thin shims, but enumeration (``repro list``), documentation (``repro
describe``), CLI ``key=value`` kwarg parsing and cross-component validation
(:mod:`repro.plugins.capabilities`) are all driven by the one registry in
this package.

Registering a new component takes one declaration::

    from repro.plugins import ComponentSpec, Kwarg, register_component

    register_component(ComponentSpec(
        kind="aggregator",
        name="my_rule",
        builder=MyRule,
        description="my robust rule",
        kwargs=(Kwarg("beta", "float", 0.5, "trade-off knob"),),
        capabilities={"requires_gather": True, "robust": True},
    ))

after which ``build_aggregator("my_rule", ...)``, the CLI's ``--aggregator``
choices, ``repro describe aggregator/my_rule`` and the capability validation
all pick it up.
"""

from repro.plugins.capabilities import (
    combination_refusal,
    default_aggregator_for,
    default_topology_for,
)
from repro.plugins.registry import (
    REGISTRY,
    PluginRegistry,
    available_components,
    build_component,
    component_inventory,
    component_kinds,
    get_component,
    load_builtin_components,
    register_component,
)
from repro.plugins.spec import ComponentSpec, Kwarg

__all__ = [
    "ComponentSpec",
    "Kwarg",
    "PluginRegistry",
    "REGISTRY",
    "register_component",
    "get_component",
    "build_component",
    "available_components",
    "component_kinds",
    "component_inventory",
    "load_builtin_components",
    "default_aggregator_for",
    "default_topology_for",
    "combination_refusal",
]
