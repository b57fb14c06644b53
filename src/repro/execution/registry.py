"""Execution-model registrations over the unified :mod:`repro.plugins` registry.

Declares the built-in schedules as :class:`~repro.plugins.ComponentSpec`
entries.  The capability flags carried here are all a schedule says about
what it can host: :func:`repro.plugins.combination_refusal` reads them to
refuse a run when its spec resolves, and resolution reads the defaults:

- ``synchronized_view``: whether all workers share an iteration (colluding
  attacks require it; ``async_bsp`` cannot provide it),
- ``exchanges_gradients``: whether gradient accumulators ever cross the
  wire (``elastic`` exchanges parameters, so accumulator attacks are inert),
- ``supports_momentum``: whether the optimizer's momentum/weight-decay
  knobs take effect (``elastic`` bypasses the optimizer),
- ``default_aggregator``: the aggregation rule a schedule runs with when
  the config leaves it unset (``async_bsp`` weighs pushes by age),
- ``uses_aggregator``: whether the configured aggregation rule is ever
  invoked (``gossip`` hard-codes the neighbourhood mean),
- ``requires_neighbor_topology``: whether the schedule exchanges over
  topology edges and therefore refuses the edge-less ``flat`` topology,
- ``default_topology``: the topology a schedule assumes when none is
  configured (``gossip`` defaults to ``ring``; everything else to the
  flat one-hop pricing).
"""

from __future__ import annotations

from repro.execution.async_bsp import AsyncBSPExecution
from repro.execution.base import ExecutionModel
from repro.execution.elastic import ElasticAveragingExecution
from repro.execution.gossip import GossipExecution
from repro.execution.local_sgd import LocalSGDExecution
from repro.execution.synchronous import SynchronousExecution
from repro.plugins import ComponentSpec, Kwarg, available_components, build_component, register_component

__all__ = ["build_execution_model", "available_execution_models"]

KIND = "execution"


def _register(name, builder, description, kwargs=(), **capabilities):
    register_component(
        ComponentSpec(
            kind=KIND,
            name=name,
            builder=builder,
            description=description,
            kwargs=tuple(kwargs),
            capabilities={
                "local_models": builder.has_local_models,
                "parameter_server": builder.uses_parameter_server,
                "synchronized_view": True,
                "exchanges_gradients": True,
                "supports_momentum": True,
                "default_aggregator": None,
                "uses_aggregator": True,
                "requires_neighbor_topology": False,
                "default_topology": None,
                **capabilities,
            },
        )
    )


_register(
    "synchronous",
    SynchronousExecution,
    "the paper's BSP loop (bit-identical to the pre-refactor trainer)",
)
_register(
    "local_sgd",
    LocalSGDExecution,
    "H dense local steps per worker, then one sparsified averaging round",
)
_register(
    "async_bsp",
    AsyncBSPExecution,
    "DOWNPOUR-style bounded-staleness push/pull against a parameter server",
    synchronized_view=False,
    default_aggregator="staleness_weighted_mean",
)
_register(
    "elastic",
    ElasticAveragingExecution,
    "EASGD-style elastic averaging around a server-held center variable",
    kwargs=(Kwarg("elastic_alpha", "float", None, "elastic force (None = 0.9 / n_workers)"),),
    exchanges_gradients=False,
    supports_momentum=False,
)
_register(
    "gossip",
    GossipExecution,
    "server-less neighbour averaging of sparse deltas over topology edges",
    supports_momentum=False,
    uses_aggregator=False,
    requires_neighbor_topology=True,
    default_topology="ring",
)


def build_execution_model(name: str, **kwargs) -> ExecutionModel:
    """Instantiate an execution model by name.

    Parameters
    ----------
    name:
        One of :func:`available_execution_models`.
    kwargs:
        The uniform knob set (``local_steps``, ``max_staleness``, ...); each
        model picks out the knobs it understands and ignores the rest, so
        callers can pass the whole :class:`~repro.api.ExecutionSpec` set.
    """
    return build_component(KIND, name, **kwargs)


def available_execution_models():
    """Sorted list of registered execution-model names."""
    return available_components(KIND)
