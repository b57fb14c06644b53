"""Capability-driven cross-component validation.

The rules governing which components may be combined -- worker/Byzantine
arithmetic, elastic rejecting momentum and gradient attacks, async
rejecting colluding attacks and defaulting to the staleness-weighted
aggregator -- are each a function of the *declared capabilities* of
the registered components, stated once here as one predicate,
:func:`combination_refusal`.  :meth:`repro.api.RunSpec.validate` raises its
reason when a spec resolves, and the sweep engine and the experiment grids
prune cells by it, so every entry point -- CLI, Python API, sweeps -- asks
the same question once.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.plugins.registry import get_component

__all__ = [
    "CAPABILITY_VOCABULARY",
    "default_aggregator_for",
    "default_topology_for",
    "combination_refusal",
]


#: The closed capability vocabulary.  Every flag a ``ComponentSpec`` may
#: declare is listed here with what it means; :func:`combination_refusal`
#: consumes a subset, the rest drive defaults, pruning and documentation.
#: ``repro lint``'s plugin-contract rule rejects registrations that declare
#: flags outside this table and cross-checks that every flag this module
#: reads is listed, so the vocabulary cannot drift in either direction.
CAPABILITY_VOCABULARY: Mapping[str, str] = {
    # -- attacks -------------------------------------------------------- #
    "colluding": "attack needs a synchronized view of every worker's update",
    "corrupts_data": "attack poisons training data rather than gradients",
    "deterministic_oracle": "attack output is a pure function of benign updates",
    # -- execution models ----------------------------------------------- #
    "default_aggregator": "aggregation rule the schedule runs with when none is chosen",
    "default_topology": "topology the schedule assumes when none is configured",
    "exchanges_gradients": "workers put gradient accumulators on the wire",
    "local_models": "every worker holds its own model replica",
    "parameter_server": "exchanges route through a parameter server",
    "requires_gather": "aggregation needs every contribution gathered to one rank",
    "requires_neighbor_topology": "schedule exchanges deltas over topology edges",
    "staleness_aware": "schedule weighs contributions by their age",
    "supports_momentum": "optimizer momentum/weight-decay reach the update",
    "synchronized_view": "all workers observe the same group state per round",
    "uses_aggregator": "schedule invokes the pluggable aggregation rule",
    "worker_idling": "stragglers leave workers idle under this schedule",
    # -- sparsifiers ---------------------------------------------------- #
    "gradient_buildup": "un-sent coordinates accumulate locally across rounds",
    "supports_robust_norms": "sparsifier can coordinate shared layer norms",
    # -- aggregators ---------------------------------------------------- #
    "needs_hyperparameter_tuning": "rule has knobs that materially change results",
    "robust": "aggregation rule tolerates Byzantine contributions",
    # -- topologies ----------------------------------------------------- #
    "neighbor_graph": "topology defines per-rank neighbour edges",
    "one_hop_server": "topology prices an unplaced server at one hop",
}


def default_aggregator_for(execution: str) -> str:
    """The aggregation rule an execution model runs with when none is chosen.

    Declared by the execution model's ``default_aggregator`` capability
    (``async_bsp`` weighs pushes by age, so it declares
    ``staleness_weighted_mean``); everything else defaults to the paper's
    plain ``mean``.
    """
    spec = get_component("execution", execution)
    return spec.capability("default_aggregator") or "mean"


def default_topology_for(execution: str) -> Optional[str]:
    """The topology a schedule assumes when none is configured.

    Declared by the execution model's ``default_topology`` capability
    (``gossip`` averages over neighbour edges, so it declares ``ring``);
    everything else defaults to ``None`` -- the flat alpha-beta pricing
    with every link one hop.
    """
    spec = get_component("execution", execution)
    return spec.capability("default_topology")


def combination_refusal(
    *,
    execution: str,
    attack: str,
    aggregator: Optional[str] = None,
    sparsifier: Optional[str] = None,
    n_workers: int = 1,
    n_byzantine: int = 0,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    topology: Optional[str] = None,
    server_rank: Optional[int] = None,
    sparsifier_kwargs: Optional[Mapping[str, Any]] = None,
) -> Optional[str]:
    """Why the capability matrix refuses a run, or ``None`` if it may run.

    Exception-free, so grid drivers can prune refused cells and report the
    reason; :meth:`repro.api.RunSpec.validate` raises the reason as a
    ``ValueError``.  Unknown component and topology names raise
    ``KeyError`` and malformed topology strings ``ValueError`` -- a typo is
    a bug, not a prunable cell.  ``topology=None`` reads as the schedule's
    declared ``default_topology``, exactly as ``resolve()`` fills it.
    """
    # Imported lazily so repro.plugins stays importable while the comm
    # package's own registry module (which imports repro.plugins back)
    # is still initialising.
    from repro.comm.topology import parse_topology

    if n_byzantine < 0:
        return f"n_byzantine must be non-negative, got {n_byzantine}"
    if n_byzantine >= n_workers and n_byzantine > 0:
        return f"n_byzantine={n_byzantine} leaves no benign worker out of {n_workers}"

    attack_spec = get_component("attack", attack)
    caps = get_component("execution", execution).capabilities
    if n_byzantine:
        # Colluding attacks need every worker's accumulator at one instant,
        # which an asynchronous schedule never has (synchronized_view).
        if attack_spec.capability("colluding", False) and not caps.get(
            "synchronized_view", True
        ):
            return (
                f"the {attack_spec.name!r} attack needs a synchronized group view; "
                f"it is not supported under {execution}"
            )
        # Accumulator attacks corrupt what goes on the wire; a schedule that
        # exchanges parameters instead (elastic) would silently neutralise
        # them (exchanges_gradients).
        if not attack_spec.capability("corrupts_data", False) and not caps.get(
            "exchanges_gradients", True
        ):
            return (
                f"the {attack_spec.name!r} attack corrupts gradient accumulators, "
                f"which the {execution} schedule never exchanges; use a "
                "data-poisoning attack or another execution model"
            )

    # Elastic updates the center and gossip applies the averaged delta to
    # the local copies directly, never through the optimizer, so its
    # momentum/weight_decay would be silently dropped (supports_momentum).
    if (momentum or weight_decay) and not caps.get("supports_momentum", True):
        return (
            f"the {execution} schedule ignores momentum/weight_decay; "
            "configure them to 0 or pick another execution model"
        )

    # Topology and server placement:
    # - parameter-server schedules refuse graph topologies without an
    #   explicit server_rank (only flat prices the server at one hop from
    #   everywhere without placing it),
    # - server-less schedules refuse a server_rank (there is no server to
    #   place),
    # - neighbour-exchanging schedules (gossip) refuse topologies without a
    #   neighbour graph,
    # - a placement must fit the cluster (rank in range, fat_node
    #   dimensions matching n_workers).
    if topology is None:
        topology = caps.get("default_topology") or "flat"
    topology_spec = parse_topology(topology)
    topo_caps = get_component("topology", topology_spec.name).capabilities
    reason = topology_spec.size_refusal(n_workers)
    if reason:
        return reason
    if server_rank is not None and not 0 <= server_rank < n_workers:
        return f"server_rank {server_rank} out of range for {n_workers} workers"
    if caps.get("parameter_server", False):
        if server_rank is None and not topo_caps.get("one_hop_server", False):
            return (
                f"the {execution} schedule routes every exchange through a "
                f"parameter server, but the {topology_spec.name!r} topology does not "
                "price an unplaced server at one hop; set server_rank to "
                "place the server on a worker rank"
            )
    elif server_rank is not None:
        return (
            f"the {execution} schedule has no parameter server to place; "
            "server_rank only applies to parameter-server schedules "
            "(async_bsp, elastic)"
        )
    if caps.get("requires_neighbor_topology", False) and not topo_caps.get(
        "neighbor_graph", False
    ):
        return (
            f"the {execution} schedule exchanges deltas over topology "
            f"edges, which the {topology_spec.name!r} topology does not have; pick "
            "a graph topology (ring, star, tree, fat_node)"
        )

    # Gossip hard-codes the neighbourhood mean and has no aggregation point
    # a rule could plug into (uses_aggregator).
    if not caps.get("uses_aggregator", True) and aggregator not in (None, "mean"):
        return (
            f"the {execution} schedule averages neighbour contributions itself "
            f"and never invokes the aggregation rule; the {aggregator!r} "
            "aggregator would be silently ignored -- leave the aggregator "
            "unset (mean) or pick another execution model"
        )

    if sparsifier is not None:
        sparsifier_spec = get_component("sparsifier", sparsifier)
        if (sparsifier_kwargs or {}).get("robust_norms") and not sparsifier_spec.capability(
            "supports_robust_norms", False
        ):
            return (
                f"robust-norms is not supported by the {sparsifier_spec.name!r} "
                "sparsifier; only sparsifiers with the supports_robust_norms "
                "capability (deft) coordinate shared layer norms"
            )
    if aggregator is not None:
        get_component("aggregator", aggregator)
    return None
