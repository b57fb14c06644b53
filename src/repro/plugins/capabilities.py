"""Capability-driven cross-component validation.

The rules governing which components may be combined -- worker/Byzantine
arithmetic, elastic rejecting momentum and gradient attacks, async
rejecting colluding attacks and defaulting to the staleness-weighted
aggregator -- are each a function of the *declared capabilities* of
the registered components, stated once here.  The execution models delegate
their ``_post_bind`` refusals to these helpers, and
:meth:`repro.api.RunSpec.validate` runs the whole matrix up front, so every
entry point -- CLI, Python API, direct trainer construction -- agrees.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Optional, Tuple

from repro.plugins.registry import get_component

__all__ = [
    "CAPABILITY_VOCABULARY",
    "default_aggregator_for",
    "default_topology_for",
    "check_execution_supports_attack",
    "check_execution_supports_optimizer",
    "check_execution_supports_topology",
    "check_execution_uses_aggregator",
    "check_byzantine_count",
    "validate_run_combination",
    "combination_refusal",
    "valid_grid_cells",
]


#: The closed capability vocabulary.  Every flag a ``ComponentSpec`` may
#: declare is listed here with what it means; the validation helpers below
#: consume a subset, the rest drive defaults, pruning and documentation.
#: ``repro lint``'s plugin-contract rule rejects registrations that declare
#: flags outside this table and cross-checks that every flag these helpers
#: read is listed, so the vocabulary cannot drift in either direction.
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


def _byzantine_count_refusal(n_workers: int, n_byzantine: int) -> Optional[str]:
    if n_byzantine < 0:
        return f"n_byzantine must be non-negative, got {n_byzantine}"
    if n_byzantine >= n_workers and n_byzantine > 0:
        return f"n_byzantine={n_byzantine} leaves no benign worker out of {n_workers}"
    return None


def check_byzantine_count(n_workers: int, n_byzantine: int) -> None:
    """Refuse a Byzantine count that is negative or leaves no benign worker."""
    reason = _byzantine_count_refusal(n_workers, n_byzantine)
    if reason:
        raise ValueError(reason)


def _attack_refusal(
    execution: str,
    *,
    attack_name: str,
    colluding: bool,
    corrupts_data: bool,
    n_byzantine: int,
) -> Optional[str]:
    if not n_byzantine:
        return None
    caps = get_component("execution", execution).capabilities
    if colluding and not caps.get("synchronized_view", True):
        return (
            f"the {attack_name!r} attack needs a synchronized group view; "
            f"it is not supported under {execution}"
        )
    if not corrupts_data and not caps.get("exchanges_gradients", True):
        return (
            f"the {attack_name!r} attack corrupts gradient accumulators, "
            f"which the {execution} schedule never exchanges; use a "
            "data-poisoning attack or another execution model"
        )
    return None


def check_execution_supports_attack(
    execution: str,
    *,
    attack_name: str,
    colluding: bool,
    corrupts_data: bool,
    n_byzantine: int,
) -> None:
    """Refuse attack/schedule pairs the schedule cannot actually host.

    Driven by the execution model's ``synchronized_view`` (colluding attacks
    need every worker's accumulator at one instant) and
    ``exchanges_gradients`` (accumulator attacks corrupt what goes on the
    wire; a parameter-exchanging schedule would silently neutralise them)
    capabilities.
    """
    reason = _attack_refusal(
        execution,
        attack_name=attack_name,
        colluding=colluding,
        corrupts_data=corrupts_data,
        n_byzantine=n_byzantine,
    )
    if reason:
        raise ValueError(reason)


def _optimizer_refusal(
    execution: str, *, momentum: float, weight_decay: float
) -> Optional[str]:
    caps = get_component("execution", execution).capabilities
    if caps.get("supports_momentum", True):
        return None
    if momentum or weight_decay:
        return (
            f"the {execution} schedule ignores momentum/weight_decay; "
            "configure them to 0 or pick another execution model"
        )
    return None


def check_execution_supports_optimizer(
    execution: str, *, momentum: float, weight_decay: float
) -> None:
    """Refuse optimizer knobs a schedule would silently drop.

    Driven by the ``supports_momentum`` capability (the elastic exchange
    updates the center directly and never goes through the optimizer).
    """
    reason = _optimizer_refusal(execution, momentum=momentum, weight_decay=weight_decay)
    if reason:
        raise ValueError(reason)


def _topology_refusal(
    execution: str,
    *,
    topology: Optional[str],
    server_rank: Optional[int],
    n_workers: int,
) -> Optional[str]:
    """Why a schedule refuses a topology/server placement, or ``None``.

    Malformed topology strings raise ``ValueError`` and unknown topology
    names raise ``KeyError`` (a typo is a bug, not a prunable cell); the
    returned reasons cover the capability-driven rules:

    - parameter-server schedules refuse graph topologies without an
      explicit ``server_rank`` (only ``flat`` prices the server at one hop
      from everywhere without placing it),
    - server-less schedules refuse a ``server_rank`` (there is no server
      to place),
    - neighbour-exchanging schedules (gossip) refuse topologies without a
      neighbour graph,
    - a placement must fit the cluster (rank in range, fat_node dimensions
      matching ``n_workers``).
    """
    # Imported lazily so repro.plugins stays importable while the comm
    # package's own registry module (which imports repro.plugins back)
    # is still initialising.
    from repro.comm.topology import parse_topology

    caps = get_component("execution", execution).capabilities
    if topology is None:
        topology = caps.get("default_topology") or "flat"
    spec = parse_topology(topology)
    topo_caps = get_component("topology", spec.name).capabilities
    reason = spec.size_refusal(n_workers)
    if reason:
        return reason
    if server_rank is not None and not 0 <= server_rank < n_workers:
        return f"server_rank {server_rank} out of range for {n_workers} workers"
    if caps.get("parameter_server", False):
        if server_rank is None and not topo_caps.get("one_hop_server", False):
            return (
                f"the {execution} schedule routes every exchange through a "
                f"parameter server, but the {spec.name!r} topology does not "
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
            f"edges, which the {spec.name!r} topology does not have; pick "
            "a graph topology (ring, star, tree, fat_node)"
        )
    return None


def check_execution_supports_topology(
    execution: str,
    *,
    topology: Optional[str],
    server_rank: Optional[int],
    n_workers: int,
) -> None:
    """Refuse topology/schedule/placement combinations that cannot be priced."""
    reason = _topology_refusal(
        execution, topology=topology, server_rank=server_rank, n_workers=n_workers
    )
    if reason:
        raise ValueError(reason)


def _aggregator_use_refusal(execution: str, aggregator: Optional[str]) -> Optional[str]:
    caps = get_component("execution", execution).capabilities
    if caps.get("uses_aggregator", True):
        return None
    if aggregator in (None, "mean"):
        return None
    return (
        f"the {execution} schedule averages neighbour contributions itself "
        f"and never invokes the aggregation rule; the {aggregator!r} "
        "aggregator would be silently ignored -- leave the aggregator "
        "unset (mean) or pick another execution model"
    )


def check_execution_uses_aggregator(execution: str, aggregator: Optional[str]) -> None:
    """Refuse aggregation rules a schedule would silently ignore.

    Driven by the ``uses_aggregator`` capability (gossip hard-codes the
    neighbourhood mean and has no aggregation point a rule could plug
    into).
    """
    reason = _aggregator_use_refusal(execution, aggregator)
    if reason:
        raise ValueError(reason)


def _robust_norms_refusal(
    sparsifier: str, sparsifier_kwargs: Optional[Mapping[str, Any]]
) -> Optional[str]:
    if not (sparsifier_kwargs or {}).get("robust_norms"):
        return None
    spec = get_component("sparsifier", sparsifier)
    if spec.capability("supports_robust_norms", False):
        return None
    return (
        f"robust-norms is not supported by the {spec.name!r} sparsifier; "
        "only sparsifiers with the supports_robust_norms capability "
        "(deft) coordinate shared layer norms"
    )


def _check_component_kwargs(kind: str, name: str, kwargs: Optional[Mapping[str, Any]]) -> None:
    if kwargs:
        get_component(kind, name).coerce_kwargs(kwargs)


def validate_run_combination(
    *,
    execution: str,
    aggregator: str,
    attack: str,
    sparsifier: Optional[str] = None,
    n_workers: int = 1,
    n_byzantine: int = 0,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    topology: Optional[str] = None,
    server_rank: Optional[int] = None,
    sparsifier_kwargs: Optional[Mapping[str, Any]] = None,
    aggregator_kwargs: Optional[Mapping[str, Any]] = None,
    attack_kwargs: Optional[Mapping[str, Any]] = None,
    execution_kwargs: Optional[Mapping[str, Any]] = None,
) -> None:
    """Run the full capability matrix for one prospective run.

    Raises ``KeyError`` for unknown component names and ``ValueError`` for
    combinations some component cannot host -- the same errors, with the
    same messages, the trainer would raise later, but before anything is
    built.
    """
    check_byzantine_count(n_workers, n_byzantine)

    attack_spec = get_component("attack", attack)
    check_execution_supports_attack(
        execution,
        attack_name=attack_spec.name,
        colluding=bool(attack_spec.capability("colluding", False)),
        corrupts_data=bool(attack_spec.capability("corrupts_data", False)),
        n_byzantine=n_byzantine,
    )
    check_execution_supports_optimizer(
        execution, momentum=momentum, weight_decay=weight_decay
    )
    check_execution_supports_topology(
        execution, topology=topology, server_rank=server_rank, n_workers=n_workers
    )
    check_execution_uses_aggregator(execution, aggregator)

    get_component("aggregator", aggregator)
    _check_component_kwargs("aggregator", aggregator, aggregator_kwargs)
    _check_component_kwargs("attack", attack, attack_kwargs)
    _check_component_kwargs("execution", execution, execution_kwargs)

    if sparsifier is not None:
        get_component("sparsifier", sparsifier)
        # The capability refusal goes first: "topk cannot do robust-norms"
        # is more actionable than "topk has no robust_norms kwarg".
        reason = _robust_norms_refusal(sparsifier, sparsifier_kwargs)
        if reason:
            raise ValueError(reason)
        _check_component_kwargs("sparsifier", sparsifier, sparsifier_kwargs)


# ---------------------------------------------------------------------- #
# Exception-free pruning surface (the sweep engine and the experiment
# grids ask the matrix *which* cells are valid instead of try/except-ing
# refusals cell by cell at run time).
# ---------------------------------------------------------------------- #
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
    """Why the capability matrix refuses a combination, or ``None`` if valid.

    This is the predicate form of :func:`validate_run_combination` for the
    capability-driven rules (group arithmetic, attack/schedule
    compatibility, optimizer-knob support, robust-norms support).  Unknown
    component names still raise ``KeyError`` -- a typo is a bug, not a
    prunable cell.
    """
    reason = _byzantine_count_refusal(n_workers, n_byzantine)
    if reason:
        return reason
    attack_spec = get_component("attack", attack)
    reason = _attack_refusal(
        execution,
        attack_name=attack_spec.name,
        colluding=bool(attack_spec.capability("colluding", False)),
        corrupts_data=bool(attack_spec.capability("corrupts_data", False)),
        n_byzantine=n_byzantine,
    )
    if reason:
        return reason
    reason = _optimizer_refusal(execution, momentum=momentum, weight_decay=weight_decay)
    if reason:
        return reason
    reason = _topology_refusal(
        execution, topology=topology, server_rank=server_rank, n_workers=n_workers
    )
    if reason:
        return reason
    reason = _aggregator_use_refusal(execution, aggregator)
    if reason:
        return reason
    if sparsifier is not None:
        get_component("sparsifier", sparsifier)
        reason = _robust_norms_refusal(sparsifier, sparsifier_kwargs)
        if reason:
            return reason
    if aggregator is not None:
        get_component("aggregator", aggregator)
    return None


def valid_grid_cells(
    executions: Iterable[str],
    attacks: Iterable[str],
    aggregators: Iterable[str],
    *,
    n_workers: int,
    n_byzantine: int,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> Iterator[Tuple[str, str, str]]:
    """Yield the (execution, attack, aggregator) cells the matrix accepts.

    The declared capabilities decide validity up front, so grid drivers
    enumerate only runnable cells; the refusal reasons for the dropped ones
    are available via :func:`combination_refusal`.
    """
    for execution in executions:
        for attack in attacks:
            for aggregator in aggregators:
                if (
                    combination_refusal(
                        execution=execution,
                        attack=attack,
                        aggregator=aggregator,
                        n_workers=n_workers,
                        n_byzantine=n_byzantine,
                        momentum=momentum,
                        weight_decay=weight_decay,
                    )
                    is None
                ):
                    yield execution, attack, aggregator
