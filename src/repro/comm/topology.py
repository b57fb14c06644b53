"""Cluster topology helpers.

The paper's cluster is 8 nodes x 4 GPUs.  The alpha-beta model in
:mod:`repro.comm.cost_model` only needs worker counts, but the topology
module lets experiments reason about hop counts and bisection when modelling
multi-node latency (the alpha term grows with tree depth / ring diameter).
A topology is a worker count plus an undirected edge list; hop counts come
from one breadth-first search per source rank, which is exact and cheap on
graphs of a few dozen ranks.

:class:`TopologySpec` is the user-facing half: a parsed ``--topology``
string (``"ring"``, ``"star"``, ``"tree:4"``, ``"fat_node:8x4"`` or the
default ``"flat"``) that builds the matching :class:`ClusterTopology` for a
given worker count.  ``"flat"`` is the alpha-beta model's implicit layout
-- every pair of workers (and the parameter server) is one hop apart -- and
builds no graph at all, which keeps runs without an explicit topology
priced exactly as before the topology-aware routing existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ClusterTopology",
    "TopologySpec",
    "parse_topology",
    "build_topology",
    "ring_topology",
    "star_topology",
    "tree_topology",
    "fat_node_topology",
]


@dataclass
class ClusterTopology:
    """A worker interconnect graph: ranks ``0..n_workers-1`` and their links.

    ``links`` may list an edge in either direction and more than once; it is
    stored as sorted, de-duplicated ``(low, high)`` pairs.
    """

    n_workers: int
    links: Iterable[Tuple[int, int]]
    name: str = "custom"
    #: Sorted one-hop peers of every rank.
    _adjacency: List[List[int]] = field(init=False, repr=False, compare=False)
    #: Lazily filled all-pairs hop table (see :meth:`hops_matrix`).
    _hops: Optional[List[List[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.n_workers = int(self.n_workers)
        pairs = set()
        for u, v in self.links:
            u, v = int(u), int(v)
            if u == v or not (0 <= u < self.n_workers and 0 <= v < self.n_workers):
                raise ValueError(
                    f"topology {self.name!r}: edge ({u}, {v}) is not between two "
                    f"distinct ranks of 0..{self.n_workers - 1}"
                )
            pairs.add((min(u, v), max(u, v)))
        self.links = tuple(sorted(pairs))
        self._adjacency = [[] for _ in range(self.n_workers)]
        for u, v in self.links:
            self._adjacency[u].append(v)
            self._adjacency[v].append(u)
        for peers in self._adjacency:
            peers.sort()

    def diameter_hops(self) -> int:
        """Largest hop count between any two workers."""
        return max(max(row) for row in self.hops_matrix())

    def average_hops(self) -> float:
        """Mean shortest-path hop count over ordered worker pairs."""
        n = self.n_workers
        if n <= 1:
            return 0.0
        return sum(sum(row) for row in self.hops_matrix()) / (n * (n - 1))

    def path_hops(self, src: int, dst: int) -> int:
        return self.hops_matrix()[int(src)][int(dst)]

    def hops_matrix(self) -> List[List[int]]:
        """All-pairs hop counts (``[src][dst]``), computed once and cached.

        The trainer prices every push/pull/send of every iteration through
        this table; recomputing shortest paths per message would dominate
        the simulation.  A disconnected graph raises ``ValueError``.
        """
        if self._hops is None:
            matrix = []
            for src in range(self.n_workers):
                row = [-1] * self.n_workers
                row[src] = 0
                frontier = [src]
                while frontier:
                    following = []
                    for u in frontier:
                        for v in self._adjacency[u]:
                            if row[v] < 0:
                                row[v] = row[u] + 1
                                following.append(v)
                    frontier = following
                if -1 in row:
                    raise ValueError(
                        f"topology {self.name!r} is disconnected: rank "
                        f"{row.index(-1)} is unreachable from rank {src}"
                    )
                matrix.append(row)
            self._hops = matrix
        return self._hops

    def neighbors(self, rank: int) -> List[int]:
        """Directly connected ranks (one-hop peers), sorted."""
        return list(self._adjacency[rank])

    def latency_scale(self) -> float:
        """Multiplier applied to the alpha term: the graph diameter (>= 1)."""
        return float(max(self.diameter_hops(), 1))

    def edges(self) -> List[Tuple[int, int]]:
        return list(self.links)


def ring_topology(n_workers: int) -> ClusterTopology:
    """Workers connected in a cycle (ring all-reduce layout)."""
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    links = [(rank, (rank + 1) % n_workers) for rank in range(n_workers)] if n_workers > 1 else []
    return ClusterTopology(n_workers, links, name="ring")


def star_topology(n_workers: int) -> ClusterTopology:
    """All workers connected to worker 0 (parameter-server layout)."""
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    return ClusterTopology(n_workers, [(0, rank) for rank in range(1, n_workers)], name="star")


def tree_topology(n_workers: int, branching: int = 2) -> ClusterTopology:
    """Balanced tree of the given branching factor (binomial broadcast layout)."""
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    links = [((child - 1) // branching, child) for child in range(1, n_workers)]
    return ClusterTopology(n_workers, links, name="tree")


def fat_node_topology(n_nodes: int, gpus_per_node: int) -> ClusterTopology:
    """Paper-like layout: fully connected GPUs inside a node, ring across nodes."""
    if n_nodes <= 0 or gpus_per_node <= 0:
        raise ValueError("n_nodes and gpus_per_node must be positive")
    links = []
    for node in range(n_nodes):
        members = range(node * gpus_per_node, (node + 1) * gpus_per_node)
        links.extend((u, v) for u in members for v in members if u < v)
    # Ring over node leaders.
    if n_nodes > 1:
        leaders = [node * gpus_per_node for node in range(n_nodes)]
        links.extend((leader, leaders[(i + 1) % n_nodes]) for i, leader in enumerate(leaders))
    return ClusterTopology(n_nodes * gpus_per_node, links, name="fat_node")


# ---------------------------------------------------------------------- #
# Topology specifications (the ``--topology`` strings).
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TopologySpec:
    """A parsed topology string: registry name plus its parameters.

    Spec strings are ``name`` or ``name:params``; the parameter grammar is
    per-topology (``tree:4`` sets the branching factor, ``fat_node:8x4`` is
    nodes x GPUs-per-node).  ``"flat"`` is the no-graph default pricing
    every link at one hop.
    """

    name: str
    params: Tuple[Tuple[str, int], ...] = ()

    @property
    def text(self) -> str:
        """The canonical spec string this instance parses back from."""
        if not self.params:
            return self.name
        if self.name == "fat_node":
            values = dict(self.params)
            return f"fat_node:{values['n_nodes']}x{values['gpus_per_node']}"
        return f"{self.name}:" + ",".join(str(v) for _, v in self.params)

    def kwargs(self) -> Dict[str, int]:
        return dict(self.params)

    # ------------------------------------------------------------------ #
    def size_refusal(self, n_workers: int) -> Optional[str]:
        """Why this spec cannot host ``n_workers`` workers, or ``None``."""
        if self.name == "fat_node":
            values = dict(self.params)
            total = values["n_nodes"] * values["gpus_per_node"]
            if total != n_workers:
                return (
                    f"topology {self.text!r} has {total} workers "
                    f"({values['n_nodes']} nodes x {values['gpus_per_node']} GPUs) "
                    f"but the cluster has {n_workers}"
                )
        return None

    def build(self, n_workers: int) -> Optional[ClusterTopology]:
        """The concrete graph for ``n_workers`` (``None`` for ``flat``)."""
        reason = self.size_refusal(n_workers)
        if reason:
            raise ValueError(reason)
        # Imported lazily: the registry module imports repro.plugins, which
        # must stay importable before this module's components register.
        from repro.plugins.registry import build_component

        return build_component("topology", self.name, n_workers, **self.kwargs())


def parse_topology(text: str) -> TopologySpec:
    """Parse a ``--topology`` string into its :class:`TopologySpec`.

    Malformed parameter blocks raise ``ValueError``; unknown names are left
    to the component registry (``KeyError`` naming the alternatives) so
    topology lookups fail exactly like every other component kind.
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"topology spec must be a non-empty string, got {text!r}")
    name, sep, raw = text.strip().partition(":")
    name = name.strip()
    if not sep:
        if name == "fat_node":
            raise ValueError(
                "the fat_node topology needs explicit dimensions: "
                "use fat_node:<nodes>x<gpus_per_node>, e.g. fat_node:8x4"
            )
        return TopologySpec(name=name)
    raw = raw.strip()
    if name == "fat_node":
        nodes_text, _, gpus_text = raw.partition("x")
        raw_params = (("n_nodes", nodes_text), ("gpus_per_node", gpus_text))
    elif name == "tree":
        raw_params = (("branching", raw),)
    else:
        raise ValueError(f"topology {name!r} takes no parameters; use plain {name!r}")
    try:
        params = tuple((key, int(value)) for key, value in raw_params)
    except ValueError as exc:
        raise ValueError(
            f"malformed topology parameters in {text!r}: "
            "expected tree:<branching> or fat_node:<nodes>x<gpus_per_node>"
        ) from exc
    for _, value in params:
        if value <= 0:
            raise ValueError(f"topology parameters must be positive in {text!r}")
    return TopologySpec(name=name, params=params)


def build_topology(text: Optional[str], n_workers: int) -> Optional[ClusterTopology]:
    """Build the topology of a spec string (``None``/``"flat"`` -> ``None``)."""
    if text is None:
        return None
    return parse_topology(text).build(n_workers)
