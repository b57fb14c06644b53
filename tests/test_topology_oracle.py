"""Topology hop counts against networkx as an oracle.

:class:`~repro.comm.topology.ClusterTopology` computes hops with its own
integer BFS.  networkx is a test-only dependency here: every graph is
rebuilt as an ``nx.Graph`` from the same edges and the hops matrix,
diameter, average hop count (exactly, not approximately), neighbour lists
and edge set must agree.  The four builders are also checked against
networkx reference constructions of the same layouts, so a builder that
dropped or added a link would show.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.topology import (
    ClusterTopology,
    fat_node_topology,
    ring_topology,
    star_topology,
    tree_topology,
)

nx = pytest.importorskip("networkx")

MAX_WORKERS = 32


def _assert_matches_networkx(topo: ClusterTopology, graph) -> None:
    n = topo.n_workers
    assert graph.number_of_nodes() == n
    expected = dict(nx.all_pairs_shortest_path_length(graph))
    matrix = topo.hops_matrix()
    assert [[matrix[u][v] for v in range(n)] for u in range(n)] == [
        [expected[u][v] for v in range(n)] for u in range(n)
    ]
    if n > 1:
        assert topo.diameter_hops() == nx.diameter(graph)
        assert topo.average_hops() == nx.average_shortest_path_length(graph)
    else:
        assert topo.diameter_hops() == 0
        assert topo.average_hops() == 0.0
    for rank in range(n):
        assert topo.neighbors(rank) == sorted(graph.neighbors(rank))
    assert {frozenset(e) for e in topo.edges()} == {frozenset(e) for e in graph.edges()}
    assert len(topo.edges()) == graph.number_of_edges()


def _graph(n_workers, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(n_workers))
    graph.add_edges_from(edges)
    return graph


@st.composite
def connected_graphs(draw):
    """A random spanning tree over a shuffled rank order plus extra edges."""
    n = draw(st.integers(1, MAX_WORKERS))
    order = draw(st.permutations(range(n)))
    edges = [
        (order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)
    ]
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        edges += draw(st.lists(pairs, max_size=2 * n))
    return n, edges


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_random_connected_graph_matches_networkx(case):
    n, edges = case
    _assert_matches_networkx(ClusterTopology(n, edges), _graph(n, edges))


# networkx reference constructions of the four builders' layouts.
def _nx_ring(n):
    if n == 1:
        return _graph(1, [])
    return _graph(2, [(0, 1)]) if n == 2 else nx.cycle_graph(n)


def _nx_star(n):
    return nx.star_graph(n - 1) if n > 1 else _graph(1, [])


def _nx_tree(n, branching):
    return _graph(n, [((child - 1) // branching, child) for child in range(1, n)])


def _nx_fat_node(n_nodes, gpus):
    graph = _graph(n_nodes * gpus, [])
    for node in range(n_nodes):
        members = list(range(node * gpus, (node + 1) * gpus))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                graph.add_edge(u, v)
    if n_nodes > 1:
        leaders = [node * gpus for node in range(n_nodes)]
        for i, leader in enumerate(leaders):
            graph.add_edge(leader, leaders[(i + 1) % n_nodes])
    return graph


@pytest.mark.parametrize("n", range(1, MAX_WORKERS + 1))
def test_builders_match_networkx(n):
    _assert_matches_networkx(ring_topology(n), _nx_ring(n))
    _assert_matches_networkx(star_topology(n), _nx_star(n))
    for branching in (1, 2, 3, 4):
        _assert_matches_networkx(tree_topology(n, branching), _nx_tree(n, branching))
    for n_nodes in range(1, n + 1):
        if n % n_nodes == 0:
            gpus = n // n_nodes
            _assert_matches_networkx(fat_node_topology(n_nodes, gpus), _nx_fat_node(n_nodes, gpus))


def test_disconnected_graph_raises_value_error_naming_the_topology():
    topo = ClusterTopology(4, [(0, 1), (2, 3)], name="split")
    assert topo.neighbors(2) == [3]
    with pytest.raises(ValueError, match="topology 'split' is disconnected"):
        topo.hops_matrix()
    with pytest.raises(ValueError, match="'split'"):
        topo.diameter_hops()


def test_edges_must_join_two_distinct_ranks():
    with pytest.raises(ValueError, match="not between two distinct ranks"):
        ClusterTopology(3, [(0, 3)], name="bad")
    with pytest.raises(ValueError, match="not between two distinct ranks"):
        ClusterTopology(3, [(1, 1)], name="bad")
