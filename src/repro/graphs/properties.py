"""Small graph property helpers shared across the library."""

from __future__ import annotations

from operator import add, contains
from typing import Hashable

import networkx as nx

from repro.graphs.power import multi_source_bfs

Node = Hashable

__all__ = [
    "ecc_lower_bound",
    "graph_diameter",
    "is_connected",
    "max_degree",
    "relabel_consecutive",
]


def max_degree(graph: nx.Graph) -> int:
    """The maximum degree ``Delta`` of the graph (0 for an empty graph).

    Row lengths of networkx's adjacency dict, counted at C speed where
    ``graph.degree()`` walks a Python generator; a self-loop counts twice,
    as networkx counts it.
    """
    adjacency = graph._adj
    rows = adjacency.values()
    return max(map(add, map(len, rows), map(contains, rows, adjacency)),
               default=0)


def is_connected(graph: nx.Graph) -> bool:
    """True iff the graph is connected (empty graphs count as connected)."""
    if graph.number_of_nodes() <= 1:
        return True
    return nx.is_connected(graph)


def graph_diameter(graph: nx.Graph) -> int:
    """The diameter of a connected graph.

    For a disconnected graph, returns the maximum diameter over the
    connected components (the algorithms run per component in that case).
    """
    if graph.number_of_nodes() <= 1:
        return 0
    if nx.is_connected(graph):
        return nx.diameter(graph)
    return max(nx.diameter(graph.subgraph(component))
               for component in nx.connected_components(graph))


def ecc_lower_bound(graph: nx.Graph, source: Node | None = None) -> int:
    """A cheap diameter lower bound: the eccentricity of one BFS sweep.

    Used by the round-cost ledger where only the order of magnitude of
    ``diam(G)`` matters; computing the exact diameter is quadratic.
    """
    if graph.number_of_nodes() <= 1:
        return 0
    if source is None:
        source = next(iter(graph.nodes()))
    distance, _ = multi_source_bfs(graph, [source])
    return int(distance.max())


def relabel_consecutive(graph: nx.Graph) -> tuple[nx.Graph, dict[Node, int]]:
    """Relabel nodes to ``0..n-1``; returns the new graph and the mapping."""
    mapping = {node: index for index, node in enumerate(sorted(graph.nodes(), key=str))}
    return nx.relabel_nodes(graph, mapping), mapping
