"""Weak-diameter network decomposition with cluster separation (Theorem A.1).

The paper adapts the deterministic decomposition of GGH+22 to power graphs:
``~O(k log^3 n)`` rounds for ``O(log n log log n)`` colors, weak diameter
``O(k log n)`` and separation ``2k + 1``.  Re-implementing GGH+22 verbatim
(delay derandomization, frontier counting, Steiner congestion bookkeeping)
is out of scope for a Python simulation; instead we build the decomposition
from the classic exponential-delay clustering of Miller-Peng-Xu (MPX) --
which gives weak-diameter ``O(log n / beta)`` clusters -- followed by a
greedy coloring of the cluster conflict graph at distance ``separation``.
The decomposition's *guarantees* (coverage, disjointness, separation,
diameter) are verified at runtime by :meth:`NetworkDecomposition.validate`,
and the round cost charged to the ledger follows Theorem A.1's
``~O(k log^3 n)`` formula (see DESIGN.md, substitution 3).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.graphs.power import bounded_bfs

Node = Hashable

__all__ = ["Cluster", "NetworkDecomposition", "network_decomposition"]


@dataclass
class Cluster:
    """One cluster of a network decomposition.

    ``steiner_parent`` maps every cluster node to its parent on the shortest
    path (in ``G``) towards the center -- the Steiner tree of the cluster;
    parents may lie outside the cluster (weak diameter).
    """

    index: int
    center: Node
    nodes: set[Node]
    color: int = -1
    radius: int = 0
    steiner_parent: dict[Node, Node | None] = field(default_factory=dict)

    def steiner_nodes(self) -> set[Node]:
        """All nodes on the Steiner paths (terminals plus relay nodes)."""
        nodes = set(self.nodes)
        for node in self.nodes:
            current = node
            while current is not None and current != self.center:
                parent = self.steiner_parent.get(current)
                if parent is None:
                    break
                nodes.add(parent)
                current = parent
        return nodes

    def path_lengths(self, graph: nx.Graph) -> dict[Node, int]:
        """Length of each node's Steiner path to the center, for the nodes
        whose path is a chain of at most ``radius + 1`` edges of ``graph``
        ending at the center."""
        lengths: dict[Node, int] = {self.center: 0}
        for node in self.nodes:
            chain = []
            current = node
            while current not in lengths:
                parent = self.steiner_parent.get(current)
                if (parent is None or len(chain) > self.radius
                        or parent not in graph._adj.get(current, ())):
                    break
                chain.append(current)
                current = parent
            else:
                length = lengths[current]
                for member in reversed(chain):
                    length += 1
                    lengths[member] = length
        return lengths

    def steiner_edges(self) -> set[tuple[Node, Node]]:
        edges: set[tuple[Node, Node]] = set()
        for node in self.nodes:
            current = node
            while current is not None and current != self.center:
                parent = self.steiner_parent.get(current)
                if parent is None:
                    break
                edge = (current, parent) if str(current) <= str(parent) else (parent, current)
                edges.add(edge)
                current = parent
        return edges


@dataclass
class NetworkDecomposition:
    """A ``(c, d)``-network decomposition with separation."""

    clusters: list[Cluster]
    separation: int
    num_colors: int
    cluster_of_node: dict[Node, int] = field(default_factory=dict)

    def clusters_of_color(self, color: int) -> list[Cluster]:
        return [cluster for cluster in self.clusters if cluster.color == color]

    def cluster_of(self, node: Node) -> Cluster | None:
        index = self.cluster_of_node.get(node)
        return None if index is None else self.clusters[index]

    @property
    def max_weak_diameter(self) -> int:
        return max((2 * cluster.radius for cluster in self.clusters), default=0)

    def steiner_congestion(self) -> int:
        """Max number of same-color Steiner trees sharing one edge."""
        worst = 0
        for color in range(self.num_colors):
            load: dict[tuple[Node, Node], int] = {}
            for cluster in self.clusters_of_color(color):
                for edge in cluster.steiner_edges():
                    load[edge] = load.get(edge, 0) + 1
            if load:
                worst = max(worst, max(load.values()))
        return max(1, worst)

    def validate(self, graph: nx.Graph, covered: Iterable[Node] | None = None) -> None:
        """Assert coverage, disjointness, separation and weak-diameter sanity."""
        covered_nodes = set(graph.nodes()) if covered is None else set(covered)
        seen: set[Node] = set()
        for cluster in self.clusters:
            overlap = seen & cluster.nodes
            assert not overlap, f"clusters overlap on {overlap}"
            seen |= cluster.nodes
        missing = covered_nodes - seen
        assert not missing, f"{len(missing)} nodes not clustered"

        # Weak diameter: every node is within 2 * radius of every other via
        # the center.  A Steiner path of G-edges no longer than the radius
        # proves a node close; only nodes without one pay a BFS.
        for cluster in self.clusters:
            hops = cluster.path_lengths(graph)
            far = [node for node in cluster.nodes
                   if hops.get(node, cluster.radius + 1) > cluster.radius]
            if not far:
                continue
            distances = bounded_bfs(graph, [cluster.center], cluster.radius)
            for node in far:
                assert node in distances, (
                    f"cluster {cluster.index}: node {node} farther than radius "
                    f"{cluster.radius} from center {cluster.center}")

        # Separation between same-colored clusters.
        for color in range(self.num_colors):
            same_color = self.clusters_of_color(color)
            membership: dict[Node, int] = {}
            for cluster in same_color:
                for node in cluster.nodes:
                    membership[node] = cluster.index
            for cluster in same_color:
                reach = bounded_bfs(graph, cluster.nodes, self.separation - 1)
                for other, dist in reach.items():
                    other_cluster = membership.get(other)
                    if other_cluster is not None and other_cluster != cluster.index:
                        raise AssertionError(
                            f"clusters {cluster.index} and {other_cluster} of color {color} "
                            f"are only {dist} < {self.separation} apart")


def _exponential_delay_clustering(graph: nx.Graph, nodes: set[Node], beta: float,
                                  rng: random.Random) -> list[Cluster]:
    """One MPX-style clustering pass over ``nodes``.

    Every node draws a delay ``delta_v ~ Exp(beta)``; conceptually node ``u``
    starts a BFS at time ``-delta_u`` and every node joins the first BFS that
    reaches it.  Implemented as a Dijkstra over start times.  Distances are
    measured in ``G`` (weak diameter) but only ``nodes`` become cluster
    members; other nodes may relay (appear on Steiner paths).
    """
    if not nodes:
        return []
    delays = {node: rng.expovariate(beta) for node in nodes}
    best_time: dict[Node, float] = {}
    owner: dict[Node, Node] = {}
    parent: dict[Node, Node | None] = {}
    hops: dict[Node, int] = {}  # length of the parent path to the owner
    heap: list[tuple[float, int, Node, Node, Node | None]] = []
    for index, node in enumerate(sorted(nodes, key=str)):
        heapq.heappush(heap, (-delays[node], index, node, node, None))

    counter = len(nodes)
    while heap:
        time, _, node, center, via = heapq.heappop(heap)
        if node in best_time:
            continue
        best_time[node] = time
        owner[node] = center
        parent[node] = via
        hops[node] = 0 if via is None else hops[via] + 1
        for neighbor in graph.neighbors(node):
            if neighbor not in best_time:
                counter += 1
                heapq.heappush(heap, (time + 1.0, counter, neighbor, center, node))

    clusters: list[Cluster] = []
    centers = sorted({owner[node] for node in nodes}, key=str)
    center_index = {center: i for i, center in enumerate(centers)}
    members: dict[Node, set[Node]] = {center: set() for center in centers}
    for node in nodes:
        members[owner[node]].add(node)
    for center in centers:
        cluster_nodes = members[center]
        cluster_parent = {node: parent[node] for node in cluster_nodes}
        # Radius in G: distance from center to the farthest member.  A
        # member's parent path is a shortest path from its center: its pop
        # time T_c(hops) = fl(...fl(-delta_c + 1)... + 1) is at most
        # T_c(dist_G(c, v)) (the push along a shortest path), and T_c is
        # strictly increasing, so hops == dist_G(c, v) in floats too.
        radius = max((hops[node] for node in cluster_nodes), default=0)
        clusters.append(Cluster(index=center_index[center], center=center,
                                nodes=cluster_nodes, radius=radius,
                                steiner_parent=cluster_parent))
    return clusters


def _color_clusters(graph: nx.Graph, clusters: list[Cluster], separation: int) -> int:
    """Greedy-color the cluster conflict graph at distance ``separation - 1``.

    Two clusters conflict when some pair of their nodes is at distance at
    most ``separation - 1`` in ``G``; such clusters must receive different
    colors so that same-colored clusters are at least ``separation`` apart.
    Returns the number of colors used.
    """
    membership: dict[Node, int] = {}
    for cluster in clusters:
        for node in cluster.nodes:
            membership[node] = cluster.index
    by_index = {cluster.index: cluster for cluster in clusters}

    conflicts: dict[int, set[int]] = {cluster.index: set() for cluster in clusters}
    for cluster in clusters:
        for other in bounded_bfs(graph, cluster.nodes, separation - 1):
            other_cluster = membership.get(other)
            if other_cluster is not None and other_cluster != cluster.index:
                conflicts[cluster.index].add(other_cluster)
                conflicts[other_cluster].add(cluster.index)

    order = sorted(conflicts, key=lambda index: -len(conflicts[index]))
    for index in order:
        used = {by_index[neighbor].color for neighbor in conflicts[index]
                if by_index[neighbor].color >= 0}
        color = 0
        while color in used:
            color += 1
        by_index[index].color = color
    return max((cluster.color for cluster in clusters), default=-1) + 1


def network_decomposition(graph: nx.Graph, *, separation: int = 2,
                          nodes: Iterable[Node] | None = None,
                          beta: float | None = None,
                          rng: random.Random | None = None,
                          ledger: RoundLedger | None = None,
                          ) -> NetworkDecomposition:
    """Compute a weak-diameter network decomposition with the given separation.

    Parameters
    ----------
    graph:
        The communication network ``G``.  Distances (diameter and
        separation) are measured in ``G``.
    separation:
        Same-colored clusters are at least this far apart.  For a
        decomposition of ``G^k`` use ``separation = k + 1`` (Definition 2.1);
        Lemma 5.8 uses ``2k + 1``.
    nodes:
        The set of nodes to cluster (default: all).  Other nodes may still
        relay on Steiner paths.
    beta:
        MPX delay parameter; cluster radius is ``O(log n / beta)`` w.h.p.
        Default ``0.5``.
    rng, ledger:
        Randomness and round accounting.  The charge follows Theorem A.1's
        ``~O(separation * log^3 n)`` bound.
    """
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    target = set(graph.nodes()) if nodes is None else set(nodes)
    n = max(2, graph.number_of_nodes())
    if beta is None:
        beta = 0.5

    clusters = _exponential_delay_clustering(graph, target, beta, rng)
    for index, cluster in enumerate(clusters):
        cluster.index = index
    num_colors = _color_clusters(graph, clusters, max(2, separation))

    cluster_of_node: dict[Node, int] = {}
    for position, cluster in enumerate(clusters):
        cluster.index = position
        for node in cluster.nodes:
            cluster_of_node[node] = position

    log_n = math.ceil(math.log2(n))
    ledger.charge(max(1, separation) * log_n ** 3, label="network-decomposition")

    return NetworkDecomposition(clusters=clusters, separation=max(2, separation),
                                num_colors=num_colors, cluster_of_node=cluster_of_node)
