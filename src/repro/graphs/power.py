"""Power graphs and distance-``s`` neighborhoods (Section 2 of the paper).

The problem instance throughout the paper is the power graph ``G^k``: the
graph on the same vertex set as ``G`` where two nodes are adjacent iff their
distance in ``G`` is at most ``k``.  The communication network remains ``G``.
This module provides the centralized view of those objects which the
simulator and the verification code rely on:

* :func:`power_graph` materialises ``G^k`` as a networkx graph (only used
  for small inputs and for verification).
* :func:`distance_neighborhood` computes ``N^s(v)``, the non-inclusive
  distance-``s`` neighborhood used throughout the paper.
* :func:`power_adjacency` is its batch form ``{v: N^k(v) ∩ X for v in X}``,
  backed on all but tiny graphs by the per-graph ``G^k`` CSR of
  :mod:`repro.congest.power_view` -- the power pipelines (power-MIS, power
  ruling sets) build their ``G^k`` adjacency through it, and every call
  after the first on a graph slices that cached CSR.
* :func:`induced_power_subgraph` computes ``G^s[X]`` -- note that this is
  *not* ``(G[X])^s``; paths may leave ``X`` (Section 2).
* :func:`k_connected_components` computes maximal ``k``-connected subsets
  (sets ``S`` such that ``G^k[S]`` is connected), used by the shattering
  analysis (Lemma 7.3 / Lemma 8.1).
* :func:`multi_source_bfs` gives every node its distance to, and nearest
  member of, a set -- one array BFS over ``G``'s own CSR, which every
  distance certificate (ruling sets, domination, sparsification) reads.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable

import networkx as nx

Node = Hashable

__all__ = [
    "ball",
    "bounded_bfs",
    "distance_neighborhood",
    "distance_s_degree",
    "farthest_target",
    "induced_power_subgraph",
    "k_connected_components",
    "max_power_degree",
    "multi_source_bfs",
    "power_adjacency",
    "power_graph",
    "sphere",
]

#: Below this node count the scalar per-source BFS beats the numpy kernel's
#: setup cost; ``backend="auto"`` switches on the fast path above it.
_NUMPY_ADJACENCY_THRESHOLD = 64


def bounded_bfs(graph: nx.Graph, source: Node, depth: int) -> dict[Node, int]:
    """Breadth-first distances from ``source`` truncated at ``depth``.

    Returns a mapping ``node -> dist`` including the source itself (distance
    0) and every node at distance at most ``depth``.
    """
    if depth < 0:
        return {}
    distances: dict[Node, int] = {source: 0}
    if depth == 0:
        return distances
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        dist = distances[node]
        if dist == depth:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = dist + 1
                frontier.append(neighbor)
    return distances


def ball(graph: nx.Graph, source: Node, radius: int) -> set[Node]:
    """The inclusive ball ``N^radius(v) ∪ {v}``."""
    return set(bounded_bfs(graph, source, radius))


def sphere(graph: nx.Graph, source: Node, radius: int) -> set[Node]:
    """Nodes at distance exactly ``radius`` from ``source``."""
    distances = bounded_bfs(graph, source, radius)
    return {node for node, dist in distances.items() if dist == radius}


def distance_neighborhood(graph: nx.Graph, source: Node, s: int,
                          restrict_to: Iterable[Node] | None = None) -> set[Node]:
    """``N^s(v)`` -- the non-inclusive distance-``s`` neighborhood of ``v``.

    When ``restrict_to`` is given, returns ``N^s(v, X) = N^s(v) ∩ X`` (the
    distance-``s`` ``X``-neighborhood of the paper).  The source is never
    included, matching the paper's convention that ``N(v)`` is non-inclusive.
    """
    reachable = set(bounded_bfs(graph, source, s))
    reachable.discard(source)
    if restrict_to is not None:
        restrict = set(restrict_to)
        reachable &= restrict
    return reachable


def distance_s_degree(graph: nx.Graph, source: Node, s: int,
                      restrict_to: Iterable[Node] | None = None) -> int:
    """``d_s(v, X) = |N^s(v) ∩ X|`` (``d_s(v)`` when ``restrict_to`` is None)."""
    return len(distance_neighborhood(graph, source, s, restrict_to))


def power_adjacency(graph: nx.Graph, k: int,
                    nodes: Iterable[Node] | None = None, *,
                    restrict_to: Iterable[Node] | None = None,
                    backend: str = "auto") -> dict[Node, set[Node]]:
    """``{v: N^k(v) ∩ X for v in nodes}`` -- the virtual ``G^k`` adjacency.

    ``X`` is ``restrict_to`` when given, else ``nodes``; with both omitted
    every row is the full ``N^k(v)`` of every node.  Distances are measured
    in the full base graph even when ``X`` restricts the vertex set (the
    paper's ``G^k[X]``, Section 2).  Key iteration order follows ``nodes``
    (graph order when omitted), and each value is a plain non-inclusive
    neighbor set -- exactly what the per-source ``distance_neighborhood``
    comprehension this replaces produced, so downstream consumers (and
    their RNG draws) are unaffected by the backend.

    ``backend`` selects the implementation: ``"scalar"`` runs one bounded
    BFS per source; ``"numpy"`` slices the ``G^k`` CSR cached on the
    graph's shared :class:`~repro.congest.power_view.PowerView`, which is
    built on the first call; ``"auto"`` picks the numpy path on graphs with
    at least ``_NUMPY_ADJACENCY_THRESHOLD`` nodes.  Callers whose result
    does not depend on set iteration order pass ``"numpy"``.  The cache is
    keyed by graph identity: after an edit that keeps the node and edge
    counts, call :func:`repro.api.invalidate_fingerprint`.
    """
    if backend not in ("auto", "numpy", "scalar"):
        raise ValueError(f"unknown backend: {backend!r}")
    ordered = None if nodes is None else list(nodes)
    columns = restrict_to if restrict_to is not None else ordered
    if backend == "numpy" or (backend == "auto" and graph.number_of_nodes()
                              >= _NUMPY_ADJACENCY_THRESHOLD):
        from repro.congest.topology import graph_power_view

        return graph_power_view(graph, k).adjacency_sets(
            ordered, restrict_to=restrict_to)
    restrict = None if columns is None else set(columns)
    return {node: distance_neighborhood(graph, node, k, restrict_to=restrict)
            for node in (graph.nodes() if ordered is None else ordered)}


def max_power_degree(graph: nx.Graph, k: int,
                     restrict_to: Iterable[Node] | None = None) -> int:
    """``max_v d_k(v, X) = max_v |N^k(v) ∩ X|`` over every node ``v`` of
    ``G`` (``X`` = all nodes when ``restrict_to`` is None).  Counted on the
    graph's cached ``G^k`` CSR when one was built (a solve reading ``G^k``
    builds it), else streamed without storing ``G^k``
    (:meth:`~repro.congest.power_view.PowerView.restricted_degrees`)."""
    if k < 1 or graph.number_of_nodes() == 0:
        return 0
    from repro.congest.topology import graph_power_view

    degrees = graph_power_view(graph, k).restricted_degrees(restrict_to)
    return int(degrees.max(initial=0))


def power_graph(graph: nx.Graph, k: int) -> nx.Graph:
    """Materialise the power graph ``G^k``.

    ``G^0`` has no edges; ``G^1 = G``.  Node attributes are copied.  This is
    intended for verification and for small workloads only -- the distributed
    algorithms never construct ``G^k`` (a node of ``G`` does not even know
    its degree in ``G^k``), and the centralized pipelines read ``G^k`` rows
    through :func:`power_adjacency`.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    power = nx.Graph()
    power.add_nodes_from(graph.nodes(data=True))
    if k == 0:
        return power
    if k == 1:
        power.add_edges_from(graph.edges())
        return power
    for node in graph.nodes():
        for other, dist in bounded_bfs(graph, node, k).items():
            if other != node and dist >= 1:
                power.add_edge(node, other)
    return power


def induced_power_subgraph(graph: nx.Graph, k: int, subset: Iterable[Node]) -> nx.Graph:
    """``G^k[X]``: the subgraph of ``G^k`` induced by ``X``.

    Edges correspond to pairs of nodes of ``X`` within distance ``k`` *in G*
    (paths may use nodes outside ``X``), which is the object the paper's MIS
    simulation (Lemma 4.6) operates on.  Built from :func:`power_adjacency`
    rows.
    """
    subset = set(subset)
    induced = nx.Graph()
    induced.add_nodes_from(subset)
    induced.add_edges_from((node, other) for node, row
                           in power_adjacency(graph, k, subset).items()
                           for other in row)
    return induced


def pairwise_distance_at_least(graph: nx.Graph, nodes: Iterable[Node],
                               alpha: int) -> bool:
    """True iff all distinct nodes of ``nodes`` are at distance >= ``alpha``."""
    nodes = list(nodes)
    node_set = set(nodes)
    for node in nodes:
        distances = bounded_bfs(graph, node, alpha - 1)
        for other, dist in distances.items():
            if other != node and other in node_set and dist <= alpha - 1:
                return False
    return True


def k_connected_components(graph: nx.Graph, subset: Iterable[Node],
                           k: int) -> list[set[Node]]:
    """Partition ``subset`` into maximal ``k``-connected pieces.

    ``S`` is ``k``-connected in ``G`` iff ``G^k[S]`` is connected
    (Section 2).  The components are exactly the connected components of
    ``G^k[subset]``.
    """
    subset = set(subset)
    if not subset:
        return []
    components: list[set[Node]] = []
    unvisited = set(subset)
    while unvisited:
        start = next(iter(unvisited))
        component = {start}
        frontier = deque([start])
        unvisited.discard(start)
        while frontier:
            node = frontier.popleft()
            nearby = distance_neighborhood(graph, node, k, restrict_to=unvisited)
            for other in nearby:
                component.add(other)
                unvisited.discard(other)
                frontier.append(other)
        components.append(component)
    return components


def multi_source_bfs(graph: nx.Graph, sources: Iterable[Node]):
    """Distance to, and nearest member of, ``sources`` for every node of ``G``.

    Returns ``(distance, nearest)``, int64 arrays over the node indices of
    the graph's cached base CSR (``_structure_of(graph)``, graph iteration
    order): ``distance[i]`` is ``dist_G(i, sources)`` and ``nearest[i]``
    the index of a member at that distance, both ``-1`` where no member is
    reachable.  Members outside the graph are ignored.  One level-synchronous
    BFS over ``G``'s own edges -- never a ``G^k`` CSR -- in ``O(n + m)``
    array work.  The CSR is cached by graph identity, so an edit that keeps
    ``n`` and ``m`` must be followed by :func:`repro.api.invalidate_fingerprint`.
    """
    import numpy as np

    from repro.congest.topology import _structure_of

    structure = _structure_of(graph)
    arrays = structure.numpy_arrays()
    indptr, neighbors = arrays.indptr, arrays.neighbor_indices
    index_of = structure.index_of
    distance = np.full(structure.n, -1, dtype=np.int64)
    nearest = np.full(structure.n, -1, dtype=np.int64)
    frontier = np.fromiter({index_of[node] for node in sources if node in index_of},
                           dtype=np.int64)
    distance[frontier] = 0
    nearest[frontier] = frontier
    last = np.empty(structure.n, dtype=np.int64)  # scratch: dedupes a frontier
    level = 0
    while len(frontier):
        level += 1
        starts = indptr[frontier].astype(np.int64)
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        # Gather every frontier node's neighbor run in one pass.
        reached = neighbors[np.repeat(starts - (np.cumsum(counts) - counts), counts)
                            + np.arange(total)]
        owners = np.repeat(nearest[frontier], counts)
        fresh = distance[reached] < 0
        reached, owners = reached[fresh], owners[fresh]
        distance[reached] = level
        nearest[reached] = owners  # any owner of a fresh node is a nearest one
        # Keep one position per reached node (np.unique would load numpy.ma).
        positions = np.arange(len(reached))
        last[reached] = positions
        frontier = reached[last[reached] == positions].astype(np.int64)
    return distance, nearest


def domination_distance(graph: nx.Graph, dominators: Iterable[Node],
                        targets: Iterable[Node] | None = None) -> int:
    """``max_{v in targets} dist_G(v, dominators)``.

    Returns the worst-case distance from any target node to the dominating
    set.  Infinite distances (unreachable targets or an empty dominating
    set) are reported as a value larger than the number of nodes so callers
    can compare against finite bounds.
    """
    distance, _ = multi_source_bfs(graph, dominators)
    return farthest_target(graph, distance, targets)


def farthest_target(graph: nx.Graph, distance,
                    targets: Iterable[Node] | None = None) -> int:
    """The largest :func:`multi_source_bfs` ``distance`` over ``targets``
    (every node when None): 0 without targets, ``n + 1`` when a target is
    unreached or outside the graph."""
    import numpy as np

    from repro.congest.topology import _structure_of

    unreachable = graph.number_of_nodes() + 1
    if targets is not None:
        index_of = _structure_of(graph).index_of
        targets = list(targets)
        if any(node not in index_of for node in targets):
            return unreachable
        distance = distance[np.fromiter(map(index_of.__getitem__, targets),
                                        dtype=np.int64, count=len(targets))]
    if not len(distance):
        return 0
    return unreachable if (distance < 0).any() else int(distance.max())
