"""Power graphs and the two distance primitives (Section 2 of the paper).

The problem instance throughout the paper is the power graph ``G^k``: the
graph on the same vertex set as ``G`` where two nodes are adjacent iff their
distance in ``G`` is at most ``k``.  The communication network remains ``G``.
The algorithms ask ``G`` two questions, and each has one answer here:

* **What is ``N^s(v) ∩ X``?**  The ``G^s`` CSR cached on the graph's
  shared :class:`~repro.congest.power_view.PowerView` is the one source:
  the array-native pipelines read it through
  :func:`repro.congest.topology.graph_csr` and mask it to ``X``
  themselves, :class:`PowerRows` hands out its rows ``∩ X`` as label
  sets (built per row, on first access) for callers that need sets, and
  :func:`max_power_degree` counts ``|N^s(v) ∩ X|`` on it.  A row never
  lists its own node.  At ``s = 1``, ``graph_csr`` hands out ``G``'s own
  rows, in networkx adjacency order (unless ``G`` has self-loops); the
  ``G^s`` rows are ascending in node index.  A caller whose output
  depends on the order in which it walks a row (the derandomizer's
  sums, :mod:`repro.core.events`) sorts the ``s = 1`` rows itself.
* **How far is every node from a set?**  :func:`multi_source_bfs` answers
  for the whole graph in one array BFS over ``G``'s own CSR (distance and
  nearest member, ties to the member the caller lists first); every
  distance certificate and :func:`nearest_ruler_balls` read it.
  :func:`bounded_bfs` answers inside a radius -- the local ball around a
  set of sources -- without touching the rest of the graph.

Built on those: :func:`power_graph` and :func:`induced_power_subgraph`
materialise ``G^k`` and ``G^k[X]`` (note: *not* ``(G[X])^k``; paths may
leave ``X``), and :func:`k_connected_components` splits a set into maximal
``k``-connected pieces (Lemma 7.3 / Lemma 8.1).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator, Mapping

import networkx as nx

Node = Hashable

__all__ = [
    "PowerRows",
    "bounded_bfs",
    "farthest_target",
    "induced_power_subgraph",
    "k_connected_components",
    "max_power_degree",
    "multi_source_bfs",
    "nearest_ruler_balls",
    "power_graph",
]


def bounded_bfs(graph: nx.Graph, sources: Iterable[Node],
                depth: int) -> dict[Node, int]:
    """Distances from the set ``sources``, truncated at ``depth``.

    Returns ``node -> dist_G(node, sources)`` for every node within
    ``depth`` hops, the sources themselves at distance 0; keys are in BFS
    order, the sources first in the order given.  ``sources`` is an
    iterable of nodes -- a single source is passed as ``[node]``; a bare
    node label is refused, since a tuple label (grid graphs) would
    otherwise be read as a set of sources.
    """
    if sources in graph:
        raise TypeError(f"sources must be an iterable of nodes, got the node "
                        f"{sources!r}; pass [{sources!r}]")
    if depth < 0:
        return {}
    distances: dict[Node, int] = dict.fromkeys(sources, 0)
    adjacency = graph._adj
    frontier = deque(distances)
    while frontier:
        node = frontier.popleft()
        dist = distances[node]
        if dist == depth:
            continue
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = dist + 1
                frontier.append(neighbor)
    return distances


class PowerRows(Mapping[Node, set[Node]]):
    """``v -> N^k(v) ∩ X`` for every node ``v`` of ``G``, in graph order.

    The label-set form of the graph's cached ``G^k`` CSR
    (:func:`~repro.congest.topology.graph_csr`, built on the first call):
    each row is masked to ``X`` = ``restrict_to`` and turned into a set on
    first access, then kept.  Distances are measured in the full graph
    even though ``X`` restricts the columns (the paper's ``G^k[X]``,
    Section 2); labels of ``X`` outside the graph are ignored.  The CSR is
    cached by graph identity: after an edit that keeps the node and edge
    counts, call :func:`repro.api.invalidate_fingerprint`.
    """

    def __init__(self, graph: nx.Graph, k: int, restrict_to: Iterable[Node]) -> None:
        from repro.congest.power_view import label_mask
        from repro.congest.topology import graph_csr

        structure, self._indptr, self._indices = graph_csr(graph, k)
        self._labels, self._index_of = structure.labels, structure.index_of
        self._mask = label_mask(structure, restrict_to)
        self._rows: dict[Node, set[Node]] = {}

    def counts(self):
        """``|N^k(v) ∩ X|`` for every node, an int64 array in graph order."""
        from repro.congest.power_view import row_hits

        return row_hits(self._indptr, self._indices, self._mask)

    def __getitem__(self, node: Node) -> set[Node]:
        row = self._rows.get(node)
        if row is None:
            i = self._index_of[node]
            columns = self._indices[self._indptr[i]:self._indptr[i + 1]]
            row = self._rows[node] = set(
                map(self._labels.__getitem__, columns[self._mask[columns]].tolist()))
        return row

    def __iter__(self) -> Iterator[Node]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


def max_power_degree(graph: nx.Graph, k: int,
                     restrict_to: Iterable[Node] | None = None) -> int:
    """``max_v d_k(v, X) = max_v |N^k(v) ∩ X|`` over every node ``v`` of
    ``G`` (``X`` = all nodes when ``restrict_to`` is None; labels outside
    the graph are ignored).  At ``k = 1`` counted on ``G``'s own rows
    (:func:`~repro.congest.topology.graph_csr`); at ``k >= 2`` on the
    graph's cached ``G^k`` CSR when one was built (a solve reading ``G^k``
    builds it), else streamed without storing ``G^k``
    (:meth:`~repro.congest.power_view.PowerView.restricted_degrees`)."""
    if k < 1 or graph.number_of_nodes() == 0:
        return 0
    if k == 1:
        degrees = PowerRows(graph, 1, graph if restrict_to is None else restrict_to).counts()
    else:
        from repro.congest.topology import graph_power_view

        degrees = graph_power_view(graph, k).restricted_degrees(restrict_to)
    return int(degrees.max(initial=0))


def power_graph(graph: nx.Graph, k: int) -> nx.Graph:
    """Materialise the power graph ``G^k``.

    ``G^0`` has no edges; ``G^1 = G``.  Node attributes are copied.  This is
    intended for verification and for small workloads only -- the distributed
    algorithms never construct ``G^k`` (a node of ``G`` does not even know
    its degree in ``G^k``), and the centralized pipelines read ``G^k`` rows
    from the graph's cached CSR (:class:`PowerRows`).
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
        for other, dist in bounded_bfs(graph, [node], k).items():
            if other != node and dist >= 1:
                power.add_edge(node, other)
    return power


def induced_power_subgraph(graph: nx.Graph, k: int, subset: Iterable[Node]) -> nx.Graph:
    """``G^k[X]``: the subgraph of ``G^k`` induced by ``X``.

    Edges correspond to pairs of nodes of ``X`` within distance ``k`` *in G*
    (paths may use nodes outside ``X``), which is the object the paper's MIS
    simulation (Lemma 4.6) operates on.  Built from the masked CSR rows
    (:class:`PowerRows`).
    """
    subset = set(subset)
    rows = PowerRows(graph, k, subset)
    induced = nx.Graph()
    induced.add_nodes_from(subset)
    induced.add_edges_from((node, other) for node in subset for other in rows[node])
    return induced


def k_connected_components(graph: nx.Graph, subset: Iterable[Node],
                           k: int) -> list[set[Node]]:
    """Partition ``subset`` into maximal ``k``-connected pieces.

    ``S`` is ``k``-connected in ``G`` iff ``G^k[S]`` is connected
    (Section 2).  The components are exactly the connected components of
    ``G^k[subset]``, searched over the CSR rows masked to ``subset``
    (:class:`PowerRows`); each search starts at the first unvisited node
    in ``subset``'s order.
    """
    subset = set(subset)
    if not subset:
        return []
    rows = PowerRows(graph, k, subset)
    components: list[set[Node]] = []
    unvisited = set(subset)
    while unvisited:
        start = next(iter(unvisited))
        component = {start}
        frontier = deque([start])
        unvisited.discard(start)
        while frontier:
            for other in rows[frontier.popleft()] & unvisited:
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
    reachable.  Of several members at that distance, ``nearest`` names the
    one that comes first in ``sources``.  Members outside the graph are
    ignored.  One level-synchronous BFS over ``G``'s own edges -- never a
    ``G^k`` CSR -- in ``O((n + m) log n)`` array work.  The CSR is cached by
    graph identity, so an edit that keeps ``n`` and ``m`` must be followed
    by :func:`repro.api.invalidate_fingerprint`.
    """
    import numpy as np

    from repro.congest.power_view import row_entries
    from repro.congest.topology import _structure_of

    structure = _structure_of(graph)
    arrays = structure.numpy_arrays()
    indptr, neighbors = arrays.indptr, arrays.neighbor_indices
    index_of = structure.index_of
    # Members in caller order, first occurrence kept; ``rank`` is a
    # member's position there, and the BFS carries ranks, not indices.
    members = np.fromiter(dict.fromkeys(index_of[node] for node in sources
                                        if node in index_of), dtype=np.int64)
    distance = np.full(structure.n, -1, dtype=np.int64)
    rank = np.full(structure.n, -1, dtype=np.int64)
    distance[members] = 0
    rank[members] = np.arange(len(members))
    frontier = members
    level = 0
    while len(frontier):
        level += 1
        # Gather every frontier node's neighbor run in one pass.
        reached = row_entries(indptr, neighbors, frontier).astype(np.int64)
        owners = np.repeat(rank[frontier], indptr[frontier + 1] - indptr[frontier])
        fresh = distance[reached] < 0
        reached, owners = reached[fresh], owners[fresh]
        # The smallest owner rank of each fresh node: the first of its run
        # once sorted by (node, rank).  Its nearest members are the union
        # of its reaching neighbors' nearest members.
        order = np.lexsort((owners, reached))
        reached, owners = reached[order], owners[order]
        first = np.ones(len(reached), dtype=bool)
        first[1:] = reached[1:] != reached[:-1]
        frontier = reached[first]
        distance[frontier] = level
        rank[frontier] = owners[first]
    nearest = np.full(structure.n, -1, dtype=np.int64)
    reached = rank >= 0
    nearest[reached] = members[rank[reached]]
    return distance, nearest


def nearest_ruler_balls(graph: nx.Graph, nodes: Iterable[Node],
                        rulers: Iterable[Node]) -> dict[Node, set[Node]]:
    """Partition ``nodes`` into balls around their nearest ruler.

    Returns ``{ruler: Ball(ruler)}`` in ``rulers`` order, each ball starting
    as ``{ruler}``; every other node of ``nodes`` joins the ruler with the
    smallest ``(dist_G(node, ruler), str(ruler))``, or the ruler with the
    smallest ``str`` when none is reachable, and is added in ``nodes``'
    iteration order.  The ball partition of Claim 7.6 and Lemma 8.3, read
    from one :func:`multi_source_bfs` over the rulers in ``str`` order.
    """
    from repro.congest.topology import _structure_of

    balls: dict[Node, set[Node]] = {ruler: {ruler} for ruler in rulers}
    by_label = sorted(balls, key=str)
    _, nearest = multi_source_bfs(graph, by_label)
    structure = _structure_of(graph)
    labels, index_of = structure.labels, structure.index_of
    nearest = nearest.tolist()
    for node in nodes:
        if node in balls:
            continue
        owner = nearest[index_of[node]]
        balls[labels[owner] if owner >= 0 else by_label[0]].add(node)
    return balls


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
