"""Distance-k ball graphs (Lemma 8.3, Claim 8.4 and Claim 7.6's bookkeeping).

In the post-shattering phase the undecided nodes ``B`` are partitioned into
balls around the nodes of a ruling set ``R``.  The *ball graph* has vertex
set ``R`` and an edge whenever two balls are adjacent in ``G``.  For the
power-graph algorithm a plain ball graph is not enough: two balls may be
within distance ``k`` of each other in ``G`` while being far apart in the
ball graph.  Lemma 8.3 fixes this by growing disjoint *borders* of radius
``k`` around the balls out of the decided nodes, which guarantees that
``dist_G(Ball(v), Ball(w)) <= k`` implies ``dist_B(v, w) <= k`` -- the
*distance-k ball graph* property.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.graphs.power import bounded_bfs

Node = Hashable

__all__ = ["BallGraph", "form_distance_k_ball_graph"]


@dataclass
class BallGraph:
    """A (distance-k) ball graph over the ruling set ``R``.

    Attributes
    ----------
    centers:
        The ruling-set nodes ``R`` (the vertices of the virtual graph).
    balls:
        The original partition ``Ball(v) ⊆ B``.
    extended_balls:
        ``Ball+(v) = Ball(v) ∪ Border(v)`` (pairwise disjoint).
    graph:
        The virtual graph on ``centers``: an edge whenever two extended balls
        are adjacent in ``G``.
    k:
        The distance parameter the construction was run with.
    """

    centers: set[Node]
    balls: dict[Node, set[Node]]
    extended_balls: dict[Node, set[Node]]
    graph: nx.Graph
    k: int
    ball_of_node: dict[Node, Node] = field(default_factory=dict)

    def center_of(self, node: Node) -> Node | None:
        """The center whose extended ball contains ``node`` (None if unassigned)."""
        return self.ball_of_node.get(node)

    def weak_diameter(self, base_graph: nx.Graph) -> int:
        """Max over balls of the eccentricity of the center within ``Ball+`` (in G)."""
        worst = 0
        for center, members in self.extended_balls.items():
            distances = bounded_bfs(base_graph, [center], base_graph.number_of_nodes())
            worst = max(worst, max((distances.get(node, 0) for node in members), default=0))
        return worst

    def validate(self, base_graph: nx.Graph) -> None:
        """Assert the Lemma 8.3 guarantees."""
        # Extended balls are disjoint and contain the original balls.
        seen: set[Node] = set()
        for center in self.centers:
            extended = self.extended_balls[center]
            assert self.balls[center] <= extended, f"ball of {center} not contained in Ball+"
            overlap = seen & extended
            assert not overlap, f"extended balls overlap on {overlap}"
            seen |= extended
        # Distance-k property: close original balls are close in the ball
        # graph.  Each pair v < w (str order) is checked once, from v: one
        # BFS of depth k around Ball(v) finds the balls within distance k.
        # In the ball graph, w is within k of v iff a BFS of depth k - 1
        # from v finds w or one of w's neighbors; the BFS stops as soon as
        # every close ball is found, so a dense ball graph (an expander's)
        # is not searched to depth k from every center.
        centers = sorted(self.centers, key=str)
        position = {center: i for i, center in enumerate(centers)}
        owner = {node: center for center in centers for node in self.balls[center]}
        adjacency = self.graph.adj
        for v in centers:
            close = {owner[node] for node in bounded_bfs(base_graph, self.balls[v], self.k)
                     if node in owner}
            close = sorted((w for w in close if position[w] > position[v]), key=str)
            reached, level = {v}, {v}
            for _ in range(self.k - 1):
                close = [w for w in close if w not in reached]
                if not close:
                    break
                level = {u for x in level for u in adjacency[x] if u not in reached}
                reached |= level
            for w in close:
                if w not in reached and level.isdisjoint(adjacency[w]):
                    length = nx.shortest_path_length(self.graph, v, w) \
                        if nx.has_path(self.graph, v, w) else None
                    raise AssertionError(
                        f"balls of {v} and {w} are within distance {self.k} in G but "
                        f"{length} apart in the ball graph")


def form_distance_k_ball_graph(graph: nx.Graph,
                               balls: Mapping[Node, set[Node]],
                               k: int, *,
                               node_ids: Mapping[Node, int] | None = None,
                               undecided: set[Node] | None = None,
                               ledger: RoundLedger | None = None,
                               ) -> BallGraph:
    """Lemma 8.3: extend the balls with disjoint radius-``k`` borders.

    Parameters
    ----------
    graph:
        The communication graph ``G``.
    balls:
        Partition of the undecided nodes: ``center -> Ball(center)``.  Every
        center must be contained in its own ball.
    k:
        Border radius (the power of the target problem).
    node_ids:
        IDs used to break ties when several searches reach a border node in
        the same BFS round (the paper: "accepts the one with the smallest
        identifier").
    undecided:
        The set ``B`` of undecided nodes.  Border candidates are restricted
        to ``V \\ B`` (the paper: "borders only consist of nodes in V \\ B").
        Defaults to the union of the balls.
    ledger:
        Charged ``O(k)`` rounds (the parallel BFS of the lemma).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}
    balls = {center: set(members) for center, members in balls.items()}
    for center, members in balls.items():
        if center not in members:
            raise ValueError(f"center {center!r} missing from its own ball")
    if undecided is None:
        undecided = set().union(*balls.values()) if balls else set()
    undecided = set(undecided)

    # Synchronous parallel BFS for k rounds.  A decided node adopts the first
    # search that reaches it (smallest center ID on ties) and keeps
    # forwarding it; undecided nodes neither join borders nor forward.
    assignment: dict[Node, Node] = {}
    for center, members in balls.items():
        for node in members:
            assignment[node] = center

    frontier: dict[Node, Node] = {}
    for center, members in balls.items():
        for node in members:
            frontier[node] = center

    borders: dict[Node, set[Node]] = {center: set() for center in balls}
    for _ in range(max(0, k)):
        proposals: dict[Node, Node] = {}
        for node, center in frontier.items():
            for neighbor in graph.neighbors(node):
                if neighbor in assignment or neighbor in undecided:
                    continue
                incumbent = proposals.get(neighbor)
                if incumbent is None or node_ids[center] < node_ids[incumbent]:
                    proposals[neighbor] = center
        frontier = {}
        for node, center in proposals.items():
            assignment[node] = center
            borders[center].add(node)
            frontier[node] = center
        if not frontier:
            break
    ledger.charge_flooding(max(1, k), label="ball-borders")

    extended = {center: balls[center] | borders[center] for center in balls}

    # The ball graph: an edge between two centers whenever their extended
    # balls are adjacent in G.
    ball_graph = nx.Graph()
    ball_graph.add_nodes_from(balls)
    membership = {node: center for center, members in extended.items() for node in members}
    for u, v in graph.edges():
        cu = membership.get(u)
        cv = membership.get(v)
        if cu is not None and cv is not None and cu != cv:
            ball_graph.add_edge(cu, cv)

    return BallGraph(centers=set(balls), balls=balls, extended_balls=extended,
                     graph=ball_graph, k=k, ball_of_node=membership)
