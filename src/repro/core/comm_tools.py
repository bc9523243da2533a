"""Communication tools for sparse subsets of power graphs (Section 4).

Once a sparse set ``Q`` is available (every node has at most ``hat_delta``
distance-``(s-1)`` ``Q``-neighbors), the paper builds all further
communication out of four primitives:

* **Lemma 4.1** -- every node learns the IDs of its distance-``(s+1)``
  ``Q``-neighborhood from knowledge of the distance-``s`` one, and the BFS
  trees rooted at ``Q`` are extended by one level; cost
  ``O(hat_delta * a / bandwidth)`` rounds.
* **Lemma 4.2 (Broadcast)** -- every ``v in Q`` sends one ``m``-bit message to
  all of ``N^s(v)``; cost ``O(s + m * hat_delta / bandwidth)`` rounds.
* **Lemma 4.2 (Q-message)** -- every ``v in Q`` sends an individual ``m``-bit
  message to each ``w in N^s(v, Q)``; cost
  ``O(s + (m + a) * hat_delta^2 / bandwidth)`` rounds.
* **Lemma 4.3** -- convergecast of a sum over a spanning BFS tree;
  ``O(diam(G) + (m + log n)/bandwidth)`` rounds.
* **Lemma 4.6** -- any CONGEST algorithm on the virtual graph ``G^s[Q]`` can
  be simulated with an ``O(s + hat_delta^2)`` factor slowdown by implementing
  each of its rounds with one Q-message call.

The implementations below compute the *information* these primitives deliver
(ID sets, BFS trees, message deliveries) centrally, charge the corresponding
round costs to a :class:`~repro.congest.cost.RoundLedger`, and optionally
report per-edge congestion (used by the Figure-1 tightness experiment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Hashable, Iterator, Mapping

import networkx as nx

from repro.congest.bfs import BFSTree, build_bfs_tree
from repro.congest.cost import RoundLedger
from repro.congest.message import DEFAULT_BANDWIDTH_BITS, id_bits as id_bit_length
from repro.graphs.power import PowerRows, induced_power_subgraph, max_power_degree

Node = Hashable

__all__ = [
    "CommunicationTools",
    "broadcast_from_q",
    "learn_distance_ids",
    "q_message",
    "simulate_on_power_subgraph",
]


def _canonical_edge(u: Node, v: Node) -> tuple[Node, Node]:
    return (u, v) if str(u) <= str(v) else (v, u)


class BFSTrees(Mapping[Node, BFSTree]):
    """The depth-``s`` BFS trees rooted at every node of ``Q``, each built
    on first access (most callers route through a few roots, or none)."""

    def __init__(self, graph: nx.Graph, roots: set[Node], depth: int) -> None:
        self._graph = graph
        self._roots = roots
        self._depth = depth
        self._built: dict[Node, BFSTree] = {}

    def __getitem__(self, root: Node) -> BFSTree:
        tree = self._built.get(root)
        if tree is None:
            if root not in self._roots:
                raise KeyError(root)
            tree = self._built[root] = build_bfs_tree(self._graph, root,
                                                      depth=self._depth)
        return tree

    def __iter__(self) -> Iterator[Node]:
        return iter(self._roots)

    def __len__(self) -> int:
        return len(self._roots)


@dataclass
class CommunicationTools:
    """The distributed knowledge built by Lemma 4.1 for a sparse set ``Q``.

    Attributes
    ----------
    graph, q, s:
        The communication network, the sparse set and the radius.
    node_ids:
        The O(log n)-bit identifiers.
    trees:
        A depth-``s`` BFS tree rooted at every node of ``Q`` (each node of
        the tree knows its ancestor / descendants -- the :class:`BFSTree`
        structure carries exactly that), built on first access.
    q_neighborhoods:
        ``v -> N^s(v, Q)`` for every node ``v`` of ``G``, read off the
        ``G^s`` CSR row by row (:class:`~repro.graphs.power.PowerRows`),
        built on first access.
    hat_delta:
        ``max_v d_{s-1}(v, Q)`` (the sparsity parameter governing the cost of
        Lemma 4.2) and ``hat_delta_s = max_v d_s(v, Q)``.
    ledger:
        Where the construction and all subsequent primitive calls charge
        their rounds.
    """

    graph: nx.Graph
    q: set[Node]
    s: int
    node_ids: dict[Node, int]
    trees: Mapping[Node, BFSTree]
    hat_delta: int
    hat_delta_s: int
    bandwidth_bits: int
    ledger: RoundLedger
    id_bits: int = field(init=False)

    def __post_init__(self) -> None:
        self.id_bits = max(1, math.ceil(math.log2(max(2, max(self.node_ids.values(), default=2) + 1))))

    @cached_property
    def q_neighborhoods(self) -> PowerRows:
        return PowerRows(self.graph, self.s, self.q)

    # ----------------------------------------------------------- helpers
    def virtual_graph(self) -> nx.Graph:
        """The virtual graph ``G^s[Q]`` (Definition 4.4)."""
        return induced_power_subgraph(self.graph, self.s, self.q)


def learn_distance_ids(graph: nx.Graph, q: set[Node], s: int, *,
                       node_ids: Mapping[Node, int] | None = None,
                       ledger: RoundLedger | None = None,
                       bandwidth_bits: int = DEFAULT_BANDWIDTH_BITS,
                       ) -> CommunicationTools:
    """Iterate Lemma 4.1 to build the distributed knowledge for radius ``s``.

    Starting from ``N^0(v, Q) = {v} ∩ Q``, each of the ``s`` iterations has
    every node forward its current ID set to its neighbors (pipelined), and
    extends the BFS trees rooted at ``Q`` by one level.  The cost charged per
    iteration is ``ceil(hat_delta_j * a / bandwidth)`` rounds where
    ``hat_delta_j`` is the current maximum ``Q``-degree.
    """
    q = set(q)
    ledger = ledger if ledger is not None else RoundLedger(bandwidth_bits=bandwidth_bits)
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}
    a_bits = max(1, math.ceil(math.log2(max(2, max(node_ids.values(), default=2) + 1))))

    # Centralized construction of what the iterations of Lemma 4.1 deliver:
    # hat_delta_j = max_v d_j(v, Q) for j = 0..s (d_0 = 0: N^0 is empty),
    # d_s counted on the cached G^s CSR, whose rows the Lemma 4.6 MIS reads.
    hat_deltas = [max_power_degree(graph, level, q) for level in range(s)]
    hat_deltas.append(int(PowerRows(graph, s, q).counts().max(initial=0)))

    # Charge the s pipelining iterations.
    for level in range(1, s + 1):
        ledger.charge_learn_ids(max(1, hat_deltas[level]), a_bits,
                                label=f"learn-ids-level-{level}")

    return CommunicationTools(graph=graph, q=q, s=s, node_ids=dict(node_ids),
                              trees=BFSTrees(graph, q, s),
                              hat_delta=max(1, hat_deltas[max(0, s - 1)]),
                              hat_delta_s=max(1, hat_deltas[s]),
                              bandwidth_bits=bandwidth_bits, ledger=ledger)


def broadcast_from_q(tools: CommunicationTools, messages: Mapping[Node, Any], *,
                     message_bits: int,
                     track_congestion: bool = False,
                     ) -> tuple[dict[Node, dict[Node, Any]], dict[tuple[Node, Node], int]]:
    """Lemma 4.2 (Broadcast): each ``v in Q`` sends ``messages[v]`` to all of ``N^s(v)``.

    Returns ``(deliveries, congestion)`` where ``deliveries[w][v]`` is the
    message ``w`` received from ``v`` (for every ``w`` within distance ``s``
    of ``v``), and ``congestion`` maps communication edges to the number of
    broadcasts routed through them (only populated when ``track_congestion``).
    """
    deliveries: dict[Node, dict[Node, Any]] = {node: {} for node in tools.graph.nodes()}
    congestion: dict[tuple[Node, Node], int] = {}
    for sender, payload in messages.items():
        if sender not in tools.q:
            raise ValueError(f"broadcast sender {sender!r} is not in Q")
        tree = tools.trees[sender]
        for receiver in tree.nodes:
            if receiver != sender:
                deliveries[receiver][sender] = payload
        if track_congestion:
            for edge in tree.edges():
                congestion[edge] = congestion.get(edge, 0) + 1
    tools.ledger.charge_broadcast(tools.s, message_bits, tools.hat_delta, label="broadcast")
    return deliveries, congestion


def q_message(tools: CommunicationTools, messages: Mapping[Node, Mapping[Node, Any]], *,
              message_bits: int,
              track_congestion: bool = False,
              ) -> tuple[dict[Node, dict[Node, Any]], dict[tuple[Node, Node], int]]:
    """Lemma 4.2 (Q-message): each ``v in Q`` sends ``messages[v][w]`` to ``w in N^s(v, Q)``.

    Returns ``(deliveries, congestion)`` where ``deliveries[w][v]`` is the
    message ``w`` received from ``v`` and ``congestion`` counts, per edge, the
    number of (sender, receiver) pairs routed through it (the two-step
    routing of the paper: distribute over the sender's immediate neighbors,
    then broadcast in the subtrees).
    """
    deliveries: dict[Node, dict[Node, Any]] = {node: {} for node in tools.graph.nodes()}
    congestion: dict[tuple[Node, Node], int] = {}
    for sender, per_receiver in messages.items():
        if sender not in tools.q:
            raise ValueError(f"Q-message sender {sender!r} is not in Q")
        tree = tools.trees[sender]
        allowed = tools.q_neighborhoods[sender]
        for receiver, payload in per_receiver.items():
            if receiver not in allowed and receiver != sender:
                raise ValueError(
                    f"Q-message receiver {receiver!r} is not a distance-{tools.s} Q-neighbor "
                    f"of {sender!r}")
            deliveries[receiver][sender] = payload
            if track_congestion and receiver in tree.nodes:
                path = tree.path_to_root(receiver)
                for u, v in zip(path, path[1:]):
                    edge = _canonical_edge(u, v)
                    congestion[edge] = congestion.get(edge, 0) + 1
    tools.ledger.charge_q_message(tools.s, message_bits, tools.id_bits, tools.hat_delta,
                                  label="q-message")
    return deliveries, congestion


@dataclass
class PowerSubgraphSimulation:
    """Handle returned by :func:`simulate_on_power_subgraph` (Lemma 4.6)."""

    tools: CommunicationTools

    @cached_property
    def virtual_graph(self) -> nx.Graph:
        """``G^s[Q]`` as a networkx graph, built on first access."""
        return self.tools.virtual_graph()

    def charge_rounds(self, algorithm_rounds: int, *, message_bits: int | None = None,
                      label: str = "simulate-Gs[Q]") -> int:
        """Charge the cost of ``algorithm_rounds`` rounds of a CONGEST algorithm
        on ``G^s[Q]`` (every round costs the same, so as one entry)."""
        bits = message_bits if message_bits is not None else self.tools.bandwidth_bits
        return self.tools.ledger.charge_simulated_round(
            self.tools.s, bits, self.tools.id_bits, self.tools.hat_delta, label=label,
            rounds=algorithm_rounds)


def simulate_on_power_subgraph(tools: CommunicationTools) -> PowerSubgraphSimulation:
    """Lemma 4.6: prepare the simulation of an arbitrary algorithm on ``G^s[Q]``.

    The returned handle exposes the virtual graph (a networkx graph built
    on first access; ``tools.q_neighborhoods`` gives its rows without the
    graph) so the algorithm can be run on it directly, and a
    ``charge_rounds`` method implementing the
    ``O((s + hat_delta^2) * T_A)`` slowdown of the lemma.
    """
    return PowerSubgraphSimulation(tools=tools)
