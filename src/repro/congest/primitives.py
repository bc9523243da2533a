"""Basic distributed primitives implemented on the layered CONGEST runtime.

These are the textbook building blocks (flooding, BFS layering, leader
election by ID flooding, convergecast of a sum) that the paper takes for
granted.  They serve two purposes in the reproduction:

* they validate the runtime itself (their round counts have well-known
  closed forms -- e.g. flooding completes in ``ecc(source)`` rounds -- which
  the unit tests check against the graph-theoretic quantities);
* they are the concrete counterparts of the analytic charges in
  :class:`repro.congest.cost.RoundLedger` (Lemma 4.3 convergecast,
  leader election, BFS-tree construction).

Each primitive comes in two pieces: the per-node state machine
(:class:`NodeAlgorithm` subclass) and a ``run_*`` driver that wires it into
the :class:`~repro.congest.simulator.Simulator` facade.  The drivers accept
the facade's ``engine=`` / ``observers=`` arguments, so the same primitive
runs under any registered engine and with any observers attached.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping

from repro.congest.bfs import BFSTree, build_spanning_bfs_tree
from repro.congest.network import CongestNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.simulator import SimulationResult, Simulator

Node = Hashable

__all__ = [
    "BFSLayering",
    "ConvergecastSum",
    "FloodingBroadcast",
    "LeaderElection",
    "run_bfs_layering",
    "run_convergecast_sum",
    "run_flooding",
    "run_leader_election",
]


class FloodingBroadcast(NodeAlgorithm):
    """The source floods a value; every node halts once it has learned it.

    Completes in ``ecc(source)`` communication rounds; the output of every
    node is the broadcast value.
    """

    def __init__(self, is_source: bool = False, value: Any = None) -> None:
        super().__init__()
        self.is_source = is_source
        self.value = value if is_source else None
        self._pending_send = is_source

    def send(self, round_number: int) -> Mapping[Node, Any]:
        if self._pending_send and self.value is not None:
            self._pending_send = False
            return self.broadcast(self.value)
        return {}

    def receive(self, round_number: int, inbox: Mapping[Node, Any]) -> None:
        if self.value is None and inbox:
            self.value = next(iter(inbox.values()))
            self._pending_send = True
        if self.value is not None and not self._pending_send:
            self.halt(self.value)
        elif self.value is not None and self._pending_send:
            # Halt after forwarding once.
            pass

    def finalize(self) -> None:
        if self.value is not None:
            self.halt(self.value)


class BFSLayering(NodeAlgorithm):
    """Every node learns its BFS distance from the source.

    The source starts at distance 0; a node adopts ``1 + min`` of the
    distances it hears.  Output: the distance (or ``None`` if unreachable).
    """

    def __init__(self, is_source: bool = False) -> None:
        super().__init__()
        self.is_source = is_source
        self.distance: int | None = 0 if is_source else None
        self._announce = is_source

    def send(self, round_number: int) -> Mapping[Node, Any]:
        if self._announce:
            self._announce = False
            return self.broadcast(self.distance)
        return {}

    def receive(self, round_number: int, inbox: Mapping[Node, Any]) -> None:
        if self.distance is None and inbox:
            self.distance = 1 + min(inbox.values())
            self._announce = True
        if self.distance is not None and not self._announce:
            self.halt(self.distance)

    def finalize(self) -> None:
        self.halt(self.distance)


class LeaderElection(NodeAlgorithm):
    """Flood the maximum ID; the node holding it becomes the leader.

    Runs for ``rounds_budget`` rounds (callers pass an upper bound on the
    diameter, or ``n``).  Output: ``True`` for the leader, ``False``
    otherwise.
    """

    def __init__(self, rounds_budget: int) -> None:
        super().__init__()
        self.rounds_budget = rounds_budget
        self.best_id = -1
        self._dirty = True

    def initialize(self) -> None:
        self.best_id = self.node_id

    def send(self, round_number: int) -> Mapping[Node, Any]:
        if self._dirty:
            self._dirty = False
            return self.broadcast(self.best_id)
        return {}

    def receive(self, round_number: int, inbox: Mapping[Node, Any]) -> None:
        for value in inbox.values():
            if value > self.best_id:
                self.best_id = value
                self._dirty = True
        if round_number >= self.rounds_budget:
            self.halt(self.best_id == self.node_id)


class ConvergecastSum(NodeAlgorithm):
    """Sum a per-node integer up a precomputed BFS tree.

    Each node is given its parent (``None`` for the root), its children and
    its local value.  Leaves send immediately; internal nodes send once all
    children have reported.  The root's output is the global sum; everyone
    else outputs ``None``.  Completes in ``depth(tree)`` rounds.
    """

    def __init__(self, parent: Node | None, children: set[Node], value: int) -> None:
        super().__init__()
        self.parent = parent
        self.children = set(children)
        self.value = value
        self._received_from: dict[Node, int] = {}
        self._sent = False

    def send(self, round_number: int) -> Mapping[Node, Any]:
        ready = set(self._received_from) >= self.children
        if ready and not self._sent and self.parent is not None:
            self._sent = True
            total = self.value + sum(self._received_from.values())
            return {self.parent: total}
        return {}

    def receive(self, round_number: int, inbox: Mapping[Node, Any]) -> None:
        for sender, value in inbox.items():
            if sender in self.children:
                self._received_from[sender] = value
        done_children = set(self._received_from) >= self.children
        if self.parent is None and done_children:
            self.halt(self.value + sum(self._received_from.values()))
        elif self.parent is not None and self._sent:
            self.halt(None)

    def finalize(self) -> None:
        if self.parent is None and not self.halted:
            self.halt(self.value + sum(self._received_from.values()))


# --------------------------------------------------------------------- drivers
def run_flooding(network: CongestNetwork, source: Node, value: Any, *,
                 engine=None, observers: Iterable = (),
                 max_rounds: int = 10_000) -> SimulationResult:
    """Flood ``value`` from ``source``; every node's output is the value."""
    simulator = Simulator(
        network,
        lambda node: FloodingBroadcast(is_source=(node == source), value=value),
        engine=engine, observers=observers)
    return simulator.run(max_rounds)


def run_bfs_layering(network: CongestNetwork, source: Node, *,
                     engine=None, observers: Iterable = (),
                     max_rounds: int = 10_000) -> SimulationResult:
    """Every node's output is its BFS distance from ``source`` (or ``None``)."""
    simulator = Simulator(
        network, lambda node: BFSLayering(is_source=(node == source)),
        engine=engine, observers=observers)
    return simulator.run(max_rounds)


def run_leader_election(network: CongestNetwork, *, rounds_budget: int | None = None,
                        engine=None, observers: Iterable = (),
                        max_rounds: int = 10_000) -> SimulationResult:
    """Flood the maximum ID for ``rounds_budget`` rounds (default ``n``)."""
    budget = network.n if rounds_budget is None else rounds_budget
    simulator = Simulator(
        network, lambda node: LeaderElection(rounds_budget=budget),
        engine=engine, observers=observers)
    return simulator.run(max_rounds)


def run_convergecast_sum(network: CongestNetwork, values: Mapping[Node, int], *,
                         tree: BFSTree | None = None, engine=None,
                         observers: Iterable = (),
                         max_rounds: int = 10_000) -> SimulationResult:
    """Sum ``values`` up a BFS tree; the root's output is the global sum."""
    if tree is None:
        tree = build_spanning_bfs_tree(network)

    def factory(node: Node) -> ConvergecastSum:
        return ConvergecastSum(parent=tree.parent[node],
                               children=tree.children.get(node, set()),
                               value=values[node])

    simulator = Simulator(network, factory, engine=engine, observers=observers)
    return simulator.run(max_rounds)
