"""Luby's algorithm on ``G`` and on power graphs (Section 8.1).

Luby's algorithm [Lub86, ABI86] in the random-priority formulation of
[MRSZ11]: in every step each undecided node draws a random number from
``[n^c]``; a node whose number is strictly smaller than those of all its
undecided neighbors joins the MIS and its neighborhood becomes decided.  The
algorithm finishes in ``O(log n)`` steps w.h.p.

On the power graph ``G^k`` (with communication network ``G``) each step is
simulated with a ``k``-factor slowdown: the minimum of the random values in
the distance-``k`` neighborhood is aggregated over ``k`` hops and joining
nodes alert their distance-``k`` neighborhood (the paper notes that the
degree-independent variant is essential because nodes do not know their
``G^k`` degree).

Two implementations are provided:

* :class:`LubyMISNode` -- the per-node state machine for the real
  message-passing simulator (``k = 1`` only).
* :func:`luby_mis` / :func:`luby_mis_power` -- graph-level executions with
  round accounting, usable for any ``k``.

The graph-level step reads ``G^k`` as rows of the graph's cached CSR
(``G``'s own at ``k = 1``): the local-minimum test compares priorities
along every row entry between undecided nodes, and the winners' rows are
one scatter into the decided mask.  The priorities stay per node under the
*draw-order contract* of :mod:`repro.mis.beeping`, which keeps every run
bit-identical to the set-based loop it replaced
(``tests/test_kp12_luby_oracle.py`` keeps that loop as the oracle): each
step draws one ``rng.randrange`` per undecided node in the iteration order
of the ``undecided`` set, which is built as before (a set of a dict of the
nodes) and only shrinks by ``-=``; ``mis`` grows by ``|=`` of the winners
in that order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.congest.node import NodeAlgorithm
from repro.congest.power_view import row_entries
from repro.congest.topology import graph_csr

Node = Hashable

__all__ = ["LubyMISNode", "LubyResult", "luby_mis", "luby_mis_power"]

#: Random priorities are drawn from [n^PRIORITY_EXPONENT] so ties are unlikely
#: (``c`` in [MRSZ11]); ties are broken by ID to keep runs deterministic
#: given the seed.
PRIORITY_EXPONENT = 3

_PRIORITY_SPACES: dict[int, int] = {}


def shared_priority_space(n: int) -> int:
    """``n ** PRIORITY_EXPONENT`` as one shared int object per ``n``.

    Every node of a run stores the same space; sharing the object keeps
    per-instance protocol state O(1) instead of one multi-digit int per
    node (which dwarfs the adjacency arrays at n >= 10^5).
    """
    space = _PRIORITY_SPACES.get(n)
    if space is None:
        space = _PRIORITY_SPACES[n] = n ** PRIORITY_EXPONENT
    return space


@dataclass
class LubyResult:
    """Output of a graph-level Luby execution."""

    mis: set[Node]
    steps: int
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def _luby_rows(graph: nx.Graph, k: int, keys: Iterable[Node],
               rng: random.Random) -> tuple[set[Node], int]:
    """Luby's algorithm on ``G^k[keys]`` over the graph's cached CSR rows.

    Returns the MIS and the number of steps used.  The draws follow the
    module's draw-order contract: ``undecided`` is a set of a dict of
    ``keys``, one priority per undecided node in its iteration order.
    """
    import numpy as np

    structure, indptr, indices = graph_csr(graph, k)
    labels, index_of = structure.labels, structure.index_of
    space = shared_priority_space(max(2, graph.number_of_nodes()))
    dtype = np.int64 if space <= 1 << 63 else object
    undecided = set(dict.fromkeys(keys))
    priority = np.zeros(structure.n, dtype=dtype)
    mis: set[Node] = set()
    steps = 0
    while undecided:
        steps += 1
        order = list(undecided)
        index = np.fromiter(map(index_of.__getitem__, order), dtype=np.int64,
                            count=len(order))
        priority[index] = [rng.randrange(space) for _ in order]
        # A node wins iff its (priority, str(node)) is below that of every
        # undecided node in its row: compare along each row entry.
        live = np.zeros(structure.n, dtype=bool)
        live[index] = True
        owners = np.repeat(index, indptr[index + 1] - indptr[index])
        others = row_entries(indptr, indices, index)
        owners, others = owners[live[others]], others[live[others]]
        below = priority[owners] < priority[others]
        for entry in np.flatnonzero(priority[owners] == priority[others]).tolist():
            below[entry] = str(labels[owners[entry]]) < str(labels[others[entry]])
        beaten = np.zeros(structure.n, dtype=bool)
        beaten[owners[~below]] = True
        wins = ~beaten[index]
        mis |= set(compress(order, wins.tolist()))
        # The winners and their rows become decided.
        decided = np.zeros(structure.n, dtype=bool)
        decided[index[wins]] = True
        decided[row_entries(indptr, indices, index[wins])] = True
        undecided -= set(compress(order, decided[index].tolist()))
    return mis, steps


def luby_mis(graph: nx.Graph, *, rng: random.Random | None = None,
             ledger: RoundLedger | None = None) -> LubyResult:
    """Luby's algorithm on ``G`` (graph-level; 2 rounds per step)."""
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    mis, steps = _luby_rows(graph, 1, graph.nodes(), rng)
    for step in range(steps):
        ledger.charge(2, label="luby-step")
    return LubyResult(mis=mis, steps=steps, ledger=ledger)


def luby_mis_power(graph: nx.Graph, k: int, *, rng: random.Random | None = None,
                   ledger: RoundLedger | None = None,
                   candidates: set[Node] | None = None) -> LubyResult:
    """Luby's algorithm on ``G^k`` with communication network ``G``.

    Each step costs ``2k`` rounds: ``k`` to aggregate the minimum random
    value over the distance-``k`` neighborhood and ``k`` to alert it after
    joining.  ``candidates`` restricts the nodes allowed to join (MIS of
    ``G^k[candidates]``); distances are still measured in ``G``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    nodes = set(graph.nodes()) if candidates is None else set(candidates)
    mis, steps = _luby_rows(graph, k, nodes, rng)
    for step in range(steps):
        ledger.charge(2 * k, label="luby-power-step")
    return LubyResult(mis=mis, steps=steps, ledger=ledger)


class LubyMISNode(NodeAlgorithm):
    """Per-node Luby for the message-passing simulator (MIS of ``G``).

    Protocol per step (2 rounds):

    * odd round: every undecided node broadcasts a fresh random priority;
    * even round: a node that held the strict minimum among itself and its
      undecided neighbors broadcasts ``("join", id)``, joins the MIS and
      halts; nodes hearing a join halt as dominated.

    Output: ``True`` if the node is in the MIS, ``False`` otherwise.
    """

    UNDECIDED = "undecided"
    IN_MIS = "in-mis"
    DOMINATED = "dominated"

    def __init__(self) -> None:
        super().__init__()
        self.state = self.UNDECIDED
        self.priority: tuple[int, int] | None = None
        self._min_neighbor_priority: tuple[int, int] | None = None

    def initialize(self) -> None:
        self._priority_space = shared_priority_space(self.n)

    def send(self, round_number: int) -> Mapping[Node, object]:
        # Message kinds are distinguished by round parity (odd = priority,
        # even = join beep), which keeps every message within O(log n) bits.
        if self.state != self.UNDECIDED:
            return {}
        if round_number % 2 == 1:
            self.priority = (self.rng.randrange(self._priority_space), self.node_id)
            return self.broadcast(self.priority)
        if self._is_local_minimum():
            return self.broadcast(True)
        return {}

    def _is_local_minimum(self) -> bool:
        # Only undecided neighbors broadcast priorities, so the inbox of the
        # odd round is exactly the relevant comparison set; its minimum is
        # cached once per step instead of being recomputed on every check.
        if self.priority is None:
            return False
        minimum = self._min_neighbor_priority
        return minimum is None or self.priority < minimum

    def receive(self, round_number: int, inbox: Mapping[Node, object]) -> None:
        if self.state != self.UNDECIDED:
            return
        if round_number % 2 == 1:
            # Payloads are the (priority, id) tuples sent by the undecided
            # neighbors; only their minimum matters for the local-minimum
            # test (the retained tuple outlives the transport-owned inbox).
            self._min_neighbor_priority = min(inbox.values()) if inbox else None
            return
        joined_neighbor = bool(inbox)
        if self._is_local_minimum():
            self.state = self.IN_MIS
            self.halt(True)
        elif joined_neighbor:
            self.state = self.DOMINATED
            self.halt(False)

    def finalize(self) -> None:
        if not self.halted:
            self.halt(self.state == self.IN_MIS)
