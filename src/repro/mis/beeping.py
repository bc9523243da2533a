"""BeepingMIS ([Gha17], Section 2.2) on ``G`` and on power graphs (Lemma 8.2).

The algorithm runs in *steps* of two communication rounds.  Every undecided
node ``v`` keeps a marking probability ``p_v`` (initially 1/2):

1. ``v`` marks itself with probability ``p_v`` and beeps if marked;
2. a marked node with no marked neighbor joins the MIS and beeps again;
   the nodes that joined and their neighbors become decided.

The probability update is the beeping rule: if ``v`` heard a marked beep
from a neighbor, ``p_v`` halves; otherwise it doubles (capped at 1/2).
``O(log deg(v) + log 1/eps)`` steps decide ``v`` with probability
``1 - eps`` [Gha17, Theorem 2.1]; ``Theta(log Delta)`` steps shatter the
graph (Lemma 8.1).

On ``G^k`` the beeps are forwarded for ``k`` hops and must carry the ID of
the beeping node so that a beeping node does not confuse a relayed copy of
its own beep with a neighbor's (the paper's "minor but crucial
modification"); each node forwards at most two distinct IDs, which is enough
for every beeper to detect whether it has a beeping distance-``k`` neighbor
(Lemma 8.2).  One step therefore costs ``O(k * ceil(a / bandwidth))``
rounds.

Three entry points are provided:

* :class:`BeepingMISProcess` -- the reusable process over a graph's own
  cached CSR or its cached ``G^k`` CSR (used by the shattering pipelines
  on ``G``, its residual components and ``G^k``);
* :func:`beeping_mis` / :func:`beeping_mis_power` -- convenience wrappers
  with round accounting;
* :class:`BeepingMISNode` -- the per-node state machine for the real
  message-passing simulator on ``G``.

One step of the process is an array program: the marked nodes scatter
their CSR rows into a "heard a marked beep" mask (the rows are symmetric,
so that is every node's gather), a marked node joins iff it heard nothing,
and the joined nodes scatter their rows into the decided mask; the
probabilities are one array update.  Only the coin flips stay per node,
under a *draw-order contract* that keeps every run bit-identical to the
set-of-sets process it replaced (``tests/test_beeping_oracle.py`` keeps that
process as the oracle):

* each step draws one ``rng.random()`` per undecided node, in the iteration
  order of the ``undecided`` set, which is built as before (a set of the
  keys, intersected with the candidates, then copied) and only shrinks by
  ``-=``;
* ``mis`` and ``undecided`` stay Python sets with the same insertion
  history -- ``marked`` in undecided order, ``joined`` by iterating
  ``marked``, ``mis |= joined``, ``undecided -= decided`` -- because the
  post-shattering phase draws in their iteration order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.congest.node import NodeAlgorithm
from repro.congest.power_view import row_entries

Node = Hashable

__all__ = ["BeepingMISNode", "BeepingMISProcess", "BeepingResult",
           "beeping_mis", "beeping_mis_power", "default_step_budget"]


def default_step_budget(delta: int, scale: int = 8) -> int:
    """``Theta(log Delta)`` steps -- the pre-shattering budget of Lemma 8.1."""
    return max(1, scale * max(1, math.ceil(math.log2(max(2, delta)))))


@dataclass
class BeepingResult:
    """Output of a BeepingMIS execution."""

    mis: set[Node]
    undecided: set[Node]
    steps: int
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds

    @property
    def complete(self) -> bool:
        """True iff every node got decided (the MIS is maximal)."""
        return not self.undecided


class BeepingMISProcess:
    """BeepingMIS on ``G^k[nodes]`` over cached CSR rows: ``G``'s own CSR
    for ``k = 1``, the graph's ``G^k`` CSR
    (:meth:`~repro.congest.power_view.PowerView.csr`) otherwise.

    The same run as over the mapping ``{v: N^k(v) ∩ nodes for v in nodes}``
    keyed in ``nodes`` order (every node, in graph order, by default),
    without building it: the rows reach past ``nodes``, but only candidates
    are ever marked, so such a neighbor changes nothing.

    Parameters
    ----------
    candidates:
        Nodes allowed to join the MIS (default: all of ``nodes``).
        Non-candidates start decided but their rows still block candidates
        -- this realises Corollary 8.5 (MIS of ``G^k[Q]``).
    rng:
        Source of randomness.
    """

    #: The starting value of ``p_v`` (1/2 in the paper), also its cap.
    initial_probability = 0.5

    def __init__(self, graph: nx.Graph, nodes: Iterable[Node] | None = None, *,
                 k: int = 1, candidates: Iterable[Node] | None = None,
                 rng: random.Random | None = None) -> None:
        import numpy as np

        from repro.congest.topology import graph_csr

        structure, self._indptr, self._indices = graph_csr(graph, k)
        self._np = np
        self._labels, self._index_of = structure.labels, structure.index_of
        self.rng = rng or random.Random(0)
        # Built exactly as the set-of-sets process built them (a set from a
        # dict of the keys, intersected, then copied): post-shattering draws
        # follow the iteration order of these sets.
        all_nodes = set(dict.fromkeys(self._labels if nodes is None else nodes))
        self.candidates = all_nodes if candidates is None else set(candidates) & all_nodes
        self.undecided: set[Node] = set(self.candidates)
        self.mis: set[Node] = set()
        self._probability = np.full(len(self._labels), self.initial_probability)
        self.steps_run = 0

    @property
    def probability(self) -> dict[Node, float]:
        """``p_v`` of every candidate (a snapshot, keyed in candidate order)."""
        index_of, probability = self._index_of, self._probability
        return {node: float(probability[index_of[node]]) for node in self.candidates}

    def step(self) -> set[Node]:
        """Run one step; returns the nodes that joined the MIS in this step."""
        np = self._np
        self.steps_run += 1
        # One draw per undecided node, in the set's iteration order.
        order = list(self.undecided)
        count = len(order)
        index = np.fromiter(map(self._index_of.__getitem__, order), dtype=np.int64,
                            count=count)
        random_draw = self.rng.random
        draws = np.fromiter((random_draw() for _ in range(count)), dtype=np.float64,
                            count=count)
        probability = self._probability[index]
        marking = draws < probability
        marked_order = list(compress(order, marking.tolist()))
        marked = set(marked_order)
        marked_index = index[marking]

        # Marked nodes beep: scatter their rows (the adjacency is symmetric).
        # A marked node that heard no marked neighbor joins.
        heard = np.zeros(len(self._labels), dtype=bool)
        heard[row_entries(self._indptr, self._indices, marked_index)] = True
        joins = ~heard[marked_index]
        joiners = set(compress(marked_order, joins.tolist()))
        joined = {node for node in marked if node in joiners}

        # Probability update from the beeps of the marking round.
        self._probability[index] = np.where(
            heard[index], probability / 2.0,
            np.minimum(self.initial_probability, 2.0 * probability))

        # The joined nodes and their rows become decided.
        self.mis |= joined
        if joined:
            joined_index = marked_index[joins]
            decided = np.zeros(len(self._labels), dtype=bool)
            decided[joined_index] = True
            decided[row_entries(self._indptr, self._indices, joined_index)] = True
            self.undecided -= set(map(self._labels.__getitem__,
                                      index[decided[index]].tolist()))
        return joined

    def run(self, steps: int) -> None:
        for _ in range(max(0, steps)):
            if not self.undecided:
                return
            self.step()

    def run_until_complete(self, max_steps: int) -> bool:
        """Run up to ``max_steps``; return True iff every candidate got decided."""
        self.run(max_steps)
        return not self.undecided


def beeping_mis(graph: nx.Graph, *, steps: int | None = None,
                rng: random.Random | None = None,
                ledger: RoundLedger | None = None,
                candidates: Iterable[Node] | None = None) -> BeepingResult:
    """BeepingMIS on ``G`` for ``steps`` steps (2 rounds per step).

    ``steps`` defaults to enough steps (``Theta(log n)``) to finish w.h.p.
    """
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    n = max(2, graph.number_of_nodes())
    if steps is None:
        steps = default_step_budget(n, scale=16)
    process = BeepingMISProcess(graph, candidates=candidates, rng=rng)
    process.run(steps)
    for _ in range(process.steps_run):
        ledger.charge(2, label="beeping-step")
    return BeepingResult(mis=process.mis, undecided=process.undecided,
                         steps=process.steps_run, ledger=ledger)


def beeping_mis_power(graph: nx.Graph, k: int, *, steps: int | None = None,
                      rng: random.Random | None = None,
                      ledger: RoundLedger | None = None,
                      candidates: Iterable[Node] | None = None,
                      id_bits: int | None = None,
                      bandwidth_bits: int | None = None) -> BeepingResult:
    """BeepingMIS simulated on ``G^k`` with communication network ``G``.

    One step costs ``2 * k * ceil(a / bandwidth)`` rounds (Lemma 8.2): the
    ID-tagged beeps of the marking round and of the joining round are both
    forwarded for ``k`` hops.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    n = max(2, graph.number_of_nodes())
    if bandwidth_bits is None:
        bandwidth_bits = ledger.bandwidth_bits
    if id_bits is None:
        id_bits = max(1, math.ceil(math.log2(n)))

    nodes = set(graph.nodes()) if candidates is None else set(candidates)
    if steps is None:
        # Delta_k < n, so the Theta(log max(Delta_k, n)) budget reads n alone.
        steps = default_step_budget(n, scale=16)

    process = BeepingMISProcess(graph, nodes, k=k, candidates=nodes, rng=rng)
    process.run(steps)
    per_step = 2 * k * max(1, math.ceil(id_bits / max(1, bandwidth_bits)))
    for _ in range(process.steps_run):
        ledger.charge(per_step, label="beeping-power-step")
    return BeepingResult(mis=process.mis, undecided=process.undecided,
                         steps=process.steps_run, ledger=ledger)


class BeepingMISNode(NodeAlgorithm):
    """Per-node BeepingMIS for the message-passing simulator (MIS of ``G``).

    Messages are single beeps (1 bit): a mark-beep in odd rounds, a join-beep
    in even rounds.  Output: ``True`` iff the node joined the MIS.
    """

    def __init__(self, max_steps: int = 200) -> None:
        super().__init__()
        self.max_steps = max_steps
        self.probability = 0.5
        self.marked = False
        self.heard_mark = False
        self.decided = False
        self.in_mis = False

    def send(self, round_number: int) -> Mapping[Node, object]:
        # Beeps are 1-bit messages; their meaning is given by the round
        # parity (odd = "I am marked", even = "I joined the MIS").
        if self.decided:
            return {}
        if round_number % 2 == 1:
            self.marked = self.rng.random() < self.probability
            if self.marked:
                return self.broadcast(None)
            return {}
        if self.marked and not self.heard_mark:
            return self.broadcast(None)
        return {}

    def receive(self, round_number: int, inbox: Mapping[Node, object]) -> None:
        if self.decided:
            return
        if round_number % 2 == 1:
            self.heard_mark = bool(inbox)
            if self.heard_mark:
                self.probability /= 2.0
            else:
                self.probability = min(0.5, 2.0 * self.probability)
            return
        if self.marked and not self.heard_mark:
            self.decided = True
            self.in_mis = True
            self.halt(True)
            return
        if inbox:
            self.decided = True
            self.halt(False)
            return
        if round_number >= 2 * self.max_steps:
            # Out of budget: undecided nodes report False; the caller treats
            # an incomplete run as "not shattered yet".
            self.halt(False)

    def finalize(self) -> None:
        if not self.halted:
            self.halt(self.in_mis)
