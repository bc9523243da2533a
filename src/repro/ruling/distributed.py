"""A deterministic distributed ruling set on the message-passing runtime.

The paper's headline deterministic ruling sets (Theorem 1.1) are computed at
the graph level with analytic round accounting (:mod:`repro.ruling.
det_ruling_set`), because their power-graph machinery is too heavy to
simulate message-by-message.  This module provides their simulator-native
companion: the classic deterministic greedy MIS by iterated ID minima, which
is exactly a ``(2, 1)``-ruling set of ``G`` (an MIS), runs on the real
message-passing runtime, and is deterministic given the network's ID
assignment -- the ``rng`` seed plays no role.

Protocol per step (2 rounds):

* odd round: every undecided node broadcasts its CONGEST ID;
* even round: a node whose ID is the strict minimum among itself and its
  undecided neighbors broadcasts a join beep, enters the ruling set and
  halts; a node hearing a join beep halts as dominated.

Each step decides at least the globally smallest undecided ID, so the
algorithm terminates in at most ``n`` steps; on bounded-degree random
workloads almost all nodes decide within the first few steps, which makes
this the canonical stress test for the
:class:`~repro.congest.engine.ActiveSetEngine`'s O(active) rounds (and for
engine-equivalence testing, since its output is seed-independent).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.congest.node import NodeAlgorithm

Node = Hashable

__all__ = ["DetRulingSetNode"]


class DetRulingSetNode(NodeAlgorithm):
    """Per-node deterministic greedy MIS / ``(2, 1)``-ruling set by ID minima.

    Output: ``True`` iff the node joined the ruling set.
    """

    def __init__(self) -> None:
        super().__init__()
        self._min_neighbor_id: int | None = None

    def send(self, round_number: int) -> Mapping[Node, object]:
        if round_number % 2 == 1:
            return self.broadcast(self.node_id)
        if self._is_local_minimum():
            return self.broadcast(True)
        return {}

    def _is_local_minimum(self) -> bool:
        minimum = self._min_neighbor_id
        return minimum is None or self.node_id < minimum

    def receive(self, round_number: int, inbox: Mapping[Node, object]) -> None:
        if round_number % 2 == 1:
            # Undecided neighbors are exactly the senders this round (halted
            # nodes no longer broadcast); only their minimum ID matters.
            self._min_neighbor_id = min(inbox.values()) if inbox else None
            return
        if self._is_local_minimum():
            self.halt(True)
        elif inbox:
            self.halt(False)

    def finalize(self) -> None:
        if not self.halted:
            self.halt(False)
