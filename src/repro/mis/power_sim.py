"""Simulator-native power-graph round structures: MIS of ``G^k`` over ``G``.

The paper's distributed algorithms never materialise ``G^k``: one step of a
``G^k`` symmetry-breaking protocol is simulated over the communication
network ``G`` by flooding within ``k`` hops (Section 8.1).  This module
provides the per-node state machines for the two canonical round structures:

* :class:`PowerLubyMISNode` -- Luby's algorithm on ``G^k``: each step costs
  ``2k`` rounds (``k`` to aggregate the minimum random priority over the
  distance-``k`` neighborhood, ``k`` to alert it after joining).
* :class:`PowerDetRulingNode` -- the deterministic distance-``k`` ruling-set
  round structure: iterated ID minima over distance-``k`` neighborhoods,
  computing the greedy-by-ID MIS of ``G^k`` (a ``(k+1, k)``-ruling set of
  ``G``).

Protocol (one step = ``2k`` rounds, sub-round ``s = ((r-1) mod 2k) + 1``):

* **Phase A (s = 1..k)** -- min-flood.  At ``s = 1`` every undecided node
  draws/loads its payload and broadcasts it; in later sub-rounds any node
  whose best-known value improved re-broadcasts it (improvement-pruned
  flooding: a value crosses one hop per sub-round, so after ``k`` sub-rounds
  every node knows the minimum over the undecided nodes within distance
  ``k``).  Decided nodes participate as relays; a relay that heard nothing
  during a whole phase A has no undecided node within distance ``k`` and
  halts.
* **Phase B (s = k+1..2k)** -- winner flood.  A node whose own payload
  equals the phase-A minimum is a local minimum of ``G^k`` restricted to the
  undecided nodes; it floods a 1-bit join flag ``k`` hops.  At ``s = 2k``
  winners join the MIS and undecided nodes that heard a flag become
  dominated; both keep relaying until their neighborhood quiesces.

Winners of one step are pairwise non-adjacent in ``G^k`` (two nodes within
distance ``k`` compare their distinct payloads, and only the smaller can win),
so the output is an independent set of ``G^k``; maximality follows because a
node only becomes dominated when a winner sits within distance ``k``.

Both classes have array kernels (:mod:`repro.congest.vector_engine`), so
``engine="vector"`` executes the same protocol as numpy rounds over the
base CSR -- bit-identical outputs, rounds and traffic, with ``G^k`` never
materialised.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.congest.node import NodeAlgorithm
from repro.mis.luby import shared_priority_space

Node = Hashable

__all__ = ["PowerDetRulingNode", "PowerLubyMISNode"]


class _PowerFloodNode(NodeAlgorithm):
    """Shared ``2k``-sub-round flood structure of the power protocols."""

    UNDECIDED = "undecided"
    IN_MIS = "in-mis"
    DOMINATED = "dominated"

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._period = 2 * k
        self.state = self.UNDECIDED
        self.payload = None
        self.best = None
        self.heard_any = False
        self.heard_flag = False
        self._improved = False
        self._flag_new = False

    # Subclasses provide the per-step payload of an undecided node.
    def _draw_payload(self):
        raise NotImplementedError

    def _begin_step(self) -> None:
        self.payload = None
        self.best = None
        self.heard_any = False
        self.heard_flag = False
        self._improved = False
        self._flag_new = False

    def send(self, round_number: int) -> Mapping[Node, object]:
        sub = (round_number - 1) % self._period + 1
        if sub == 1:
            self._begin_step()
            if self.state == self.UNDECIDED:
                self.payload = self._draw_payload()
                self.best = self.payload
                return self.broadcast(self.payload)
            return {}
        if sub <= self.k:
            if self._improved:
                return self.broadcast(self.best)
            return {}
        if sub == self.k + 1:
            if self.state == self.UNDECIDED and self.best == self.payload:
                # Local minimum of G^k among the undecided: flood the join
                # flag.  Marking the flag as already heard suppresses the
                # relayed echoes of our own flood.
                self.heard_flag = True
                return self.broadcast(True)
            return {}
        if self._flag_new:
            return self.broadcast(True)
        return {}

    def receive(self, round_number: int, inbox: Mapping[Node, object]) -> None:
        sub = (round_number - 1) % self._period + 1
        if sub <= self.k:
            self._improved = False
            if inbox:
                self.heard_any = True
                smallest = min(inbox.values())
                if self.best is None or smallest < self.best:
                    self.best = smallest
                    self._improved = True
            if sub == self.k and self.state != self.UNDECIDED and not self.heard_any:
                # No undecided node within distance k: nothing left to relay.
                self.halt(self.state == self.IN_MIS)
            return
        self._flag_new = False
        if inbox and not self.heard_flag:
            self.heard_flag = True
            self._flag_new = True
        if sub == self._period and self.state == self.UNDECIDED:
            if self.best == self.payload:
                self.state = self.IN_MIS
            elif self.heard_flag:
                self.state = self.DOMINATED

    def finalize(self) -> None:
        if not self.halted:
            self.halt(self.state == self.IN_MIS)


class PowerLubyMISNode(_PowerFloodNode):
    """Luby's MIS of ``G^k`` over communication network ``G`` (Section 8.1).

    Payloads are ``(priority, id)`` pairs with fresh random priorities from
    ``[n^3]`` per step (the degree-independent variant -- nodes never need
    their ``G^k`` degree).  Output: ``True`` iff the node joined the MIS.
    """

    def initialize(self) -> None:
        self._priority_space = shared_priority_space(self.n)

    def _draw_payload(self):
        return (self.rng.randrange(self._priority_space), self.node_id)


class PowerDetRulingNode(_PowerFloodNode):
    """Deterministic greedy-by-ID MIS of ``G^k``: a ``(k+1, k)``-ruling set.

    Payloads are the CONGEST identifiers; each step selects the nodes whose
    ID is minimal among the undecided nodes within distance ``k``.
    """

    def _draw_payload(self):
        return self.node_id
