"""The classic deterministic ruling-set algorithms (Theorem 6.1, Corollary 6.2).

These are the prior state of the art that Theorem 1.1 improves upon, and the
baselines of the E-RULING experiment.

Theorem 6.1 [AGLP89, SEW13, HKN21, KMW18]: given a distance-``k`` coloring
with ``gamma`` colors and a base ``B >= 2``, a
``(k+1, k * ceil(log_B gamma))``-ruling set can be computed in
``O(k * B * log_B gamma)`` CONGEST rounds: iterate over the ``ceil(log_B
gamma)`` digits of the colors; within a digit iterate over the ``B`` possible
values; nodes holding the current value beep to their distance-``k``
neighborhood and undecided nodes with a larger digit value that hear a beep
drop out.

Corollary 6.2: using the unique IDs as the coloring and ``B = ceil(n^{1/c})``
yields a ``(k+1, ck)``-ruling set in ``O(k * c * n^{1/c})`` rounds -- the
``O(n^{1/k})``-round prior art for constant domination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.graphs.power import bounded_bfs

Node = Hashable

__all__ = ["AGLPResult", "aglp_ruling_set", "id_based_ruling_set"]


@dataclass
class AGLPResult:
    """Output of the digit-iteration ruling-set algorithm."""

    ruling_set: set[Node]
    k: int
    base: int
    digits: int
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds

    @property
    def domination_bound(self) -> int:
        """The guaranteed domination ``k * digits``."""
        return self.k * self.digits


def _digits_of(value: int, base: int, num_digits: int) -> list[int]:
    """The ``num_digits`` base-``base`` digits of ``value``, most significant first."""
    digits = []
    for _ in range(num_digits):
        digits.append(value % base)
        value //= base
    digits.reverse()
    return digits


def aglp_ruling_set(graph: nx.Graph, k: int, coloring: Mapping[Node, int], *,
                    base: int = 2,
                    ledger: RoundLedger | None = None) -> AGLPResult:
    """Theorem 6.1: a ``(k+1, k * ceil(log_B gamma))``-ruling set from a coloring.

    Parameters
    ----------
    graph:
        The communication graph ``G``.
    k:
        Required independence is ``k + 1`` (i.e. the output is independent in
        ``G^k``).
    coloring:
        A proper distance-``k`` coloring of ``G`` (colors are non-negative
        integers).  Nodes at distance at most ``k`` must receive distinct
        colors -- the unique IDs always qualify.
    base:
        The trade-off parameter ``B >= 2``.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    ledger = ledger if ledger is not None else RoundLedger()

    gamma = max(coloring.values(), default=0) + 1
    num_digits = max(1, math.ceil(math.log(max(2, gamma), base)))
    digits = {node: _digits_of(coloring[node], base, num_digits) for node in graph.nodes()}

    undecided = set(graph.nodes())
    for digit_index in range(num_digits):
        for value in range(base):
            beepers = {node for node in undecided if digits[node][digit_index] == value}
            if not beepers:
                continue
            # Beeps propagate k hops; undecided nodes with a larger current
            # digit that hear a beep drop out.
            reached = bounded_bfs(graph, beepers, k)
            removed = {node for node in undecided
                       if node in reached and digits[node][digit_index] > value}
            undecided -= removed
            ledger.charge_flooding(k, label=f"digit-{digit_index}-value-{value}")

    return AGLPResult(ruling_set=undecided, k=k, base=base, digits=num_digits,
                      ledger=ledger)


def id_based_ruling_set(graph: nx.Graph, k: int, c: int, *,
                        node_ids: Mapping[Node, int] | None = None,
                        ledger: RoundLedger | None = None) -> AGLPResult:
    """Corollary 6.2: a ``(k+1, ck)``-ruling set in ``O(k * c * n^{1/c})`` rounds.

    Uses the unique node identifiers as the (trivially proper) distance-``k``
    coloring with ``B = ceil(n^{1/c})``.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    n = max(2, graph.number_of_nodes())
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}
    base = max(2, math.ceil(n ** (1.0 / c)))
    return aglp_ruling_set(graph, k, node_ids, base=base, ledger=ledger)
