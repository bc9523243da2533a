"""Centralized greedy reference algorithms.

These are not distributed algorithms; they serve as ground truth for tests
(every distributed output can be compared against a sequentially computed
MIS / ruling set of the same graph) and as the "unbounded local computation"
subroutines a CONGEST node may run on information it has fully collected
(e.g. solving a small cluster once its topology is known, as in the
post-shattering phase).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

import networkx as nx

from repro.graphs.power import bounded_bfs

Node = Hashable

__all__ = ["greedy_mis", "greedy_ruling_set", "lexicographic_mis"]


def lexicographic_mis(graph: nx.Graph, *,
                      key: Callable[[Node], object] | None = None,
                      candidates: Iterable[Node] | None = None) -> set[Node]:
    """The greedy MIS obtained by scanning nodes in ``key`` order.

    ``candidates`` restricts the nodes allowed to join (all nodes are still
    used for adjacency); this matches "MIS of ``G[Q]``" semantics when
    ``graph`` is already the virtual graph on ``Q``.
    """
    order = sorted(graph if candidates is None else candidates,
                   key=key if key is not None else str)
    chosen: set[Node] = set()
    blocked: set[Node] = set()
    for node in order:
        if node in blocked:
            continue
        chosen.add(node)
        blocked.add(node)
        blocked.update(graph[node])
    return chosen


def greedy_mis(graph: nx.Graph, k: int = 1, *,
               candidates: Iterable[Node] | None = None,
               key: Callable[[Node], object] | None = None) -> set[Node]:
    """A greedy MIS of ``G^k`` computed directly on ``G``.

    Nodes are scanned in ``key`` order; a node joins unless a previously
    chosen node lies within distance ``k``.  With ``candidates`` given, only
    those nodes may join (an MIS of ``G^k[candidates]``), but distances are
    still measured in ``G``.
    """
    order = sorted(graph.nodes() if candidates is None else candidates,
                   key=key if key is not None else str)
    chosen: set[Node] = set()
    blocked: set[Node] = set()
    for node in order:
        if node in blocked:
            continue
        chosen.add(node)
        blocked.add(node)
        blocked.update(bounded_bfs(graph, [node], k))
    return chosen


def greedy_ruling_set(graph: nx.Graph, alpha: int, *,
                      targets: Iterable[Node] | None = None,
                      key: Callable[[Node], object] | None = None) -> set[Node]:
    """A greedy ``alpha``-independent set dominating ``targets``.

    Scanning the targets in order and adding every node not within distance
    ``alpha - 1`` of an already chosen node yields an
    ``(alpha, alpha - 1)``-ruling set of the target set -- the classical
    sequential construction used inside the shattering proofs (Lemma 7.3
    (P2) builds a ``(5, 4)``-ruling set exactly this way).
    """
    order = sorted(graph.nodes() if targets is None else targets,
                   key=key if key is not None else str)
    chosen: set[Node] = set()
    blocked: set[Node] = set()
    for node in order:
        if node in blocked:
            continue
        chosen.add(node)
        blocked.add(node)
        blocked.update(bounded_bfs(graph, [node], alpha - 1))
    return chosen
