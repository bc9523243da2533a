"""Verification of independent sets, dominating sets and ruling sets.

All checks measure distances in the *communication graph* ``G`` (as the
paper does): an ``(alpha, beta)``-ruling set is ``alpha``-independent and
``beta``-dominating in ``G``; an MIS of ``G^k`` is a ``(k+1, k)``-ruling set
of ``G``.  The checkers are used by every test and by the benchmark harness
to certify algorithm outputs before timing them.

Both radii come from one multi-source BFS from the set over ``G``'s own CSR
(:func:`repro.graphs.power.multi_source_bfs`), never from the ``G^k`` rows
a solver read, so an MIS of ``G^k`` is still checked against ``G``'s edges.
The domination radius is the largest BFS distance over the targets.  The
independence radius is exact: the closest pair ``s, t`` of the set has a
shortest path that leaves ``s``'s BFS region over some edge ``(u, v)``, so
the minimum of ``d(u) + d(v) + 1`` over edges whose endpoints have different
nearest members is the minimum pairwise distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.power import farthest_target, multi_source_bfs

Node = Hashable

__all__ = [
    "UNREACHABLE",
    "RulingSetReport",
    "domination_radius",
    "independence_radius",
    "is_alpha_independent",
    "is_beta_dominating",
    "is_mis_of_power_graph",
    "is_ruling_set",
    "verify_ruling_set",
]

#: Sentinel distance returned when two nodes are in different components (or a
#: set is empty): larger than any finite distance and any alpha / beta
#: parameter a caller could reasonably pass.
UNREACHABLE = 1 << 30


def _radii(graph: nx.Graph, subset: Iterable[Node],
           targets: Iterable[Node] | None = None) -> tuple[int, int]:
    """``(independence radius, domination radius)`` of ``subset`` from one
    multi-source BFS (see the module docstring)."""
    from repro.congest.topology import _structure_of

    distance, nearest = multi_source_bfs(graph, subset)
    arrays = _structure_of(graph).numpy_arrays()
    u, v = arrays.edge_u, arrays.edge_v
    crossing = nearest[u] != nearest[v]
    independence = (int((distance[u[crossing]] + distance[v[crossing]]).min()) + 1
                    if crossing.any() else UNREACHABLE)
    domination = farthest_target(graph, distance, targets)
    if domination > graph.number_of_nodes():
        domination = UNREACHABLE
    return independence, domination


def independence_radius(graph: nx.Graph, subset: Iterable[Node]) -> int:
    """The minimum pairwise distance within ``subset``.

    A set with independence radius ``r`` is ``alpha``-independent for every
    ``alpha <= r``.  Pairs in different connected components count as
    infinitely far apart; if no finite pair exists the sentinel
    :data:`UNREACHABLE` is returned.
    """
    return _radii(graph, subset)[0]


def domination_radius(graph: nx.Graph, subset: Iterable[Node],
                      targets: Iterable[Node] | None = None) -> int:
    """The maximum distance from a target node to ``subset``.

    Unreachable targets (or an empty subset) yield :data:`UNREACHABLE`.
    """
    return _radii(graph, subset, targets)[1]


def is_alpha_independent(graph: nx.Graph, subset: Iterable[Node], alpha: int) -> bool:
    """True iff all distinct members of ``subset`` are at distance >= ``alpha``."""
    return independence_radius(graph, subset) >= alpha


def is_beta_dominating(graph: nx.Graph, subset: Iterable[Node], beta: int,
                       targets: Iterable[Node] | None = None) -> bool:
    """True iff every target node has a member of ``subset`` within ``beta`` hops."""
    return domination_radius(graph, subset, targets) <= beta


def is_ruling_set(graph: nx.Graph, subset: Iterable[Node], alpha: int, beta: int,
                  targets: Iterable[Node] | None = None) -> bool:
    """True iff ``subset`` is an ``(alpha, beta)``-ruling set (of ``targets``)."""
    subset = set(subset)
    return (is_alpha_independent(graph, subset, alpha)
            and is_beta_dominating(graph, subset, beta, targets))


def is_mis_of_power_graph(graph: nx.Graph, subset: Iterable[Node], k: int,
                          targets: Iterable[Node] | None = None) -> bool:
    """True iff ``subset`` is a maximal independent set of ``G^k``.

    Equivalently (Section 2): a ``(k+1, k)``-ruling set of ``G`` restricted
    to ``targets`` (``targets`` defaults to all nodes; the restricted variant
    is used for MIS of induced power subgraphs ``G^k[Q]``, where only nodes
    of ``Q`` need to be dominated).
    """
    return is_ruling_set(graph, subset, alpha=k + 1, beta=k, targets=targets)


@dataclass
class RulingSetReport:
    """Quantitative report of a candidate ruling set."""

    size: int
    independence: int
    domination: int
    alpha: int
    beta: int

    @property
    def independent_ok(self) -> bool:
        return self.independence >= self.alpha

    @property
    def dominating_ok(self) -> bool:
        return self.domination <= self.beta

    @property
    def ok(self) -> bool:
        return self.independent_ok and self.dominating_ok


def verify_ruling_set(graph: nx.Graph, subset: Iterable[Node], alpha: int, beta: int,
                      targets: Iterable[Node] | None = None) -> RulingSetReport:
    """Measure independence and domination of ``subset`` against ``(alpha, beta)``."""
    subset = set(subset)
    independence, domination = _radii(graph, subset, targets)
    return RulingSetReport(size=len(subset), independence=independence,
                           domination=domination, alpha=alpha, beta=beta)
