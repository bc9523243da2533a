"""Executable checkers for the sparsification guarantees.

These are the programmatic counterparts of Lemma 5.1, Lemma 3.1 and the
invariants I1.1 / I1.2 / I2 of Section 5.3.  They are used by the tests, by
the benchmark harness (which records measured vs. paper bounds in
EXPERIMENTS.md) and are handy for users who want to validate their own runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.core.events import degree_bound
from repro.graphs.power import max_power_degree, multi_source_bfs
from repro.graphs.properties import max_degree

Node = Hashable

__all__ = [
    "SparsificationCheck",
    "check_power_sparsification",
    "check_sparsification",
    "verify_invariants",
]


@dataclass
class SparsificationCheck:
    """Result of checking a sparsified set against the paper's bounds."""

    max_q_degree: int
    q_degree_bound: float
    max_domination: int
    domination_bound: float
    q_size: int

    @property
    def degree_ok(self) -> bool:
        return self.max_q_degree <= self.q_degree_bound

    @property
    def domination_ok(self) -> bool:
        return self.max_domination <= self.domination_bound

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.domination_ok


def _distance_to_set(graph: nx.Graph, targets: Iterable[Node]):
    """Multi-source BFS distances to a set, as an int64 array over the
    graph's node indices (unreachable -> n + 1)."""
    distance, _ = multi_source_bfs(graph, targets)
    distance[distance < 0] = graph.number_of_nodes() + 1
    return distance


def _max_excess(far, near) -> int:
    """``max_v far[v] - near[v]`` over every node (0 on an empty graph)."""
    return int((far - near).max()) if len(far) else 0


def check_sparsification(graph: nx.Graph, active: set[Node], q: set[Node], *,
                         power: int = 1) -> SparsificationCheck:
    """Check Lemma 5.1's guarantees for a single DetSparsification run.

    * bounded Q-degree: ``d_power(v, Q) <= 72 log n`` for every ``v``;
    * domination: ``dist_G(v, Q) <= 2 * power + dist_G(v, A)`` for every ``v``
      (an increase of 2 in ``G^power`` is an increase of ``2 * power`` in
      ``G``).
    """
    n = graph.number_of_nodes()
    max_q_degree = max_power_degree(graph, power, q)
    dist_to_q = _distance_to_set(graph, q)
    dist_to_a = _distance_to_set(graph, active)
    max_excess = _max_excess(dist_to_q, dist_to_a)
    return SparsificationCheck(
        max_q_degree=max_q_degree,
        q_degree_bound=degree_bound(n),
        max_domination=max_excess,
        domination_bound=2 * power,
        q_size=len(q),
    )


def check_power_sparsification(graph: nx.Graph, q0: set[Node], q: set[Node],
                               k: int) -> SparsificationCheck:
    """Check Lemma 3.1's guarantees for the power-graph sparsification.

    * bounded distance-``k`` Q-degree: ``d_k(v, Q) <= 72 log n``;
    * domination: ``dist_G(v, Q) <= k^2 + k + dist_G(v, Q_0)``.
    """
    n = graph.number_of_nodes()
    max_q_degree = max_power_degree(graph, k, q)
    dist_to_q = _distance_to_set(graph, q)
    dist_to_q0 = _distance_to_set(graph, q0)
    max_excess = _max_excess(dist_to_q, dist_to_q0)
    return SparsificationCheck(
        max_q_degree=max_q_degree,
        q_degree_bound=degree_bound(n),
        max_domination=max_excess,
        domination_bound=k * k + k,
        q_size=len(q),
    )


@dataclass
class InvariantReport:
    """Per-iteration invariant check of the sequence ``Q_0 ⊇ Q_1 ⊇ ... ⊇ Q_k``."""

    s: int
    i11_max_degree: int
    i11_bound: float
    i12_max_degree: int
    i12_bound: float
    i2_max_excess: int
    i2_bound: int
    nested: bool

    @property
    def ok(self) -> bool:
        return (self.i11_max_degree <= self.i11_bound
                and self.i12_max_degree <= self.i12_bound
                and self.i2_max_excess <= self.i2_bound
                and self.nested)


def verify_invariants(graph: nx.Graph, sequence: Sequence[set[Node]]) -> list[InvariantReport]:
    """Check I1.1, I1.2 and I2 for every iteration of Algorithm 3.

    ``sequence`` is the list ``[Q_0, Q_1, ..., Q_k]`` produced by
    :func:`repro.core.power_sparsify.power_graph_sparsification`.
    """
    n = graph.number_of_nodes()
    delta = max(1, max_degree(graph))
    bound = degree_bound(n)
    q0 = set(sequence[0]) if sequence else set()
    dist_to_q0 = _distance_to_set(graph, q0)
    reports: list[InvariantReport] = []

    for s in range(1, len(sequence)):
        q_s = set(sequence[s])
        i11 = max_power_degree(graph, s, q_s)
        i12 = max_power_degree(graph, s + 1, q_s)
        dist_to_qs = _distance_to_set(graph, q_s)
        i2 = _max_excess(dist_to_qs, dist_to_q0)
        reports.append(InvariantReport(
            s=s,
            i11_max_degree=i11, i11_bound=bound,
            i12_max_degree=i12, i12_bound=delta * bound,
            i2_max_excess=i2, i2_bound=s * s + s,
            nested=q_s <= set(sequence[s - 1]),
        ))
    return reports
