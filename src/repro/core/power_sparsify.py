"""Sparsification of power graphs (Section 5.3 / Algorithm 3 / Lemma 3.1)
and its low-diameter variant (Section 5.4 / Lemma 5.8).

The power-graph sparsification runs ``k`` iterations of DetSparsification,
where the ``s``-th iteration is simulated on ``G^s`` with the previous
iteration's output ``Q_{s-1}`` as the active set.  The invariants maintained
after iteration ``s`` (Section 5.3) are:

I1.1  ``d_s(v, Q_s) <= 72 log n`` for every ``v``;
I1.2  ``d_{s+1}(v, Q_s) <= 72 * Delta * log n`` for every ``v``;
I2    ``dist_G(v, Q_s) <= s^2 + s + dist_G(v, Q_0)``;
I3    every node knows the IDs in its distance-``(s+1)`` ``Q_s``-neighborhood
      and the depth-``(s+1)`` BFS trees rooted at ``Q_s`` are known.

The low-diameter variant (Lemma 5.8) removes the ``diam(G)`` factor from the
round complexity by computing a network decomposition with cluster
separation ``2k + 1`` and running the sparsification inside the clusters of
one color class at a time (with the distance-``k`` cluster borders acting as
observers).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.core.detsparsify import det_sparsification
from repro.core.events import degree_bound, log_n
from repro.graphs.power import bounded_bfs, max_power_degree
from repro.graphs.properties import max_degree

Node = Hashable

__all__ = [
    "PowerSparsificationResult",
    "power_graph_sparsification",
    "power_graph_sparsification_low_diameter",
]


@dataclass
class PowerIterationRecord:
    """Diagnostics for one iteration (one power ``s``) of Algorithm 3."""

    s: int
    delta_a: float
    active_before: int
    active_after: int
    max_distance_s_degree: int
    rounds: int


@dataclass
class PowerSparsificationResult:
    """Output of the power-graph sparsification.

    ``q`` satisfies Lemma 3.1: bounded distance-``k`` ``Q``-degree
    (``<= 72 log n``) and domination ``dist(v, Q) <= k^2 + k + dist(v, Q_0)``.
    ``sequence`` holds the intermediate sets ``Q_0 ⊇ Q_1 ⊇ ... ⊇ Q_k`` so the
    invariant checkers and tests can inspect every iteration.
    """

    q: set[Node]
    k: int
    sequence: list[set[Node]] = field(default_factory=list)
    iterations: list[PowerIterationRecord] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def power_graph_sparsification(graph: nx.Graph, k: int, *,
                               q0: set[Node] | None = None,
                               method: str = "per-variable",
                               node_ids: Mapping[Node, int] | None = None,
                               rng: random.Random | None = None,
                               ledger: RoundLedger | None = None,
                               diameter_hint: int | None = None,
                               ) -> PowerSparsificationResult:
    """Algorithm 3: ``k`` iterations of DetSparsification on ``G^1, ..., G^k``.

    Parameters
    ----------
    graph:
        The communication network ``G``.
    k:
        The power (``k >= 1``); the output is sparse in ``G^k``.
    q0:
        The initially active set ``Q_0`` (default: all nodes).
    method:
        Per-stage derandomization method forwarded to
        :func:`repro.core.detsparsify.det_sparsification`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    q_prev = set(graph.nodes()) if q0 is None else set(q0)
    n = graph.number_of_nodes()
    delta = max(1, max_degree(graph))
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}
    a_bits = max(1, math.ceil(math.log2(max(2, max(node_ids.values(), default=2) + 1))))

    result = PowerSparsificationResult(q=set(q_prev), k=k, ledger=ledger)
    result.sequence.append(set(q_prev))

    for s in range(1, k + 1):
        # Delta_A^(1) = Delta, Delta_A^(s) = 72 * Delta * log n for s >= 2
        # (Section 5.3, "Algorithm description").
        delta_a = float(delta) if s == 1 else 72.0 * delta * log_n(n)

        iteration_ledger = RoundLedger(bandwidth_bits=ledger.bandwidth_bits)
        det = det_sparsification(graph, active=q_prev, delta_a=delta_a, power=s,
                                 method=method, node_ids=node_ids, rng=rng,
                                 ledger=iteration_ledger,
                                 diameter_hint=diameter_hint)
        # The first iteration that runs a stage computes the hint once.
        diameter_hint = det.diameter_hint
        q_next = det.q
        # max_v |N^s(v) ∩ Q_{s-1}|: counted on the G^s CSR the stages built,
        # streamed when no stage ran.
        max_active_degree = max_power_degree(graph, s, q_prev)

        # Maintain invariant I3: every node forwards its distance-s Q_s-ID set
        # to its neighbors (Lemma 4.1), extending the BFS trees to depth s+1.
        hat_delta = max(1, int(math.ceil(degree_bound(n))))
        iteration_ledger.charge_learn_ids(hat_delta, a_bits, label=f"iteration-{s}-extend-ids")

        ledger.merge(iteration_ledger, prefix=f"s={s}:")
        result.iterations.append(PowerIterationRecord(
            s=s, delta_a=delta_a, active_before=len(q_prev), active_after=len(q_next),
            max_distance_s_degree=max_active_degree, rounds=iteration_ledger.total_rounds))
        result.sequence.append(set(q_next))
        q_prev = q_next

    result.q = set(q_prev)
    return result


def _induced_copy(graph: nx.Graph, nodes) -> nx.Graph:
    """``G[nodes]`` as a graph of its own, in the node and adjacency order
    of ``graph.subgraph(nodes).copy()`` for the same ``nodes``: the local
    run's node order feeds its diameter estimate, so its round count.
    Below half of ``graph``'s nodes that order is the layout of a set
    built from ``nodes``, which among labels colliding in its hash table
    depends on the order ``nodes`` lists them: the same ball listed in
    another order can give another round count.  Unlike ``copy()``, and
    like the subgraph view, the node and edge attribute dicts are
    ``graph``'s own: the local run reads none of them.  Filled straight
    into networkx's dicts, without the view's per-edge filters."""
    order = list(graph.subgraph(nodes))
    position = {node: i for i, node in enumerate(order)}
    adjacency, attributes = graph._adj, graph._node
    local = graph.__class__()
    local.graph.update(graph.graph)
    local_adjacency, local_attributes = local._adj, local._node
    for node in order:
        local_adjacency[node] = {}
        local_attributes[node] = attributes[node]
    # Each edge from its earlier end: the first time ``copy`` meets it.
    for i, node in enumerate(order):
        row = local_adjacency[node]
        for other, data in adjacency[node].items():
            if position.get(other, -1) >= i:
                row[other] = local_adjacency[other][node] = data
    return local


def power_graph_sparsification_low_diameter(graph: nx.Graph, k: int, *,
                                            q0: set[Node] | None = None,
                                            method: str = "per-variable",
                                            rng: random.Random | None = None,
                                            ledger: RoundLedger | None = None,
                                            decomposition=None,
                                            ) -> PowerSparsificationResult:
    """Lemma 5.8: sparsification with no diameter dependency.

    A weak-diameter network decomposition with cluster separation ``2k + 1``
    is computed first; the clusters of each color class then run Lemma 3.1 in
    parallel (each cluster together with its distance-``k`` border, whose
    nodes act as observers), and globally active nodes within distance ``2k``
    of newly selected nodes are deactivated before the next color.

    Rounds charged: ``T_ND`` for the decomposition plus, per color class, the
    maximum cluster cost (clusters of one color run in parallel) plus ``O(k)``
    for border formation and global deactivation.
    """
    # Imported lazily to avoid a circular import (decomposition uses ruling-set
    # verification helpers in its tests, not in the module itself, but keeping
    # the import local also keeps the core package importable on its own).
    from repro.decomposition.network_decomposition import network_decomposition

    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    globally_active = set(graph.nodes()) if q0 is None else set(q0)
    q0_snapshot = set(globally_active)
    n = graph.number_of_nodes()

    if decomposition is None:
        decomposition = network_decomposition(graph, separation=2 * k + 1, rng=rng,
                                              ledger=ledger)

    result = PowerSparsificationResult(q=set(), k=k, ledger=ledger)
    result.sequence.append(set(q0_snapshot))
    delta = float(max_degree(graph))

    for color in range(decomposition.num_colors):
        clusters = decomposition.clusters_of_color(color)
        color_round_cost = 0
        for cluster in clusters:
            cluster_nodes = set(cluster.nodes)
            local_active = globally_active & cluster_nodes
            if not local_active:
                continue
            # The cluster and its k-border in BFS order, cluster first: that
            # order fixes the local graph's node order (see _induced_copy).
            local_graph = _induced_copy(graph, bounded_bfs(graph, cluster_nodes, k))
            cluster_ledger = RoundLedger(bandwidth_bits=ledger.bandwidth_bits)
            local = power_graph_sparsification(local_graph, k, q0=local_active,
                                               method=method, rng=rng,
                                               ledger=cluster_ledger)
            result.q |= local.q
            color_round_cost = max(color_round_cost, cluster_ledger.total_rounds)
            # Selected nodes deactivate globally active nodes within 2k hops.
            globally_active.difference_update(bounded_bfs(graph, local.q, 2 * k))
        if color_round_cost:
            ledger.charge(color_round_cost, label=f"color-{color}-sparsification")
        ledger.charge_flooding(2 * k, label=f"color-{color}-border-and-deactivation")
        result.iterations.append(PowerIterationRecord(
            s=color, delta_a=delta,
            active_before=len(globally_active), active_after=len(globally_active),
            max_distance_s_degree=0, rounds=color_round_cost))

    result.sequence.append(set(result.q))
    return result
