"""Theorem 1.2: randomized MIS of ``G^k`` in the CONGEST model (Section 8.2).

The algorithm is the power-graph instantiation of the shattering framework:

1. **Pre-shattering**: ``Theta(log Delta_k)`` steps of BeepingMIS simulated
   on ``G^k`` (ID-tagged beeps, Lemma 8.2; ``O(k)`` rounds per step).
2. **Ruling set of the undecided nodes**: a ``(5k+1, O(k^2 log log n))``-
   ruling set ``R`` of the undecided nodes ``B`` with respect to distances
   in ``G`` ([Gha19, Lemma 2.2]), together with a partition of ``B`` into
   balls around the rulers (Claim 7.6).
3. **Distance-k ball graph** (Lemma 8.3): the balls are extended by disjoint
   radius-``k`` borders; the resulting virtual graph preserves distance-``k``
   adjacency, so distinct connected components can be finished independently.
4. **Network decomposition + post-shattering**: each ball-graph component is
   decomposed into few colors of well-separated clusters; the clusters of one
   color run ``O(log_N n)`` parallel BeepingMIS instances on ``G^k`` with
   fresh short IDs from ``[N]``, ``N = O(Delta^{4k} log n)``, and adopt a
   successful one (Section 8.2, "Final MIS").

The output is a maximal independent set of ``G^k`` (Corollary 8.5 allows
restricting the candidates to a subset ``Q``, which is how the ruling-set
algorithm of Corollary 1.3 uses it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.congest.power_view import label_mask, row_hits
from repro.congest.topology import graph_csr
from repro.decomposition.ball_graph import form_distance_k_ball_graph
from repro.decomposition.network_decomposition import network_decomposition
from repro.graphs.power import nearest_ruler_balls
from repro.mis.beeping import BeepingMISProcess, default_step_budget
from repro.ruling.greedy import greedy_mis, greedy_ruling_set

Node = Hashable

__all__ = ["PowerMISResult", "power_graph_mis"]


@dataclass
class PowerMISResult:
    """Output and diagnostics of the randomized MIS of ``G^k``."""

    mis: set[Node]
    k: int
    undecided_after_pre: set[Node]
    component_sizes: list[int]
    ruling_set_size: int
    post_instances: int
    ledger: RoundLedger = field(default_factory=RoundLedger)
    phase_rounds: dict[str, int] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def power_graph_mis(graph: nx.Graph, k: int, *,
                    candidates: set[Node] | None = None,
                    rng: random.Random | None = None,
                    ledger: RoundLedger | None = None,
                    pre_steps: int | None = None,
                    post_instances: int | None = None) -> PowerMISResult:
    """Theorem 1.2 / Corollary 8.5: a maximal independent set of ``G^k[candidates]``.

    Parameters
    ----------
    graph:
        The communication network ``G``.
    k:
        The power.
    candidates:
        Nodes allowed to join (default: all).  Non-candidates relay messages
        but never join; the output is then an MIS of ``G^k[candidates]``.
    pre_steps:
        Override the ``Theta(log Delta_k)`` pre-shattering budget.
    post_instances:
        Number of parallel BeepingMIS instances per cluster in the
        post-shattering phase (default ``ceil(log_N n)``).
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    nodes = set(graph.nodes()) if candidates is None else set(candidates)
    n = max(2, graph.number_of_nodes())
    id_bits = max(1, math.ceil(math.log2(n)))
    phase_rounds: dict[str, int] = {}

    # Every G^k row below is read from the graph's cached CSR (G's own at
    # k = 1): ball(v) is N^k(v), without a BFS.
    structure, indptr, indices = graph_csr(graph, k)
    labels, index_of = structure.labels, structure.index_of

    def ball(node: Node) -> Iterable[Node]:
        i = index_of[node]
        return map(labels.__getitem__, indices[indptr[i]:indptr[i + 1]].tolist())

    # ------------------------------------------------------- pre-shattering
    if candidates is None:
        degrees = np.diff(indptr)
    else:
        in_nodes = label_mask(structure, nodes)
        degrees = row_hits(indptr, indices, in_nodes)[in_nodes]
    delta_k = int(degrees.max()) if len(degrees) else 1
    if pre_steps is None:
        pre_steps = default_step_budget(delta_k, scale=8)

    before = ledger.total_rounds
    # Keyed by a copy of ``nodes``, as the G^k mapping this replaces was.
    process = BeepingMISProcess(graph, set(nodes), k=k, candidates=nodes, rng=rng)
    process.run(pre_steps)
    per_step = 2 * k * max(1, math.ceil(id_bits / max(1, ledger.bandwidth_bits)))
    ledger.charge(per_step * process.steps_run, label="pre-shattering")
    mis = set(process.mis)
    undecided = set(process.undecided)
    undecided_after_pre = set(undecided)
    phase_rounds["pre-shattering"] = ledger.total_rounds - before

    if not undecided:
        return PowerMISResult(mis=mis, k=k, undecided_after_pre=undecided_after_pre,
                              component_sizes=[], ruling_set_size=0, post_instances=0,
                              ledger=ledger, phase_rounds=phase_rounds)

    # ------------------------------------------- ruling set of the undecided
    before = ledger.total_rounds
    ruling = greedy_ruling_set(graph, alpha=5 * k + 1, targets=undecided, key=str)
    loglog = max(1, math.ceil(math.log2(1 + math.log2(n))))
    ledger.charge(max(1, k * k * loglog), label="ruling-set")

    balls = nearest_ruler_balls(graph, undecided, ruling)
    phase_rounds["ruling-set"] = ledger.total_rounds - before

    # ---------------------------------------------------- distance-k ball graph
    before = ledger.total_rounds
    node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}
    ball_graph = form_distance_k_ball_graph(graph, balls, k=k, node_ids=node_ids,
                                            undecided=undecided, ledger=ledger)
    phase_rounds["ball-graph"] = ledger.total_rounds - before

    components = [set(component) for component in nx.connected_components(ball_graph.graph)]
    component_sizes = []
    for component in components:
        size = sum(len(balls[center]) for center in component)
        component_sizes.append(size)

    # -------------------------------- network decomposition + post-shattering
    before = ledger.total_rounds
    big_n = max(2, int(component_size_bound_power(n, delta_k)))
    if post_instances is None:
        post_instances = max(1, math.ceil(math.log(n, max(2, big_n))))

    max_component_rounds = 0
    blocked: set[Node] = set()
    for node in mis:
        blocked.add(node)
        blocked.update(ball(node))

    for component in components:
        component_ledger = RoundLedger(bandwidth_bits=ledger.bandwidth_bits)
        decomposition = network_decomposition(ball_graph.graph.subgraph(component),
                                              separation=2, rng=rng,
                                              ledger=component_ledger)
        for color in range(decomposition.num_colors):
            clusters = decomposition.clusters_of_color(color)
            color_rounds = 0
            for cluster in clusters:
                cluster_undecided: set[Node] = set()
                for center in cluster.nodes:
                    cluster_undecided |= balls[center]
                cluster_undecided = (cluster_undecided & undecided) - blocked
                if not cluster_undecided:
                    continue
                added, instance_rounds = _finish_cluster(
                    graph, k, ball, cluster_undecided, blocked, rng,
                    instances=post_instances, big_n=big_n,
                    bandwidth_bits=ledger.bandwidth_bits)
                for node in added:
                    mis.add(node)
                    blocked.add(node)
                    blocked.update(ball(node))
                color_rounds = max(color_rounds, instance_rounds)
            if color_rounds:
                component_ledger.charge(color_rounds, label=f"post-color-{color}")
        max_component_rounds = max(max_component_rounds, component_ledger.total_rounds)
    if max_component_rounds:
        ledger.charge(max_component_rounds, label="post-shattering")
    phase_rounds["post-shattering"] = ledger.total_rounds - before

    # Safety net for nodes left undominated (only possible when the step
    # budgets were deliberately truncated): finish greedily so the output is
    # always a valid MIS of G^k[candidates].
    for node in sorted(nodes, key=str):
        if node in blocked:
            continue
        if node in mis:
            continue
        if not mis.isdisjoint(ball(node)):
            blocked.add(node)
            continue
        mis.add(node)
        blocked.add(node)
        blocked.update(ball(node))

    return PowerMISResult(mis=mis, k=k, undecided_after_pre=undecided_after_pre,
                          component_sizes=component_sizes,
                          ruling_set_size=len(ruling), post_instances=post_instances,
                          ledger=ledger, phase_rounds=phase_rounds)


def component_size_bound_power(n: int, delta_k: int) -> float:
    """The post-shattering component bound ``N = O(Delta_k^4 * log n)`` (Section 8.2)."""
    return max(2.0, (max(2, delta_k) ** 4) * math.log(max(2, n)))


def _finish_cluster(graph: nx.Graph, k: int, ball: Callable[[Node], Iterable[Node]],
                    cluster_undecided: set[Node],
                    blocked: set[Node], rng: random.Random, *,
                    instances: int, big_n: float,
                    bandwidth_bits: int) -> tuple[set[Node], int]:
    """Finish one cluster with parallel BeepingMIS instances (Section 8.2).

    The cluster's undecided nodes get fresh IDs from ``[N]``; ``instances``
    independent BeepingMIS executions run in parallel on ``G^k`` restricted
    to the cluster, each allotted ``O(log N)`` bandwidth; the first complete
    one is adopted.  If none completes within the step budget (possible for
    adversarial random bits), the exact completion is used -- the cluster
    leader has collected the whole cluster topology by then, and unbounded
    local computation is free in CONGEST.

    ``ball(v)`` is ``N^k(v)``.  Returns the added MIS nodes and the charged
    number of rounds.
    """
    steps = max(1, math.ceil(math.log2(big_n)))
    log_big_n = max(1, math.ceil(math.log2(big_n)))
    per_step = 2 * k * max(1, math.ceil(log_big_n / max(1, bandwidth_bits)))

    chosen: set[Node] | None = None
    for instance in range(max(1, instances)):
        process = BeepingMISProcess(graph, set(cluster_undecided), k=k, rng=rng)
        if process.run_until_complete(steps):
            chosen = process.mis
            break
    if chosen is None:
        chosen = greedy_mis(graph, k=k, candidates=sorted(cluster_undecided, key=str))

    # Respect the globally blocked nodes (decided by earlier colors).
    added = set()
    for node in sorted(chosen, key=str):
        if node in blocked:
            continue
        if not added.isdisjoint(ball(node)):
            continue
        added.add(node)
    rounds = per_step * steps + 2 * k  # parallel instances + success aggregation
    return added, rounds
