"""Theorem 1.1: the deterministic ``(k+1, k^2)``-ruling set via sparsification.

The algorithm (Lemma 6.3) has two phases:

1. **Sparsify**: compute a subset ``Q ⊆ V`` such that every node has at most
   ``hat_delta = O(log n)`` distance-``(k-1)`` ``Q``-neighbors while
   ``dist_G(v, Q) <= beta`` for every ``v`` -- this is the power-graph
   sparsification of Lemma 3.1 / Lemma 5.8 run with ``k - 1`` iterations, so
   ``beta = (k-1)^2 + (k-1)``.
2. **MIS of the virtual graph**: compute a maximal independent set of
   ``G^k[Q]`` by simulating any MIS algorithm on the virtual graph with the
   communication tools of Section 4 (an ``O(k + hat_delta^2)`` factor
   slowdown per simulated round, Lemma 4.6).

The result is independent in ``G^k`` and ``(beta + k)``-dominating, i.e. a
``(k+1, k^2)``-ruling set of ``G`` = a ``k``-ruling set of ``G^k``
(Theorem 1.1).

The deterministic MIS subroutine substitutes for [FGG+22] (see DESIGN.md,
substitution 2): we implement a Linial-style color-then-sweep MIS whose round
complexity on the virtual graph is charged with the [FGG+22] formula
``T_MIS(n, Delta') = O(log^2 Delta' * log log Delta' * log n)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.congest.power_view import label_mask, row_hits
from repro.congest.topology import graph_csr
from repro.core.comm_tools import (
    CommunicationTools,
    learn_distance_ids,
    simulate_on_power_subgraph,
)
from repro.core.power_sparsify import (
    power_graph_sparsification,
    power_graph_sparsification_low_diameter,
)

Node = Hashable

__all__ = [
    "DetRulingSetResult",
    "deterministic_mis_of_virtual_graph",
    "deterministic_power_ruling_set",
    "fgg_mis_round_bound",
    "ruling_set_via_sparsification",
]


@dataclass
class DetRulingSetResult:
    """Output of the deterministic power-graph ruling set."""

    ruling_set: set[Node]
    q: set[Node]
    k: int
    alpha: int
    beta_bound: int
    ledger: RoundLedger = field(default_factory=RoundLedger)
    phase_rounds: dict[str, int] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def fgg_mis_round_bound(n: int, delta: int) -> int:
    """The [FGG+22] deterministic MIS round complexity ``O(log^2 Δ · log log Δ · log n)``."""
    log_n = max(1.0, math.log2(max(2, n)))
    log_d = max(1.0, math.log2(max(2, delta)))
    return max(1, math.ceil(log_d * log_d * max(1.0, math.log2(log_d + 1)) * log_n))


def deterministic_mis_of_virtual_graph(tools: CommunicationTools) -> tuple[set[Node], int]:
    """A deterministic MIS of the virtual graph ``G^s[Q]`` plus its charged
    round count.

    The MIS itself is computed with a Linial-flavoured deterministic rule:
    scan ``Q`` by ID, and each chosen node blocks its row of the graph's
    cached ``G^s`` CSR.  The returned round count is
    the [FGG+22] bound for a graph with ``|Q|`` nodes and maximum degree
    ``max_{v in Q} |N^s(v) ∩ Q|`` (the rows masked to ``Q``), which is
    what the simulation charges per Lemma 6.3.
    """
    import numpy as np

    structure, indptr, indices = graph_csr(tools.graph, tools.s)
    blocked = np.zeros(structure.n, dtype=bool)
    mis: set[Node] = set()
    for node in sorted(tools.q, key=tools.node_ids.__getitem__):
        i = structure.index_of[node]
        if not blocked[i]:
            mis.add(node)
            blocked[indices[indptr[i]:indptr[i + 1]]] = True
    in_q = label_mask(structure, tools.q)
    delta = int(row_hits(indptr, indices, in_q)[in_q].max(initial=0))
    return mis, fgg_mis_round_bound(len(tools.q), delta)


def ruling_set_via_sparsification(graph: nx.Graph, k: int, *,
                                  sparsifier: Callable[..., object],
                                  beta_bound: int,
                                  ledger: RoundLedger | None = None,
                                  node_ids: Mapping[Node, int] | None = None,
                                  ) -> DetRulingSetResult:
    """Lemma 6.3: generic "sparsify, then MIS of ``G^k[Q]``" recipe.

    ``sparsifier(graph, ledger=...)`` must return an object with a ``q``
    attribute (the sparse set) -- both power-graph sparsifiers of
    :mod:`repro.core.power_sparsify` qualify.  ``beta_bound`` is the
    domination guarantee of the sparsifier; the output is then a
    ``(k+1, beta_bound + k)``-ruling set.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}

    phase_rounds: dict[str, int] = {}

    # Phase 1: sparsification (k - 1 iterations; for k = 1 the sparse set is V).
    before = ledger.total_rounds
    if k >= 2:
        sparsification = sparsifier(graph, ledger=ledger)
        q = set(sparsification.q)
    else:
        q = set(graph.nodes())
    phase_rounds["sparsification"] = ledger.total_rounds - before

    # Phase 2: build the communication tools for radius k and simulate an MIS
    # algorithm on G^k[Q].
    before = ledger.total_rounds
    tools = learn_distance_ids(graph, q, k, node_ids=node_ids, ledger=ledger,
                               bandwidth_bits=ledger.bandwidth_bits or 64)
    simulation = simulate_on_power_subgraph(tools)
    phase_rounds["communication-tools"] = ledger.total_rounds - before

    before = ledger.total_rounds
    mis, algorithm_rounds = deterministic_mis_of_virtual_graph(tools)
    simulation.charge_rounds(algorithm_rounds, label="mis-of-GkQ")
    phase_rounds["mis"] = ledger.total_rounds - before

    return DetRulingSetResult(ruling_set=mis, q=q, k=k, alpha=k + 1,
                              beta_bound=beta_bound + k, ledger=ledger,
                              phase_rounds=phase_rounds)


def deterministic_power_ruling_set(graph: nx.Graph, k: int, *,
                                   method: str = "per-variable",
                                   use_network_decomposition: bool = False,
                                   rng: random.Random | None = None,
                                   ledger: RoundLedger | None = None,
                                   node_ids: Mapping[Node, int] | None = None,
                                   ) -> DetRulingSetResult:
    """Theorem 1.1: a deterministic ``(k+1, k^2)``-ruling set of ``G``.

    Parameters
    ----------
    graph, k:
        The communication graph and the power.
    method:
        Derandomization method for the sparsification stages (see
        :func:`repro.core.detsparsify.det_sparsification`).
    use_network_decomposition:
        Use the Lemma 5.8 low-diameter sparsifier instead of the plain
        Lemma 3.1 one.  The output guarantees are identical; the round
        complexity loses the ``diam(G)`` factor (at the price of the network
        decomposition).  Plain Lemma 3.1 is the default because the
        benchmark graphs have small diameter anyway.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()

    sparsify_power = max(1, k - 1)
    if use_network_decomposition:
        def sparsifier(g: nx.Graph, ledger: RoundLedger):
            return power_graph_sparsification_low_diameter(g, sparsify_power, method=method,
                                                           rng=rng, ledger=ledger)
    else:
        def sparsifier(g: nx.Graph, ledger: RoundLedger):
            return power_graph_sparsification(g, sparsify_power, method=method,
                                              rng=rng, ledger=ledger)

    beta_bound = (k - 1) * (k - 1) + (k - 1) if k >= 2 else 0
    result = ruling_set_via_sparsification(graph, k, sparsifier=sparsifier,
                                           beta_bound=beta_bound, ledger=ledger,
                                           node_ids=node_ids)
    return result
