"""Corollary 1.3: randomized ``beta``-ruling sets of ``G^k`` (Section 8.3).

The algorithm iterates the KP12 degree-reduction sparsification ``beta - 1``
times on ``G^k`` (with the parameter schedule
``f_s = 2^{(log Delta_k)^{1 - s/(beta-1)}}`` that balances the iteration
costs), producing a chain ``V ⊇ Q_1 ⊇ ... ⊇ Q_{beta-1}`` where each ``Q_s``
dominates ``Q_{s-1}`` in ``G^k`` and the maximum degree of
``G^k[Q_{beta-1}]`` is ``O(log n)``.  A maximal independent set of
``G^k[Q_{beta-1}]`` -- computed with the Theorem 1.2 algorithm restricted to
the candidate set (Corollary 8.5) -- is then a ``(k+1, beta*k)``-ruling set
of ``G``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.congest.topology import graph_csr
from repro.mis.kp12 import kp12_sparsify
from repro.mis.power_mis import power_graph_mis

Node = Hashable

__all__ = ["PowerRulingSetResult", "kp12_schedule", "power_graph_ruling_set"]


@dataclass
class PowerRulingSetResult:
    """Output of the randomized power-graph ruling set."""

    ruling_set: set[Node]
    k: int
    beta: int
    chain_sizes: list[int] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)
    phase_rounds: dict[str, int] = field(default_factory=dict)

    @property
    def alpha(self) -> int:
        return self.k + 1

    @property
    def domination_bound(self) -> int:
        return self.beta * self.k

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def kp12_schedule(delta_k: int, beta: int) -> list[float]:
    """The parameter schedule ``f_s = 2^{(log Delta_k)^{1 - s/(beta-1)}}``.

    Returns the ``beta - 1`` values ``f_1 > f_2 > ... > f_{beta-1}``; the
    last value is ``2^{(log Delta_k)^0} = 2``.
    """
    if beta < 2:
        return []
    log_delta = max(1.0, math.log2(max(2, delta_k)))
    schedule = []
    for s in range(1, beta):
        exponent = 1.0 - s / (beta - 1)
        schedule.append(2.0 ** (log_delta ** exponent))
    return schedule


def power_graph_ruling_set(graph: nx.Graph, k: int, beta: int, *,
                           rng: random.Random | None = None,
                           ledger: RoundLedger | None = None) -> PowerRulingSetResult:
    """Corollary 1.3: a ``(k+1, beta*k)``-ruling set of ``G``.

    ``beta = 1`` degenerates to an MIS of ``G^k`` (Theorem 1.2).
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    phase_rounds: dict[str, int] = {}

    candidates = set(graph.nodes())
    chain_sizes = [len(candidates)]

    # Iterated KP12 sparsification on G^k: each pass draws in the order of
    # the set the previous one returned, and reads the cached G^k CSR that
    # Delta_k is counted on.
    _, indptr, _ = graph_csr(graph, k)
    schedule = kp12_schedule(int(np.diff(indptr).max(initial=0)), beta)

    before = ledger.total_rounds
    for f in schedule:
        candidates = kp12_sparsify(graph, k, f, candidates=candidates, rng=rng,
                                   ledger=ledger).q
        chain_sizes.append(len(candidates))
    phase_rounds["kp12-sparsification"] = ledger.total_rounds - before

    # MIS of G^k[Q_{beta-1}] via Theorem 1.2 restricted to the candidates.
    before = ledger.total_rounds
    mis_result = power_graph_mis(graph, k, candidates=candidates, rng=rng, ledger=ledger)
    phase_rounds["final-mis"] = ledger.total_rounds - before

    return PowerRulingSetResult(ruling_set=mis_result.mis, k=k, beta=beta,
                                chain_sizes=chain_sizes, ledger=ledger,
                                phase_rounds=phase_rounds)
