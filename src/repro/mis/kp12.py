"""The degree-reduction sparsification of [KP12] / Sparsify-GG of [BKP14].

Given a graph ``H`` with maximum degree ``Delta_H`` and a parameter
``f >= 2``, the algorithm samples a subset ``Q`` in ``O(log_f Delta_H)``
rounds such that (1) the maximum degree of ``H[Q]`` is ``O(f log n)`` with
high probability and (2) ``Q`` dominates ``V_H`` (every node is in ``Q`` or
has a neighbor in ``Q``).  All communication consists of beeps by sampled
nodes, so the algorithm can be simulated on ``G^k`` with a ``k``-factor
slowdown and without knowing one's ``G^k`` degree (Section 8.3).

The implementation mirrors the stage structure of Algorithm 1 with growth
factor ``f`` instead of 2: in stage ``j`` active nodes join ``Q`` with
probability ``~ f^j log n / Delta_H``; nodes that are sampled or have a
sampled neighbor become inactive; after the last stage the remaining active
nodes join ``Q``.

``H = G^k[X]`` is read as rows of the graph's cached ``G^k`` CSR (``G``'s
own at ``k = 1``); a stage's beeps are one scatter of the sampled rows.
The coin flips stay per node under the *draw-order contract* of
:mod:`repro.mis.beeping`, which keeps every run bit-identical to the
set-based pass it replaced (``tests/test_kp12_luby_oracle.py`` keeps that
pass as the oracle): each stage draws one ``rng.random()`` per active node
in the iteration order of the ``active`` set, which is built from the
candidates as before (a set of a dict of them, then copied) and only shrinks
by ``-=``; ``q`` grows by ``|=`` in the same order, because the ruling
chain of Corollary 1.3 draws its next stage in ``q``'s order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable, Iterable

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.congest.power_view import label_mask, row_entries, row_hits
from repro.congest.topology import graph_csr
from repro.core.events import log_n

Node = Hashable

__all__ = ["KP12Result", "kp12_sparsify"]


@dataclass
class KP12Result:
    """Output of one KP12 sparsification pass."""

    q: set[Node]
    stages: int
    f: float
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def kp12_sparsify(graph: nx.Graph, k: int, f: float, *,
                  candidates: Iterable[Node] | None = None,
                  rng: random.Random | None = None,
                  ledger: RoundLedger | None = None) -> KP12Result:
    """One KP12 pass on ``G^k[candidates]`` with communication network ``G``.

    ``f`` is the degree-reduction target (the output degree is
    ``O(f log n)``, ``n`` the node count of ``G``); ``candidates`` default
    to every node, and the draws follow their iteration order.  The beeps
    of sampled nodes are forwarded for ``k`` hops, so each stage costs
    ``k`` rounds (Lemma 8.2 without IDs: beeping nodes do not need to
    listen, so a plain 1-bit flood suffices).
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    f = max(2.0, float(f))
    nodes = set(dict.fromkeys(set(graph.nodes()) if candidates is None else candidates))
    structure, indptr, indices = graph_csr(graph, k)
    index_of = structure.index_of
    in_nodes = label_mask(structure, nodes)
    delta_h = max(1, int(row_hits(indptr, indices, in_nodes)[in_nodes].max(initial=0)))
    logn = log_n(graph.number_of_nodes())

    stages = max(1, math.ceil(math.log(max(2.0, delta_h / logn), f)))
    active = set(nodes)
    q: set[Node] = set()

    for stage in range(1, stages + 1):
        if not active:
            break
        probability = min(1.0, (f ** stage) * logn / delta_h)
        order = list(active)
        index = np.fromiter(map(index_of.__getitem__, order), dtype=np.int64,
                            count=len(order))
        sampled = np.array([rng.random() < probability for _ in order], dtype=bool)
        q |= set(compress(order, sampled.tolist()))
        # Sampled nodes beep: they and every node in their rows go inactive.
        silenced = np.zeros(structure.n, dtype=bool)
        silenced[index[sampled]] = True
        silenced[row_entries(indptr, indices, index[sampled])] = True
        active -= set(compress(order, silenced[index].tolist()))
        ledger.charge(k, label=f"kp12-stage-{stage}")

    q |= active  # leftover low-degree nodes join Q
    return KP12Result(q=q, stages=stages, f=f, ledger=ledger)
