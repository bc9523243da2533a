"""Algorithm 1: randomized sparsification via sampling (Section 5.1).

The algorithm consists of ``r = floor(log Delta_A - log log n) - 5`` stages.
In stage ``i`` every active node joins ``M_i`` with probability
``24 * 2^i * log n / Delta_A`` (the decisions only need to be
``8 log n``-wise independent); sampled nodes and their distance-2
neighborhood (in the graph the stage runs on -- ``G^s`` for the power-graph
variant) are deactivated.  After ``r`` stages the remaining active nodes are
added to the output.  The result ``Q`` 2-dominates the initial active set and
every node of ``G`` has at most ``72 log n`` neighbors in ``Q``
(Lemma 5.1, with high probability).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.core.events import SparsificationStageEvents, max_active_degree, stage_count
from repro.graphs.power import bounded_bfs
from repro.hashing.kwise import KWiseHashFamily

Node = Hashable

__all__ = ["RandomizedStageRecord", "RandomizedSparsificationResult",
           "randomized_sparsification", "sample_stage"]


@dataclass
class RandomizedStageRecord:
    """What happened in one stage (for the ablation benchmark / tests)."""

    stage: int
    probability: float
    active_before: int
    sampled: set[Node]
    deactivated: set[Node]
    phi_violations: set[Node]
    psi_violations: set[Node]


@dataclass
class RandomizedSparsificationResult:
    """Output of :func:`randomized_sparsification`."""

    q: set[Node]
    stages: list[RandomizedStageRecord] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds


def sample_stage(events: SparsificationStageEvents, rng: random.Random, *,
                 node_ids: Mapping[Node, int] | None = None,
                 use_kwise: bool = True) -> set[Node]:
    """Sample one stage's ``M_i`` from the active nodes.

    When ``use_kwise`` is true the decisions are driven by a random member of
    an ``8 log n``-wise independent hash family over the node IDs (exactly the
    randomness the derandomization of Section 5.2 later fixes); otherwise the
    decisions are fully independent coin flips.
    """
    if not events.active:
        return set()
    if not use_kwise:
        return {node for node in events.active if rng.random() < events.probability}
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in
                    enumerate(sorted(events.active, key=str))}
    # 8 log n-wise independence, capped so the polynomial degree stays
    # moderate in simulation; the quality guarantees in the tests are checked
    # against the *output*, not against the independence parameter.
    independence = max(2, min(8 * max(1, int(round(math.log2(max(2, events.n))))), 64))
    family = KWiseHashFamily(independence=independence,
                             domain=max(node_ids.values()) + 1,
                             output_range=2 ** 20)
    hash_function = family.sample(rng)
    return events.evaluate_with_hash(hash_function, node_ids)


def randomized_sparsification(graph: nx.Graph, active: set[Node] | None = None, *,
                              delta_a: float | None = None,
                              power: int = 1,
                              rng: random.Random | None = None,
                              use_kwise: bool = True,
                              node_ids: Mapping[Node, int] | None = None,
                              ledger: RoundLedger | None = None,
                              ) -> RandomizedSparsificationResult:
    """Algorithm 1 run on ``G^power`` with communication network ``G``.

    Parameters
    ----------
    graph:
        The communication graph ``G``.
    active:
        The initially active set ``A`` (default: all nodes).
    delta_a:
        The parameter ``Delta_A >= max_v d_s(v, A)``.  Computed from the
        graph when omitted.
    power:
        The power ``s``; degrees, neighborhoods and the distance-2
        deactivation are measured in ``G^power``.
    rng:
        Source of randomness (default: a fresh ``random.Random(0)``).
    use_kwise:
        Drive the sampling with a k-wise independent hash family (as in the
        paper) instead of fully independent coins.
    node_ids:
        Node identifiers used by the hash family; defaults to an arbitrary
        consecutive numbering.
    ledger:
        Round ledger to charge; a fresh one is created when omitted.  Each
        stage costs 2 rounds on ``G^power`` = ``2 * power`` rounds on ``G``
        (Lemma 5.4: sampling is local, deactivation flags travel 2 hops in
        ``G^s``).
    """
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    active = set(graph.nodes()) if active is None else set(active)
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}

    if delta_a is None:
        delta_a = max_active_degree(graph, power, active)
    delta_a = max(1.0, float(delta_a))

    result = RandomizedSparsificationResult(q=set(), ledger=ledger)
    current_active = set(active)
    r = stage_count(delta_a, graph.number_of_nodes())

    for stage in range(1, r + 1):
        events = SparsificationStageEvents(graph=graph, active=current_active,
                                           stage=stage, delta_a=delta_a, power=power)
        sampled = sample_stage(events, rng, node_ids=node_ids, use_kwise=use_kwise)
        phi, psi = events.bad_events(sampled)

        # Deactivate sampled nodes and their distance-2 neighborhood in G^s.
        deactivated = current_active.intersection(bounded_bfs(graph, sampled, 2 * power))

        result.stages.append(RandomizedStageRecord(
            stage=stage, probability=events.probability,
            active_before=len(current_active), sampled=set(sampled),
            deactivated=deactivated, phi_violations=phi, psi_violations=psi))
        result.q |= sampled
        current_active -= deactivated
        ledger.charge_flooding(2 * power, label=f"stage-{stage}-deactivation")

    # The remaining active nodes join Q (M_{r+1} = H_{r+1}).
    result.q |= current_active
    return result
