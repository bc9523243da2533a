"""Algorithm 2: DetSparsification (Lemma 5.1, Lemma 5.5, Lemma 5.7).

DetSparsification has the same stage structure as the randomized sampling
algorithm (Algorithm 1); the only difference is that each stage's sampled set
``M_i`` is chosen by derandomization so that *deterministically*

(i)   every node has at most ``72 log n`` sampled distance-``s`` neighbors,
(ii)  every high-active-degree node is sampled or has a sampled neighbor,
(iii) the maximum active degree halves.

The function below runs on ``G^power`` with communication network ``G`` (for
``power = 1`` this is Lemma 5.1; for ``power = s >= 2`` it is the simulation
of Lemma 5.7 used inside the power-graph sparsification).  Rounds are charged
to the ledger per the paper:

* each stage derandomizes ``gamma = 8 * ceil(log2 n)^2`` seed bits, each
  costing one global convergecast + broadcast, i.e. ``O(diam(G))`` rounds
  (Claim 5.6), charged as one ledger entry per stage;
* deactivation flags travel ``2 * power`` hops (2 hops in ``G^power``);
* for ``power >= 2`` the deactivation broadcast of Lemma 4.2 costs an extra
  ``O(power + log n)`` rounds per stage (Lemma 5.7).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx

from repro.congest.cost import RoundLedger
from repro.core.derandomize import (
    DerandomizationOutcome,
    derandomize_stage_per_variable,
    derandomize_stage_seed_bits,
)
from repro.core.events import SparsificationStageEvents, log_n, max_active_degree, stage_count
from repro.core.sampling import sample_stage
from repro.graphs.power import bounded_bfs
from repro.graphs.properties import ecc_lower_bound

Node = Hashable

__all__ = ["DetSparsificationResult", "DetStageRecord", "det_sparsification"]

#: Supported derandomization methods for one stage.
METHODS = ("per-variable", "seed-bits", "randomized")


@dataclass
class DetStageRecord:
    """Diagnostics of one DetSparsification stage."""

    stage: int
    probability: float
    active_before: int
    active_after: int
    sampled: set[Node]
    outcome: DerandomizationOutcome | None


@dataclass
class DetSparsificationResult:
    """Output of :func:`det_sparsification`.

    ``q`` satisfies the guarantees of Lemma 5.1 (measured in ``G^power``):
    bounded Q-degree and domination ``dist(v, Q) <= 2 + dist(v, A)``.
    """

    q: set[Node]
    stages: list[DetStageRecord] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)
    method: str = "per-variable"
    #: The ``diam(G)`` bound the stages charged: the caller's hint, or the
    #: BFS sweep the first stage ran (``None`` if neither).
    diameter_hint: int | None = None

    @property
    def rounds(self) -> int:
        return self.ledger.total_rounds

    @property
    def total_violations(self) -> int:
        """Residual bad events across stages (0 for the deterministic methods)."""
        total = 0
        for record in self.stages:
            if record.outcome is not None:
                total += len(record.outcome.residual_phi) + len(record.outcome.residual_psi)
        return total


def _seed_bit_budget(n: int) -> int:
    """``gamma = 8 * ceil(log2 n)^2`` seed bits per stage (Claim 5.6)."""
    bits = max(1, math.ceil(math.log2(max(2, n))))
    return 8 * bits * bits


def det_sparsification(graph: nx.Graph, active: set[Node] | None = None, *,
                       delta_a: float | None = None,
                       power: int = 1,
                       method: str = "per-variable",
                       node_ids: Mapping[Node, int] | None = None,
                       rng: random.Random | None = None,
                       ledger: RoundLedger | None = None,
                       diameter_hint: int | None = None,
                       seed_bit_samples: int = 6,
                       ) -> DetSparsificationResult:
    """DetSparsification on ``G^power`` with communication network ``G``.

    Parameters mirror :func:`repro.core.sampling.randomized_sparsification`;
    the additional ones are:

    method:
        ``"per-variable"`` (exact conditional expectations over the sampling
        decisions, the fast deterministic default), ``"seed-bits"`` (the
        faithful Claim 5.6 procedure with estimated conditional expectations
        and verified output) or ``"randomized"`` (plain Algorithm 1 sampling
        of each stage -- used by the derandomization ablation).
    diameter_hint:
        An upper bound on ``diam(G)`` used only for round charging; computed
        with a BFS sweep by the first stage when omitted (and never when no
        stage runs), then returned in the result for the caller to reuse.
    seed_bit_samples:
        Completions per conditional-expectation estimate for
        ``method="seed-bits"``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown derandomization method {method!r}; expected one of {METHODS}")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    active = set(graph.nodes()) if active is None else set(active)
    n = graph.number_of_nodes()
    if node_ids is None:
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}
    if delta_a is None:
        delta_a = max_active_degree(graph, power, active)
    delta_a = max(1.0, float(delta_a))

    result = DetSparsificationResult(q=set(), ledger=ledger, method=method,
                                     diameter_hint=diameter_hint)
    current_active = set(active)
    r = stage_count(delta_a, n)
    gamma = _seed_bit_budget(n)
    id_bits = max(1, math.ceil(math.log2(max(2, max(node_ids.values(), default=1) + 1))))

    for stage in range(1, r + 1):
        events = SparsificationStageEvents(graph=graph, active=current_active,
                                           stage=stage, delta_a=delta_a, power=power)
        outcome: DerandomizationOutcome | None
        if method == "per-variable":
            outcome = derandomize_stage_per_variable(events)
            sampled = outcome.sampled
        elif method == "seed-bits":
            outcome = derandomize_stage_seed_bits(events, node_ids, rng=rng,
                                                  samples_per_bit=seed_bit_samples)
            sampled = outcome.sampled
        else:  # randomized ablation
            sampled = sample_stage(events, rng, node_ids=node_ids)
            phi, psi = events.bad_events(sampled)
            outcome = DerandomizationOutcome(sampled=sampled, method="randomized",
                                             residual_phi=phi, residual_psi=psi)

        # Round cost of the stage (Lemma 5.5 / Lemma 5.7 / Claim 5.6).
        if result.diameter_hint is None:
            result.diameter_hint = max(1, ecc_lower_bound(graph))
        ledger.charge_seed_bit(result.diameter_hint,
                               label=f"stage-{stage}-seed-bit", bits=gamma)
        ledger.charge_flooding(2 * power, label=f"stage-{stage}-deactivation")
        if power >= 2:
            # Deactivated nodes broadcast (deactivated, ID) to N^power (Lemma 5.7).
            hat_delta = max(1, int(math.ceil(72 * log_n(n))))
            ledger.charge_broadcast(power, message_bits=id_bits, hat_delta=hat_delta,
                                    label=f"stage-{stage}-deactivation-broadcast")

        # Deactivate sampled nodes and their distance-2 neighborhood in G^power.
        deactivated = current_active.intersection(bounded_bfs(graph, sampled, 2 * power))
        next_active = current_active - deactivated

        result.stages.append(DetStageRecord(
            stage=stage, probability=events.probability,
            active_before=len(current_active), active_after=len(next_active),
            sampled=set(sampled), outcome=outcome))
        result.q |= sampled
        current_active = next_active

    # M_{r+1} = H_{r+1}: the remaining active nodes join Q.
    result.q |= current_active
    return result
