"""Per-stage event system for the sparsification algorithms (Section 5).

One *stage* of the sparsification (randomized or derandomized) works with a
set of active nodes ``H_i`` on the power graph ``G^s`` and two families of
bad events, one per node ``v`` of ``G`` (Lemma 5.5, equations (1) and (2)):

``Phi_v``
    ``v`` has high active degree (``d_s(v, H_i) >= Delta_A / 2^i``) but
    neither ``v`` nor any of its active distance-``s`` neighbors was sampled.
    If no ``Phi`` event occurs, the maximum active degree halves.
``Psi_v``
    ``v`` received more than ``72 log n`` sampled distance-``s`` neighbors.
    If no ``Psi`` event occurs, the output stays sparse.

:class:`SparsificationStageEvents` owns the active distance-``s``
neighborhoods and evaluates the events for a concrete sampled set, as well as
their exact conditional expectations under partially fixed sampling decisions
(used by the per-variable derandomizer and by the bit-by-bit seed fixing as a
ground-truth cross-check in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.graphs.power import power_adjacency

Node = Hashable

__all__ = [
    "DEGREE_BOUND_FACTOR",
    "SparsificationStageEvents",
    "degree_bound",
    "log_n",
    "sampling_probability",
    "stage_count",
]

#: The constant of Lemma 5.1 / Lemma 5.4 (i): ``d(v, Q) <= 72 log n``.
DEGREE_BOUND_FACTOR = 72

#: The constant in the per-stage sampling probability ``24 * 2^i * log n / Delta_A``.
SAMPLING_FACTOR = 24


def log_n(n: int) -> float:
    """The ``log n`` used in the quality bounds (natural logarithm, >= 1)."""
    return max(1.0, math.log(max(2, n)))


def degree_bound(n: int) -> float:
    """The sparsity bound ``72 log n`` of Lemma 5.1 / Lemma 3.1."""
    return DEGREE_BOUND_FACTOR * log_n(n)


def sampling_probability(stage: int, delta_a: float, n: int) -> float:
    """The stage-``i`` sampling probability ``24 * 2^i * log n / Delta_A`` (capped at 1)."""
    if delta_a <= 0:
        return 1.0
    return min(1.0, SAMPLING_FACTOR * (2 ** stage) * log_n(n) / delta_a)


def stage_count(delta_a: float, n: int) -> int:
    """``r = floor(log2 Delta_A - log2 log n) - 5`` (Algorithm 1 / 2), at least 0."""
    if delta_a <= 0:
        return 0
    r = math.floor(math.log2(max(1.0, delta_a)) - math.log2(log_n(n))) - 5
    return max(0, r)


@dataclass
class SparsificationStageEvents:
    """Events and neighborhood bookkeeping for one sparsification stage.

    Parameters
    ----------
    graph:
        The communication graph ``G``.
    active:
        The stage's active set ``H_i``.
    stage:
        The stage index ``i`` (1-based, as in the paper).
    delta_a:
        The maximum-active-degree parameter ``Delta_A`` of the enclosing
        DetSparsification call (*not* of the stage -- the stage assumption is
        that active degrees are at most ``Delta_A / 2^{i-1}``).
    power:
        The power ``s``: neighborhoods and degrees are measured in ``G^s``.
    neighborhoods:
        Optional precomputed mapping ``v -> N^s(v) ∩ A`` where ``A ⊇ H_i`` is
        the initial active set of the enclosing call; the constructor
        intersects it with ``active``.  Without it the rows are sliced from
        the graph's cached ``G^s`` CSR.
    """

    graph: nx.Graph
    active: set[Node]
    stage: int
    delta_a: float
    power: int = 1
    neighborhoods: Mapping[Node, set[Node]] | None = None
    # Derived fields -----------------------------------------------------
    n: int = field(init=False)
    probability: float = field(init=False)
    threshold: float = field(init=False)
    high_degree_cutoff: float = field(init=False)
    active_neighbors: dict[Node, set[Node]] = field(init=False)
    high_degree_nodes: set[Node] = field(init=False)

    def __post_init__(self) -> None:
        self.active = set(self.active)
        self.n = self.graph.number_of_nodes()
        self.probability = sampling_probability(self.stage, self.delta_a, self.n)
        self.threshold = degree_bound(self.n)
        self.high_degree_cutoff = self.delta_a / (2 ** self.stage)
        self.active_neighbors = self._compute_active_neighborhoods()
        self.high_degree_nodes = {
            v for v, neighbors in self.active_neighbors.items()
            if len(neighbors) >= self.high_degree_cutoff
        }

    # ------------------------------------------------------------ plumbing
    def _compute_active_neighborhoods(self) -> dict[Node, set[Node]]:
        if self.neighborhoods is None:
            return power_adjacency(self.graph, self.power, restrict_to=self.active)
        return {node: set(self.neighborhoods.get(node, ())) & self.active
                for node in self.graph.nodes()}

    @cached_property
    def dependents(self) -> dict[Node, list[Node]]:
        """Reverse index ``w -> [v : w in N^s(v) ∩ H_i]``, built once.

        Each list follows ``active_neighbors`` key order, so a set built
        from it receives the same insertions, in the same order, as the
        full scan it replaces.
        """
        index: dict[Node, list[Node]] = {}
        for node, neighbors in self.active_neighbors.items():
            for neighbor in neighbors:
                index.setdefault(neighbor, []).append(node)
        return index

    def dependent_nodes(self, variable: Node) -> set[Node]:
        """Nodes whose events depend on the sampling decision of ``variable``.

        ``Psi_v`` depends on ``X_w`` for ``w in N^s(v) ∩ H_i``; ``Phi_v``
        additionally depends on ``X_v`` itself.  Hence the events affected by
        ``X_w`` are those of ``w`` itself and of every node that counts ``w``
        among its active distance-``s`` neighbors (read from
        :attr:`dependents`).
        """
        affected = {variable}
        affected.update(self.dependents.get(variable, ()))
        return affected

    def phi_variables(self, node: Node) -> set[Node]:
        """``vbl(Phi_v)``: the active nodes whose decisions determine ``Phi_v``."""
        variables = set(self.active_neighbors.get(node, set()))
        if node in self.active:
            variables.add(node)
        return variables

    def psi_variables(self, node: Node) -> set[Node]:
        """``vbl(Psi_v)``: the active distance-``s`` neighbors of ``v``."""
        return set(self.active_neighbors.get(node, set()))

    # ------------------------------------------------------ event checking
    def phi_occurs(self, node: Node, sampled: set[Node]) -> bool:
        """``Phi_v = 1`` iff ``v`` is high-degree and ``v ∉ M_i ∪ N^s(M_i)``."""
        if node not in self.high_degree_nodes:
            return False
        if node in sampled:
            return False
        return not (self.active_neighbors[node] & sampled)

    def psi_occurs(self, node: Node, sampled: set[Node]) -> bool:
        """``Psi_v = 1`` iff ``d_s(v, M_i) > 72 log n``."""
        return len(self.active_neighbors[node] & sampled) > self.threshold

    def bad_events(self, sampled: set[Node]) -> tuple[set[Node], set[Node]]:
        """Return ``(phi_violations, psi_violations)`` for a sampled set."""
        phi = {node for node in self.high_degree_nodes if self.phi_occurs(node, sampled)}
        # Psi_v needs more than 72 log n active neighbors to occur at all.
        psi = {node for node, neighbors in self.active_neighbors.items()
               if len(neighbors) > self.threshold
               and self.psi_occurs(node, sampled)}
        return phi, psi

    # --------------------------------------- exact conditional expectations
    def phi_expectation(self, node: Node, fixed: Mapping[Node, bool]) -> float:
        """``E[Phi_v | fixed]`` under independent sampling of the unfixed variables."""
        if node not in self.high_degree_nodes:
            return 0.0
        variables = self.phi_variables(node)
        unfixed = 0
        for variable in variables:
            decision = fixed.get(variable)
            if decision is True:
                return 0.0
            if decision is None:
                unfixed += 1
        return (1.0 - self.probability) ** unfixed

    def psi_expectation(self, node: Node, fixed: Mapping[Node, bool]) -> float:
        """``E[Psi_v | fixed]`` = ``P(c + Bin(u, q) > 72 log n)``.

        ``c`` is the number of already-fixed sampled neighbors and ``u`` the
        number of still-unfixed active neighbors.
        """
        neighbors = self.active_neighbors[node]
        fixed_sampled = 0
        unfixed = 0
        for neighbor in neighbors:
            decision = fixed.get(neighbor)
            if decision is True:
                fixed_sampled += 1
            elif decision is None:
                unfixed += 1
        return self.psi_tail(fixed_sampled, unfixed)

    def psi_tail(self, fixed_sampled: int, unfixed: int) -> float:
        """``P(c + Bin(u, q) > 72 log n)`` for ``c`` = ``fixed_sampled``
        already-sampled and ``u`` = ``unfixed`` undecided neighbors.

        Exactly 0.0 whenever ``c + u <= 72 log n``, in particular for every
        node with at most ``72 log n`` active neighbors.
        """
        if fixed_sampled > self.threshold:
            return 1.0
        if unfixed == 0:
            return 0.0
        # P(Bin(u, q) > threshold - c) = sf(floor(threshold - c)).
        remaining = math.floor(self.threshold - fixed_sampled)
        if remaining >= unfixed:
            return 0.0
        # Imported here: scipy.stats costs every process ~0.7 s and ~50 MB at
        # start-up, and only nodes with > 72 log n unfixed neighbors get here.
        from scipy import stats
        return float(stats.binom.sf(remaining, unfixed, self.probability))

    def total_expectation(self, fixed: Mapping[Node, bool],
                          nodes: Iterable[Node] | None = None) -> float:
        """``E[sum_v Phi_v + Psi_v | fixed]`` restricted to ``nodes`` (default: all)."""
        if nodes is None:
            nodes = self.graph.nodes()
        total = 0.0
        for node in nodes:
            total += self.phi_expectation(node, fixed)
            total += self.psi_expectation(node, fixed)
        return total

    def evaluate_with_hash(self, hash_function, node_ids: Mapping[Node, int]) -> set[Node]:
        """The sampled set induced by a hash function (Claim 5.6).

        ``X_v = 1`` iff ``h(ID(v))`` falls below ``probability * output_range``
        -- the "``h(v) <= 24 * 2^i * log n``" rule of Claim 5.6 expressed
        relative to the family's output range.
        """
        cutoff = self.probability * hash_function.output_range
        return {node for node in self.active
                if hash_function(node_ids[node]) < cutoff}
