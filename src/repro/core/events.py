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

Row source and order contract.  A stage reads its rows from the graph's
cached ``G^s`` CSR (:func:`~repro.congest.topology.graph_csr`) and masks
them to ``H_i``; no label-set copy of ``G^s`` and no reverse index is
built.  Floats summed by the derandomizer and coins drawn by the sampling
depend on the iteration order of Python sets, so:

* ``active`` is a copy of the set the caller passes, and
  :func:`repro.core.sampling.sample_stage` draws one coin per node in its
  iteration order;
* :meth:`SparsificationStageEvents.dependent_nodes` inserts ``w``, then,
  when ``w`` is active, each node of ``w``'s ``G^s`` row in ascending node
  index, from a list (``set.update`` presizes when handed a set or a dict,
  which changes the layout).  By the symmetry of ``G^s`` those are exactly
  the nodes ``v`` with ``w in N^s(v) ∩ H_i``, in graph order, so the set
  equals the one a scan of every row builds, layout included.  At
  ``s = 1`` ``graph_csr`` hands out ``G``'s own rows in networkx adjacency
  order, so those are sorted first;
* ``high_degree_nodes`` and ``psi_nodes`` are filled in node-index order.

:func:`repro.core.derandomize.conditional_expectations` sums in the order
of ``dependent_nodes(w)``, so it makes the same decisions as the direct
evaluation.  ``tests/test_sparsify_stage_oracle.py`` pins all of this
against the dict-built stage it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.congest.topology import graph_csr
from repro.graphs.power import PowerRows

Node = Hashable

__all__ = [
    "DEGREE_BOUND_FACTOR",
    "SparsificationStageEvents",
    "degree_bound",
    "log_n",
    "max_active_degree",
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


def max_active_degree(graph: nx.Graph, power: int, active: Iterable[Node]) -> int:
    """``Delta_A = max_v d_s(v, A)``, counted on the graph's cached ``G^s``
    CSR: the rows the stages read, built here when missing, so that a
    certificate counting ``d_s(v, Q)`` afterwards finds them too."""
    return int(PowerRows(graph, power, active).counts().max(initial=0))


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

    ``active_neighbors`` maps every node ``v`` of ``G`` (in graph order) to
    ``N^s(v) ∩ H_i``, each row built on first access;
    ``high_degree_nodes`` holds the nodes whose ``Phi_v`` can occur and
    ``psi_nodes`` those whose ``Psi_v`` can (more than ``72 log n`` active
    neighbors).
    """

    graph: nx.Graph
    active: set[Node]
    stage: int
    delta_a: float
    power: int = 1
    # Derived fields -----------------------------------------------------
    n: int = field(init=False)
    probability: float = field(init=False)
    threshold: float = field(init=False)
    high_degree_cutoff: float = field(init=False)
    active_neighbors: PowerRows = field(init=False)
    high_degree_nodes: set[Node] = field(init=False)
    psi_nodes: set[Node] = field(init=False)

    def __post_init__(self) -> None:
        self.active = set(self.active)
        self.n = self.graph.number_of_nodes()
        self.probability = sampling_probability(self.stage, self.delta_a, self.n)
        self.threshold = degree_bound(self.n)
        self.high_degree_cutoff = self.delta_a / (2 ** self.stage)
        structure, self._indptr, self._indices = graph_csr(self.graph, self.power)
        self._labels, self._index_of = structure.labels, structure.index_of
        self.active_neighbors = PowerRows(self.graph, self.power, self.active)
        self._degrees = self.active_neighbors.counts()
        self.high_degree_nodes = self._labelled(self._degrees >= self.high_degree_cutoff)
        self.psi_nodes = self._labelled(self._degrees > self.threshold)

    # ------------------------------------------------------------ plumbing
    def _labelled(self, mask) -> set[Node]:
        """The labels at the set positions of a boolean mask over the node
        indices, inserted in node-index order."""
        import numpy as np

        return set(map(self._labels.__getitem__, np.flatnonzero(mask).tolist()))

    def active_degree(self, node: Node) -> int:
        """``d_s(v, H_i) = |N^s(v) ∩ H_i|``."""
        return int(self._degrees[self._index_of[node]])

    def dependent_nodes(self, variable: Node) -> set[Node]:
        """Nodes whose events depend on the sampling decision of ``variable``.

        ``Psi_v`` depends on ``X_w`` for ``w in N^s(v) ∩ H_i``; ``Phi_v``
        additionally depends on ``X_v`` itself.  Hence the events affected by
        ``X_w`` are those of ``w`` itself and of every node that counts ``w``
        among its active distance-``s`` neighbors: by the symmetry of
        ``G^s``, none when ``w`` is inactive and all of ``N^s(w)`` when it
        is active, inserted in ascending node index (module docstring).
        """
        affected = {variable}
        if variable in self.active:
            i = self._index_of[variable]
            row = self._indices[self._indptr[i]:self._indptr[i + 1]].tolist()
            if self.power == 1:  # G's own row, in networkx adjacency order
                row.sort()
            affected.update(list(map(self._labels.__getitem__, row)))
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
        psi = {node for node in self.psi_nodes if self.psi_occurs(node, sampled)}
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
