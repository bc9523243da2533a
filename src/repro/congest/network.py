"""The communication network wrapper used by the CONGEST simulator.

A :class:`CongestNetwork` wraps a :class:`networkx.Graph` together with the
model parameters of the paper's Section 1: unique ``O(log n)``-bit node
identifiers and the per-round per-edge bandwidth.  Node identifiers are drawn
from ``[n^c]`` (by default a pseudo-random permutation of ``0..n^2``) so that
IDs carry no structural information -- several of the paper's algorithms
(e.g. Corollary 6.2) explicitly use IDs as a fallback coloring, and making
them non-consecutive keeps those code paths honest.
"""

from __future__ import annotations

import math
import random
from types import MappingProxyType
from typing import Hashable, Iterator, Mapping

import networkx as nx

from repro.congest.message import DEFAULT_BANDWIDTH_BITS, id_bits
from repro.congest.topology import TopologySnapshot

Node = Hashable

__all__ = ["CongestNetwork"]


class CongestNetwork:
    """A CONGEST communication network.

    Parameters
    ----------
    graph:
        The undirected communication graph ``G``.
    bandwidth_bits:
        Per-edge per-round bandwidth in bits.  ``None`` means
        ``max(DEFAULT_BANDWIDTH_BITS, 6 * ceil(log2 n))`` -- i.e. Theta(log n)
        with a constant large enough for the widest message of this
        repository's protocols, Luby's ``(priority < n^3, ID <= n^2)`` pair
        (at most ``5 * ceil(log2 n) + 4`` bits), matching the paper's
        "O(log n) bits" convention.
    id_seed:
        Seed of the pseudo-random ID assignment.  ``None`` assigns
        consecutive IDs ``1..n`` (useful for deterministic unit tests).
    """

    def __init__(self, graph: nx.Graph, *, bandwidth_bits: int | None = None,
                 id_seed: int | None = 0) -> None:
        self.graph = graph
        self.n = graph.number_of_nodes()
        if bandwidth_bits is None:
            bandwidth_bits = max(DEFAULT_BANDWIDTH_BITS, 6 * id_bits(max(2, self.n)))
        self.bandwidth_bits = bandwidth_bits
        self._ids = self._assign_ids(id_seed)
        self._ids_view = MappingProxyType(self._ids)
        self._nodes_by_id = {node_id: node for node, node_id in self._ids.items()}
        self._max_degree: int | None = None
        self._topology: TopologySnapshot | None = None

    # ------------------------------------------------------------------ IDs
    def _assign_ids(self, id_seed: int | None) -> dict[Node, int]:
        nodes = sorted(self.graph.nodes(), key=str)
        if id_seed is None:
            return {node: index + 1 for index, node in enumerate(nodes)}
        rng = random.Random(id_seed)
        id_space = max(4, self.n * self.n)
        chosen = rng.sample(range(1, id_space + 1), k=len(nodes))
        return {node: chosen[index] for index, node in enumerate(nodes)}

    def node_id(self, node: Node) -> int:
        """The unique O(log n)-bit identifier of ``node``."""
        return self._ids[node]

    def node_of_id(self, node_id: int) -> Node:
        """Inverse of :meth:`node_id`."""
        return self._nodes_by_id[node_id]

    @property
    def ids(self) -> Mapping[Node, int]:
        """Read-only view of the full ID assignment.

        This is a :class:`types.MappingProxyType` over the internal table
        (the legacy accessor copied the full dict on every access).
        """
        return self._ids_view

    @property
    def id_bits(self) -> int:
        """Bit length of identifiers (``a`` in the paper's Lemma 4.1/4.2)."""
        return max(1, math.ceil(math.log2(max(2, max(self._ids.values()) + 1))))

    # ----------------------------------------------------------- structure
    def nodes(self) -> Iterator[Node]:
        return iter(self.graph.nodes())

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self.graph.neighbors(node))

    def degree(self, node: Node) -> int:
        return self.graph.degree(node)

    @property
    def max_degree(self) -> int:
        """The maximum degree of the communication graph (cached).

        The graph is treated as immutable once wrapped in a
        :class:`CongestNetwork` (the simulator's topology snapshot relies on
        the same assumption).
        """
        if self._max_degree is None:
            if self.n == 0:
                self._max_degree = 0
            else:
                self._max_degree = max(degree for _, degree in self.graph.degree())
        return self._max_degree

    def has_edge(self, u: Node, v: Node) -> bool:
        return self.graph.has_edge(u, v)

    def topology(self) -> TopologySnapshot:
        """The cached integer-indexed :class:`TopologySnapshot` of this network.

        Built on first use and reused by every simulator constructed over
        this network; the wrapped graph must not be mutated afterwards.
        """
        if self._topology is None:
            self._topology = TopologySnapshot(self)
        return self._topology

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CongestNetwork(n={self.n}, m={self.graph.number_of_edges()}, "
                f"bandwidth={self.bandwidth_bits} bits)")
