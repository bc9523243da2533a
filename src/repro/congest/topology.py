"""Topology layer: an indexed, immutable snapshot of a CONGEST network.

A :class:`TopologySnapshot` is built once per :class:`~repro.congest.network.
CongestNetwork` and gives the round engines everything they need without ever
touching networkx inside the round loop:

* nodes are mapped to dense integer indices ``0..n-1`` (in graph iteration
  order, so the engines process nodes in exactly the order the legacy
  simulator did);
* adjacency is stored CSR-style (``indptr`` / ``neighbor_indices``) over
  those indices;
* every undirected edge gets a canonical integer **edge index**, assigned in
  order of first encounter, so bandwidth accounting and congestion tracking
  are array lookups instead of per-message ``str()`` canonicalisation (the
  legacy scheduler normalised edge keys with ``str(u) <= str(v)``, which is
  slow and wrong for label types whose ``str()`` ordering is inconsistent);
* per-node **route tables** map a neighbor *label* to its
  ``(neighbor_index, edge_index)`` pair, which is what the send phase needs
  to validate and route an outbox entry with a single dict lookup.

The route tables and the other ``_SIMULATOR_TABLES`` are read only by the
scalar engines: a snapshot reads each through the shared structure, which
builds them all on first use, so the vector engine and every CSR-only
caller never pay for them.

The snapshot also carries the CONGEST identifier table and node degrees, so
binding a :class:`~repro.congest.node.NodeAlgorithm` instance requires no
graph queries either.
"""

from __future__ import annotations

import weakref
from operator import contains
from types import SimpleNamespace
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.congest.network import CongestNetwork

Node = Hashable

__all__ = ["TopologySnapshot", "forget_graph", "graph_csr", "graph_power_view"]

#: Per-graph structural cache: every snapshot of the same graph object shares
#: one :class:`_GraphStructure` (CSR, routes, numpy arrays, power views).
#: Replica sweeps build B networks over one graph; only the identifier table
#: differs per replica, so the O(n + m) construction happens once per graph.
_STRUCTURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


#: The per-node tables only the scalar engines read, built on first access:
#: a CSR-only caller (``PowerView``, the certificates, the vector engine)
#: never pays for them.
_SIMULATOR_TABLES = frozenset((
    "neighbor_labels", "routes", "broadcast_routes", "broadcast_rows",
    "degrees", "edge_endpoints", "max_degree"))


class _GraphStructure:
    """The graph-determined part of a snapshot, shared across networks.

    Everything here depends only on the graph's iteration order and edges --
    not on the network's CONGEST identifier assignment -- so B replica
    networks over one graph share a single instance, including the lazily
    built numpy CSR arrays and ``PowerView`` caches.  Construction builds
    only ``labels``, ``index_of`` and the CSR; the names in
    ``_SIMULATOR_TABLES`` are derived from the CSR on first access.
    """

    __slots__ = (
        "n",
        "edge_count",
        "labels",
        "index_of",
        "indptr",
        "neighbor_indices",
        *sorted(_SIMULATOR_TABLES),
        "numpy_cache",
        "power_views",
        "__weakref__",
    )

    def __init__(self, graph) -> None:
        labels: tuple[Node, ...] = tuple(graph.nodes())
        index_of: dict[Node, int] = {label: i for i, label in enumerate(labels)}
        indptr: list[int] = [0]
        neighbor_indices: list[int] = []
        adjacency = graph._adj  # ``graph.neighbors`` without the call per node
        for label in labels:
            neighbor_indices.extend(map(index_of.__getitem__, adjacency[label]))
            indptr.append(len(neighbor_indices))

        self.n = len(labels)
        # A row lists a self-loop once and every other edge at both ends.
        self.edge_count = (len(neighbor_indices) + sum(
            map(contains, adjacency.values(), adjacency))) // 2
        self.labels = labels
        self.index_of = index_of
        self.indptr = indptr
        self.neighbor_indices = neighbor_indices
        self.numpy_cache = None
        self.power_views = {}

    def __getattr__(self, name: str):
        # Reached only for unset slots: build the simulator tables once.
        if name not in _SIMULATOR_TABLES:
            raise AttributeError(name)
        self._build_simulator_tables()
        return object.__getattribute__(self, name)

    def _build_simulator_tables(self) -> None:
        labels, indptr = self.labels, self.indptr
        neighbor_labels: list[tuple[Node, ...]] = []
        routes: list[dict[Node, tuple[int, int, int]]] = []
        edge_of_pair: dict[tuple[int, int], int] = {}
        edge_endpoints: list[tuple[int, int]] = []

        for u in range(self.n):
            row = self.neighbor_indices[indptr[u]:indptr[u + 1]]
            nbr_labels = tuple(map(labels.__getitem__, row))
            route: dict[Node, tuple[int, int, int]] = {}
            for v, nbr_label in zip(row, nbr_labels):
                pair = (u, v) if u < v else (v, u)
                edge = edge_of_pair.get(pair)
                if edge is None:
                    edge = len(edge_endpoints)
                    edge_of_pair[pair] = edge
                    edge_endpoints.append(pair)
                route[nbr_label] = (v, edge, 2 * edge + (0 if u < v else 1))
            neighbor_labels.append(nbr_labels)
            routes.append(route)

        self.neighbor_labels = tuple(neighbor_labels)
        self.routes = tuple(routes)
        # Route triples in neighbor order (dicts preserve insertion order),
        # for broadcast-style outboxes that cover every neighbor; the paired
        # flat rows serve the transport's tight full-duplex loop.
        self.broadcast_routes = tuple(tuple(route.values()) for route in routes)
        self.broadcast_rows = tuple(
            (tuple(t[0] for t in triples), tuple(t[1] for t in triples))
            for triples in self.broadcast_routes)
        self.degrees = tuple(indptr[i + 1] - indptr[i] for i in range(self.n))
        self.edge_endpoints = edge_endpoints
        self.max_degree = max(self.degrees, default=0)

    def numpy_arrays(self) -> SimpleNamespace:
        """The graph's CSR as cached read-only numpy arrays (everything of
        :meth:`TopologySnapshot.numpy_arrays` except ``congest_ids``)."""
        if self.numpy_cache is None:
            import numpy as np

            # Index arrays (node indices and CSR positions) are downcast
            # to int32 when every stored value provably fits: positions
            # go up to 2m (indptr), indices up to n - 1.  This halves
            # the CSR memory of the million-node workloads; value arrays
            # (congest_ids, degrees) stay int64 -- they feed arithmetic,
            # not indexing.
            index_dtype = (np.int32 if max(self.n, 2 * self.edge_count)
                           < 2 ** 31 else np.int64)
            indptr = np.asarray(self.indptr, dtype=index_dtype)
            neighbor_indices = np.asarray(self.neighbor_indices,
                                          dtype=index_dtype)
            degrees = np.diff(indptr).astype(np.int64)
            rows = np.repeat(np.arange(self.n, dtype=index_dtype), degrees)
            # Each undirected edge is first met from its lower-index end
            # (the rows are symmetric), so the CSR positions with
            # row <= neighbor list the edges in edge-index order.
            canonical = rows <= neighbor_indices
            shared = {
                "indptr": indptr,
                "neighbor_indices": neighbor_indices,
                "rows": rows,
                "degrees": degrees,
                "edge_u": rows[canonical],
                "edge_v": neighbor_indices[canonical],
            }
            # No-overflow guard for the downcast: the last CSR pointer
            # is the largest stored position and must round-trip exactly
            # (it is 2m less one per self-loop, which a row lists once).
            assert int(indptr[-1]) == len(self.neighbor_indices)
            for array in shared.values():
                array.setflags(write=False)
            self.numpy_cache = SimpleNamespace(index_dtype=index_dtype,
                                               **shared)
        return self.numpy_cache

    def power_view(self, k: int):
        """The ``G^k`` view for power ``k``, built on first request."""
        view = self.power_views.get(k)
        if view is None:
            from repro.congest.power_view import PowerView

            view = self.power_views[k] = PowerView(self, k)
        return view


def _structure_of(graph) -> _GraphStructure:
    """The shared structure of ``graph``, rebuilt if the graph changed size.

    The size guard catches the common mutation (nodes or edges added or
    removed between networks): it compares ``n`` and the summed length of
    the adjacency rows (``2m`` less one per self-loop, which the CSR stores
    as ``len(neighbor_indices)``), counted at C speed over networkx's
    adjacency dict where ``number_of_edges()`` walks a Python generator.
    Graphs are otherwise treated as immutable inputs, like the fingerprint
    memo does (see :func:`forget_graph`).
    """
    structure = _STRUCTURES.get(graph)
    if (structure is None
            or structure.n != graph.number_of_nodes()
            or len(structure.neighbor_indices)
            != sum(map(len, graph._adj.values()))):
        structure = _GraphStructure(graph)
        try:
            _STRUCTURES[graph] = structure
        except TypeError:  # non-weakrefable graph type: skip the cache
            pass
    return structure


def forget_graph(graph) -> None:
    """Drop the cached structure of ``graph`` (CSR, routes, ``G^k`` views);
    :func:`repro.api.invalidate_fingerprint` calls it."""
    _STRUCTURES.pop(graph, None)


def graph_power_view(graph, k: int):
    """The view :meth:`TopologySnapshot.power_view` returns, without
    needing a network."""
    return _structure_of(graph).power_view(k)


def graph_csr(graph, k: int = 1):
    """``(structure, indptr, indices)``: the cached CSR rows of ``G`` for
    ``k = 1`` and of ``G^k`` (:meth:`PowerView.csr`) otherwise, over the
    node indices of ``structure.labels``.  Like every ``G^k`` row, a row
    never lists its own node: on a graph with self-loops the ``k = 1``
    rows are the ``G^1`` view's, not ``G``'s own."""
    structure = _structure_of(graph)
    if k == 1 and len(structure.neighbor_indices) == 2 * structure.edge_count:
        arrays = structure.numpy_arrays()
        return structure, arrays.indptr, arrays.neighbor_indices
    return (structure, *structure.power_view(k).csr())


class TopologySnapshot:
    """Integer-indexed, read-only view of a :class:`CongestNetwork`.

    Attributes
    ----------
    labels:
        ``labels[i]`` is the graph label of node index ``i`` (graph iteration
        order).
    index_of:
        Inverse mapping ``label -> index``.
    congest_ids:
        ``congest_ids[i]`` is the unique CONGEST identifier of node ``i``.
    indptr, neighbor_indices:
        CSR adjacency: the neighbors of node ``i`` are
        ``neighbor_indices[indptr[i]:indptr[i + 1]]``, in the same order the
        underlying graph iterates them.
    neighbor_labels:
        ``neighbor_labels[i]`` is the tuple of neighbor labels of node ``i``
        (exactly what :class:`NodeAlgorithm.neighbors` is bound to).
    routes:
        ``routes[i]`` maps a neighbor label of node ``i`` to its
        ``(neighbor_index, edge_index, directed_slot)`` triple, where
        ``directed_slot`` is the precomputed full-duplex bandwidth slot
        (``2 * edge_index`` for the low-to-high index direction,
        ``2 * edge_index + 1`` for the reverse).
    degrees:
        ``degrees[i]`` is the degree of node ``i``.
    edge_endpoints:
        ``edge_endpoints[e]`` is the canonical ``(u_index, v_index)`` pair
        (``u_index < v_index``) of edge ``e``.

    ``neighbor_labels``, ``routes``, ``degrees``, ``edge_endpoints`` and the
    rest of ``_SIMULATOR_TABLES`` are not copied at construction: each is
    read through the shared structure (built there once) on first access.
    """

    __slots__ = (
        "n",
        "edge_count",
        "labels",
        "index_of",
        "congest_ids",
        "indptr",
        "neighbor_indices",
        "neighbor_labels",
        "routes",
        "broadcast_routes",
        "broadcast_rows",
        "degrees",
        "edge_endpoints",
        "max_degree",
        "_structure",
        "_numpy_cache",
    )

    def __init__(self, network: "CongestNetwork") -> None:
        structure = _structure_of(network.graph)
        if len(structure.neighbor_indices) != 2 * structure.edge_count:
            raise ValueError("a CONGEST network has no self-loops")
        self._structure = structure
        for name in ("n", "edge_count", "labels", "index_of", "indptr",
                     "neighbor_indices"):
            setattr(self, name, getattr(structure, name))
        # The only network-dependent state: the CONGEST identifier table
        # (and, lazily, its numpy mirror inside the arrays namespace).
        node_id = network.node_id
        self.congest_ids = tuple(node_id(label) for label in self.labels)
        self._numpy_cache = None

    def __getattr__(self, name: str):
        # Reached only for unset slots: a simulator table is read through
        # the structure (which builds them all once) on first use, so the
        # array path, which never asks, never builds them.
        if name not in _SIMULATOR_TABLES:
            raise AttributeError(name)
        value = getattr(self._structure, name)
        setattr(self, name, value)
        return value

    # -------------------------------------------------------------- arrays
    def numpy_arrays(self):
        """The snapshot's CSR adjacency as cached ``int64`` numpy arrays.

        Built lazily (numpy is only required by callers that ask, i.e. the
        vectorized round engine) and cached on the snapshot, exactly like
        the snapshot itself is cached on the network.  The returned object
        carries:

        ``indptr`` (n+1), ``neighbor_indices`` (2m), ``rows`` (2m: the
        owning node of each CSR position), ``degrees`` (n), ``congest_ids``
        (n), ``edge_u`` / ``edge_v`` (m: canonical endpoint indices of every
        undirected edge).  All arrays are read-only views shared by every
        run over this snapshot.
        """
        if self._numpy_cache is None:
            import numpy as np

            congest_ids = np.asarray(self.congest_ids, dtype=np.int64)
            congest_ids.setflags(write=False)
            self._numpy_cache = SimpleNamespace(
                congest_ids=congest_ids,
                **vars(self._structure.numpy_arrays()))
        return self._numpy_cache

    def power_view(self, k: int):
        """The cached ``G^k`` adjacency view for power ``k``.

        Built on first request (like :meth:`numpy_arrays`) and cached per
        ``k`` on the shared per-graph structure, so every network over the
        same graph -- in particular the B replicas of a batched sweep --
        and :func:`graph_csr` reuse one view; see
        :class:`repro.congest.power_view.PowerView`.
        """
        return self._structure.power_view(k)

    # ------------------------------------------------------------- queries
    def neighbors(self, index: int) -> list[int]:
        """Neighbor indices of node ``index`` (CSR slice)."""
        return self.neighbor_indices[self.indptr[index]:self.indptr[index + 1]]

    def degree(self, index: int) -> int:
        return self.degrees[index]

    def edge_label(self, edge: int) -> tuple[Node, Node]:
        """The canonical ``(u, v)`` label pair of edge ``edge``.

        Canonical means ordered by node *index* (graph iteration order) --
        stable within a run and independent of the labels' ``str()``.
        Read from the CSR's canonical edge arrays, which list the edges in
        edge-index order, so no route table is built.
        """
        arrays = self.numpy_arrays()
        return (self.labels[arrays.edge_u[edge]],
                self.labels[arrays.edge_v[edge]])

    def edge_index(self, u: Node, v: Node) -> int:
        """The edge index of the edge between labels ``u`` and ``v``.

        Raises ``KeyError`` if the edge does not exist.
        """
        return self.routes[self.index_of[u]][v][1]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TopologySnapshot(n={self.n}, m={self.edge_count})"
