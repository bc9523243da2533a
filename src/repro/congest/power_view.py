"""``G^k`` adjacency over the base graph's CSR arrays.

The paper's algorithms operate on the power graph ``G^k`` while communicating
over ``G``.  :class:`ReachKernel` computes ``G^k`` rows by ``k``-bounded
frontier expansion over raw CSR arrays -- a vectorized multi-source BFS,
tiled over source nodes so peak memory stays within a budget (default 8 MiB
of boolean frontier state) however dense ``G^k`` is.

:class:`PowerView` wraps the kernel for one graph and ``k``; views are cached
per ``(graph, k)`` on the graph's shared topology structure.  Its tile
queries keep O(n + m) state.  :meth:`PowerView.csr` stores ``G^k`` once as
a CSR on the view, each row ascending in node index and never listing its
own node.  It is the one stored form of the ``G^k`` rows: callers read it
through :func:`~repro.congest.topology.graph_csr` (which at ``k = 1`` hands
out ``G``'s own rows instead, in networkx adjacency order, unless ``G`` has
self-loops) and mask it to a set ``X`` themselves with :func:`label_mask`,
:func:`row_hits` and :func:`row_entries`; no label-set copy of ``G^k`` is
kept.  :meth:`PowerView.restricted_degrees` (``|N^k(v) ∩ X|`` for every
node, behind :func:`repro.graphs.power.max_power_degree`) counts on that
CSR when it exists and otherwise streams the rows without storing them.

The rows have two builds with identical output:

* **sparse-frontier expansion** -- ``k`` rounds over sorted arrays of
  ``(source, node)`` pairs, deduplicated by sort; its cost follows the
  ``G^k`` rows themselves, ~``2 d_k`` pairs per source;
* **dense tiles** -- the kernel's boolean ``(S, n)`` tiles; each source
  costs ``k * (n + m)`` lanes however short its row is, which only pays
  off when the rows cover a good part of the graph.

The view picks the sparse build while ``SPARSE_CSR_FACTOR`` times the mean
of per-node bounds on the ``G^k`` degree stays below ``n``; no option
overrides it.  The bounds (:meth:`PowerView.row_bounds`) count
non-backtracking walks of length ``<= k`` in O(k (n + m)), so one hub
raises only the bounds of the nodes near it, and on a ``Delta``-regular
graph the rule reads ``2 sum_{i=1..k} Delta (Delta - 1)^(i-1) < n``.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

Node = Hashable

__all__ = ["PowerView", "ReachKernel", "label_mask", "row_entries", "row_hits"]

#: Default peak-memory budget for one BFS tile (boolean frontier state).
DEFAULT_TILE_BYTES = 8 << 20

#: :class:`PowerView` expands sparse frontiers when this many times the mean
#: ``G^k`` degree bound is still below ``n``, and runs dense tiles otherwise.
SPARSE_CSR_FACTOR = 2


def label_mask(structure, labels: Iterable[Node]) -> "np.ndarray":
    """Boolean mask over the node indices of ``structure`` (as
    :func:`~repro.congest.topology.graph_csr` returns it), set at ``labels``;
    labels outside the graph are ignored, as set intersection would."""
    import numpy as np

    indices = np.fromiter(map(structure.index_of.get, labels, repeat(-1)),
                          dtype=np.int64)
    mask = np.zeros(structure.n, dtype=bool)
    mask[indices[indices >= 0]] = True
    return mask


def row_hits(indptr: "np.ndarray", indices: "np.ndarray",
             mask: "np.ndarray") -> "np.ndarray":
    """``|row_v ∩ X|`` for every row ``v`` of a CSR, ``X`` given as a
    boolean mask over the column indices."""
    import numpy as np

    hits = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(mask[indices], out=hits[1:])
    return hits[indptr[1:]] - hits[indptr[:-1]]


def row_entries(indptr: "np.ndarray", indices: "np.ndarray",
                rows: "np.ndarray") -> "np.ndarray":
    """The rows ``rows`` of a CSR, concatenated in the order given."""
    import numpy as np

    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return indices[np.repeat(starts - (np.cumsum(counts) - counts), counts)
                   + np.arange(int(counts.sum()))]


class ReachKernel:
    """Tiled ``k``-bounded multi-source BFS over raw CSR arrays.

    ``reach_tile(sources)`` returns the boolean matrix ``R`` with
    ``R[s, j] = (0 < dist(sources[s], j) <= k)`` -- i.e. row ``s`` is the
    (non-inclusive) ``G^k`` adjacency row of ``sources[s]``.  Peak memory per
    tile is ``S * (3n + 2m)`` bytes of booleans; :meth:`tiles` sizes ``S``
    to fit ``tile_bytes``.
    """

    def __init__(self, indptr, neighbor_indices, k: int, *,
                 tile_bytes: int = DEFAULT_TILE_BYTES) -> None:
        import numpy as np

        if k < 0:
            raise ValueError("k must be non-negative")
        self.np = np
        self.k = k
        self.n = len(indptr) - 1
        self.indptr = indptr
        self.neighbor_indices = neighbor_indices
        positions = len(neighbor_indices)
        self._empty = (indptr[1:] - indptr[:-1]) == 0
        # reduceat needs in-range segment starts, so it runs over the rows
        # up to the last non-empty one; trailing empty rows (isolated
        # nodes) stay False.  Clamping their starts instead would cut the
        # last position off the last non-empty row.
        self._live = int(np.flatnonzero(~self._empty)[-1]) + 1 if positions else 0
        self._starts = indptr[:self._live]
        self.tile_bytes = max(1, int(tile_bytes))
        self._bytes_per_source = 3 * self.n + positions + 1

    @property
    def tile_size(self) -> int:
        """Sources per tile under the memory budget (at least 1)."""
        return max(1, self.tile_bytes // self._bytes_per_source)

    def _hop(self, flags: "np.ndarray") -> "np.ndarray":
        """One BFS hop: ``out[s, j] = OR over i in N(j) of flags[s, i]``."""
        out = self.np.zeros_like(flags)
        if self._live == 0:
            return out
        gathered = flags[:, self.neighbor_indices]
        self.np.logical_or.reduceat(gathered, self._starts, axis=1,
                                    out=out[:, :self._live])
        # reduceat yields the next segment's head for empty segments.
        out[:, self._empty] = False
        return out

    def reach_tile(self, sources) -> "np.ndarray":
        """Boolean ``G^k`` adjacency rows for ``sources`` (non-inclusive)."""
        np = self.np
        sources = np.asarray(sources, dtype=np.int64)
        count = len(sources)
        reached = np.zeros((count, self.n), dtype=bool)
        if count == 0 or self.k == 0:
            return reached
        lanes = np.arange(count)
        reached[lanes, sources] = True
        frontier = reached.copy()
        for _ in range(self.k):
            if not frontier.any():
                break
            frontier = self._hop(frontier) & ~reached
            reached |= frontier
        reached[lanes, sources] = False
        return reached

    def tiles(self, sources=None) -> Iterator[tuple["np.ndarray", "np.ndarray"]]:
        """Yield ``(source_indices, reach_matrix)`` pairs tile by tile."""
        np = self.np
        if sources is None:
            sources = np.arange(self.n, dtype=np.int64)
        else:
            sources = np.asarray(sources, dtype=np.int64)
        step = self.tile_size
        for start in range(0, len(sources), step):
            chunk = sources[start:start + step]
            yield chunk, self.reach_tile(chunk)


class PowerView:
    """``G^k`` queries over a graph's base CSR arrays.

    Obtained through :meth:`TopologySnapshot.power_view` or
    :func:`repro.congest.topology.graph_power_view`.  ``snapshot`` is what
    the view was built over: a snapshot or the per-graph structure, both
    exposing ``n``, ``labels``, ``index_of`` and ``numpy_arrays()``.
    :meth:`tiles` and (before :meth:`csr` has run) :meth:`restricted_degrees`
    never store ``G^k``; :meth:`csr` stores it once.
    """

    def __init__(self, snapshot, k: int, *,
                 tile_bytes: int = DEFAULT_TILE_BYTES) -> None:
        arrays = snapshot.numpy_arrays()
        self.snapshot = snapshot
        self.k = k
        self.n = snapshot.n
        self.kernel = ReachKernel(arrays.indptr, arrays.neighbor_indices, k,
                                  tile_bytes=tile_bytes)
        self.base_degrees = arrays.degrees
        self.base_rows = arrays.rows
        self._csr = None
        self._row_bounds = None

    # ------------------------------------------------------------- queries
    def tiles(self, sources=None):
        """Tile iterator over ``(source_indices, boolean adjacency rows)``."""
        return self.kernel.tiles(sources)

    def csr(self) -> tuple["np.ndarray", "np.ndarray"]:
        """``G^k`` as read-only ``(indptr, indices)`` arrays (int64 row
        pointers, node indices in the base CSR's dtype, ascending within
        each row); built on the first call and cached.

        The rows come from :meth:`_row_blocks`, sparse-frontier expansion
        or dense tiles as :meth:`_sparse_csr_preferred` picks; both yield
        identical rows."""
        import numpy as np

        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            pieces = [np.zeros(0, dtype=self.kernel.neighbor_indices.dtype)]
            for sources, counts, columns in self._row_blocks():
                indptr[sources + 1] = counts
                pieces.append(columns)
            np.cumsum(indptr, out=indptr)
            indices = np.concatenate(pieces)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def row_bounds(self) -> "np.ndarray":
        """Upper bounds on every node's ``G^k`` degree (int64, cached).

        A node at distance exactly ``i`` from ``v`` ends a shortest path,
        hence a non-backtracking walk of length ``i`` from ``v``; so
        ``d_k(v) <= min(n - 1, sum_{i=1..k} p_i(v))`` where ``p_i`` counts
        those walks: ``p_1 = deg``, ``p_2 = A deg - deg`` and ``p_{i+1} =
        A p_i - (deg - 1) p_{i-1}``.  ``k`` sparse products over the base
        CSR, in float64 so deep powers cannot overflow; on a
        ``Delta``-regular graph every bound is ``sum_i Delta (Delta -
        1)^(i-1)``, and a hub raises only the bounds of nodes near it."""
        import numpy as np

        if self._row_bounds is None:
            degrees = self.base_degrees.astype(np.float64)
            neighbors = self.kernel.neighbor_indices

            def spread(values):  # (A values)_v = sum of values over N(v)
                return np.bincount(self.base_rows, weights=values[neighbors],
                                   minlength=self.n)

            total = np.zeros(self.n, dtype=np.float64)
            before, walks = np.ones(self.n, dtype=np.float64), degrees
            for i in range(1, self.k + 1):
                total += walks
                if i == 1:
                    following = spread(walks) - degrees
                else:
                    following = spread(walks) - (degrees - 1) * before
                before, walks = walks, following
            bounds = np.clip(total, 0, max(0, self.n - 1)).astype(np.int64)
            bounds.setflags(write=False)
            self._row_bounds = bounds
        return self._row_bounds

    def _sparse_csr_preferred(self) -> bool:
        """Sparse expansion costs ~``2 d_k(v)`` sorted pairs per source, a
        dense tile ``k * (n + m)`` boolean lanes at a fraction of the
        per-element cost; sparse wins while the mean ``G^k`` degree bound
        stays well below ``n``."""
        return SPARSE_CSR_FACTOR * int(self.row_bounds().sum()) < self.n ** 2

    def _row_blocks(self) -> Iterator[tuple["np.ndarray", "np.ndarray",
                                            "np.ndarray"]]:
        """Yield ``(sources, counts, columns)`` blocks covering every node:
        ``counts[i]`` is ``d_k(sources[i])`` and ``columns`` the
        concatenated rows (each ascending, in the base CSR's dtype).
        Each block keeps at most one tile budget of working state."""
        import numpy as np

        dtype = self.kernel.neighbor_indices.dtype
        if not self._sparse_csr_preferred():
            for chunk, reach in self.tiles():
                # Row-major nonzero: each row's columns come out ascending.
                yield chunk, reach.sum(axis=1), np.nonzero(reach)[1].astype(dtype)
            return
        n = self.n
        # A source's last hop gathers <= p_k + p_{k-1} <= ~2 d_k pairs,
        # each held in ~8 int64 temporaries: cut the sources into runs of
        # about one tile budget by the running sum of that cost.
        cost = 2 * self.row_bounds() + 1
        offsets = np.cumsum(cost) - cost
        cuts = np.flatnonzero(np.diff(offsets // max(1, self.kernel.tile_bytes // 64))) + 1
        edges = [0, *cuts.tolist(), n]
        base_indptr = self.kernel.indptr.astype(np.int64)
        for start, stop in zip(edges[:-1], edges[1:]):
            if start == stop:
                continue
            sources = np.arange(start, stop, dtype=np.int64)
            lanes, nodes = self._expand(sources, base_indptr)
            yield (sources,
                   np.bincount(lanes - start, minlength=len(sources)),
                   nodes.astype(dtype))

    def _expand(self, sources: "np.ndarray", base_indptr: "np.ndarray",
                ) -> tuple["np.ndarray", "np.ndarray"]:
        """``k`` rounds of frontier expansion over ``(source, node)`` pairs
        encoded as ``source * n + node`` and kept sorted (``base_indptr``
        is the base CSR's row pointers as int64); returns the ``(lanes,
        nodes)`` pairs of the non-inclusive rows, sorted by lane, then
        node."""
        import numpy as np

        n = self.n
        neighbors = self.kernel.neighbor_indices
        reached = frontier = sources * (n + 1)  # (lane, node) = (s, s)
        for _ in range(self.k):
            lanes, nodes = np.divmod(frontier, n)
            starts = base_indptr[nodes]
            counts = base_indptr[nodes + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # Gather every frontier node's neighbor run in one pass.
            offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            candidates = (np.repeat(lanes * n, counts)
                          + neighbors[offsets + np.arange(total)])
            candidates.sort()
            fresh = np.empty(total, dtype=bool)
            fresh[0] = True
            np.not_equal(candidates[1:], candidates[:-1], out=fresh[1:])
            candidates = candidates[fresh]
            slot = np.searchsorted(reached, candidates)
            slot[slot == len(reached)] = 0
            frontier = candidates[reached[slot] != candidates]
            if len(frontier) == 0:
                break
            reached = np.concatenate((reached, frontier))
            reached.sort(kind="stable")  # merges two sorted runs
        lanes, nodes = np.divmod(reached, n)
        keep = nodes != lanes
        return lanes[keep], nodes[keep]

    def restricted_degrees(self, restrict_to: Iterable[Node] | None = None,
                           ) -> "np.ndarray":
        """``|N^k(v) ∩ X|`` for every node index ``v`` (``X`` =
        ``restrict_to``, all nodes when omitted).

        Counted on the cached CSR once :meth:`csr` has built it; otherwise
        streamed block by block through :meth:`_row_blocks`, storing no
        ``G^k`` row beyond the current block."""
        import numpy as np

        mask = None if restrict_to is None else label_mask(self.snapshot, restrict_to)
        if self._csr is not None:
            indptr, indices = self._csr
            if mask is None:
                return np.diff(indptr)
            return row_hits(indptr, indices, mask)
        degrees = np.zeros(self.n, dtype=np.int64)
        for sources, counts, columns in self._row_blocks():
            if mask is None:
                degrees[sources] = counts
            else:
                owner = np.repeat(np.arange(len(sources)), counts)
                degrees[sources] = np.bincount(owner[mask[columns]],
                                               minlength=len(sources))
        return degrees

    # -------------------------------------------------------------- memory
    @property
    def nbytes(self) -> int:
        """Persistent memory held by the view (excludes shared base CSR;
        includes the ``G^k`` CSR once :meth:`csr` has built it)."""
        total = self.kernel._starts.nbytes + self.kernel._empty.nbytes
        if self._row_bounds is not None:
            total += self._row_bounds.nbytes
        if self._csr is not None:
            total += sum(array.nbytes for array in self._csr)
        return total

    def estimated_power_csr_bytes(self, sample: int = 256) -> int:
        """Estimated bytes a materialized ``G^k`` CSR would need.

        Samples evenly spaced source nodes (deterministic, no RNG) to
        estimate the mean ``G^k`` degree; the estimate is what the
        benchmarks compare peak BFS memory against without ever paying for
        the materialization.
        """
        import numpy as np

        if self.n == 0:
            return 0
        sample = max(1, min(self.n, sample))
        sources = np.unique(np.linspace(0, self.n - 1, sample).astype(np.int64))
        total = 0
        for _, reach in self.tiles(sources):
            total += int(reach.sum())
        mean_degree = total / len(sources)
        # The itemsizes csr() stores: int64 row pointers, indices in the
        # base CSR's dtype.
        index_bytes = self.kernel.neighbor_indices.dtype.itemsize
        return int(self.n * mean_degree * index_bytes + (self.n + 1) * 8)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PowerView(n={self.n}, k={self.k})"
