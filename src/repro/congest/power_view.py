"""``G^k`` adjacency over the base graph's CSR arrays.

The paper's algorithms operate on the power graph ``G^k`` while communicating
over ``G``.  :class:`ReachKernel` computes ``G^k`` rows by ``k``-bounded
frontier expansion over raw CSR arrays -- a vectorized multi-source BFS,
tiled over source nodes so peak memory stays within a budget (default 8 MiB
of boolean frontier state) however dense ``G^k`` is.

:class:`PowerView` wraps the kernel for one graph and ``k``; views are cached
per ``(graph, k)`` on the graph's shared topology structure.  Its tile
queries keep O(n + m) state.  :meth:`PowerView.adjacency_sets`, the batch
form of ``distance_neighborhood`` behind
:func:`repro.graphs.power.power_adjacency`, stores ``G^k`` once as a CSR on
the view -- the label sets it returns are several times larger anyway --
and every later call slices it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

Node = Hashable

__all__ = ["PowerView", "ReachKernel"]

#: Default peak-memory budget for one BFS tile (boolean frontier state).
DEFAULT_TILE_BYTES = 8 << 20


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
        # reduceat needs in-range segment starts; empty trailing segments
        # (isolated nodes) borrow the last position and are cleared below.
        self._starts = np.minimum(indptr[:-1], max(0, positions - 1))
        self._empty = (indptr[1:] - indptr[:-1]) == 0
        self.tile_bytes = max(1, int(tile_bytes))
        self._bytes_per_source = 3 * self.n + positions + 1

    @property
    def tile_size(self) -> int:
        """Sources per tile under the memory budget (at least 1)."""
        return max(1, self.tile_bytes // self._bytes_per_source)

    def _hop(self, flags: "np.ndarray") -> "np.ndarray":
        """One BFS hop: ``out[s, j] = OR over i in N(j) of flags[s, i]``."""
        np = self.np
        if len(self.neighbor_indices) == 0:
            return np.zeros_like(flags)
        gathered = flags[:, self.neighbor_indices]
        out = np.logical_or.reduceat(gathered, self._starts, axis=1)
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
    :meth:`neighbors`, :meth:`tiles` and :meth:`degrees` never store
    ``G^k``; :meth:`adjacency_sets` stores it once (:meth:`csr`).
    """

    def __init__(self, snapshot, k: int, *,
                 tile_bytes: int = DEFAULT_TILE_BYTES) -> None:
        arrays = snapshot.numpy_arrays()
        self.snapshot = snapshot
        self.k = k
        self.n = snapshot.n
        self.kernel = ReachKernel(arrays.indptr, arrays.neighbor_indices, k,
                                  tile_bytes=tile_bytes)
        self._degrees = None
        self._csr = None

    # ------------------------------------------------------------- queries
    def neighbors(self, index: int) -> "np.ndarray":
        """``G^k`` neighbor indices of node ``index`` (sorted, CSR-style)."""
        import numpy as np

        return np.flatnonzero(self.kernel.reach_tile([index])[0])

    def neighbor_labels(self, label: Node) -> set[Node]:
        """``N^k(label)`` as a set of graph labels (non-inclusive)."""
        labels = self.snapshot.labels
        index = self.snapshot.index_of[label]
        return {labels[j] for j in self.neighbors(index)}

    def tiles(self, sources=None):
        """Tile iterator over ``(source_indices, boolean adjacency rows)``."""
        return self.kernel.tiles(sources)

    def degrees(self) -> "np.ndarray":
        """``G^k`` degrees of every node (cached after the first full pass)."""
        import numpy as np

        if self._degrees is None:
            degrees = np.zeros(self.n, dtype=np.int64)
            for chunk, reach in self.tiles():
                degrees[chunk] = reach.sum(axis=1)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    def max_degree(self) -> int:
        import numpy as np

        return int(np.max(self.degrees(), initial=0))

    def csr(self) -> tuple["np.ndarray", "np.ndarray"]:
        """``G^k`` as read-only ``(indptr, indices)`` arrays (int64 row
        pointers, node indices in the base CSR's dtype, ascending within
        each row); one tiled BFS pass on the first call, cached."""
        import numpy as np

        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            dtype = self.kernel.neighbor_indices.dtype
            chunks = [np.zeros(0, dtype=dtype)]
            for chunk, reach in self.tiles():
                indptr[chunk + 1] = reach.sum(axis=1)
                # Row-major nonzero: each row's columns come out ascending.
                chunks.append(np.nonzero(reach)[1].astype(dtype))
            np.cumsum(indptr, out=indptr)
            indices = np.concatenate(chunks)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def adjacency_sets(self, nodes: Iterable[Node] | None = None,
                       ) -> dict[Node, set[Node]]:
        """``{v: N^k(v) ∩ nodes for v in nodes}`` as label sets.

        Key iteration order follows ``nodes`` (all nodes in snapshot order
        when omitted); distances are measured in the full base graph even
        when ``nodes`` restricts the vertex set (the paper's ``G^k[X]``).
        Each set is filled in ascending node-index order: downstream RNG
        draws follow set iteration order.
        """
        import numpy as np

        indptr, indices = self.csr()
        labels = self.snapshot.labels
        if nodes is None:
            ordered: Sequence[Node] = labels
            bounds = indptr.tolist()
            flat = indices.tolist()
        else:
            ordered = list(nodes)
            index_of = self.snapshot.index_of
            sources = np.fromiter((index_of[label] for label in ordered),
                                  dtype=np.int64, count=len(ordered))
            starts = indptr[sources]
            counts = indptr[sources + 1] - starts
            # Gather the source rows into one flat array, then keep the
            # columns inside the restricted set (row order is preserved).
            owner = np.repeat(np.arange(len(sources)), counts)
            offsets = np.cumsum(counts) - counts
            columns = indices[np.arange(int(counts.sum())) - offsets[owner]
                              + starts[owner]]
            restrict = np.zeros(self.n, dtype=bool)
            restrict[sources] = True
            keep = restrict[columns]
            bounds = [0]
            bounds.extend(np.cumsum(np.bincount(
                owner[keep], minlength=len(sources))).tolist())
            flat = columns[keep].tolist()
        label_of = labels.__getitem__
        return {label: set(map(label_of, flat[bounds[row]:bounds[row + 1]]))
                for row, label in enumerate(ordered)}

    # -------------------------------------------------------------- memory
    @property
    def nbytes(self) -> int:
        """Persistent memory held by the view (excludes shared base CSR;
        includes the ``G^k`` CSR once :meth:`csr` has built it)."""
        total = self.kernel._starts.nbytes + self.kernel._empty.nbytes
        if self._degrees is not None:
            total += self._degrees.nbytes
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
        itemsize = 8
        return int(self.n * mean_degree * itemsize + (self.n + 1) * itemsize)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PowerView(n={self.n}, k={self.k})"
