"""Virtual ``G^k`` views: PowerView/ReachKernel vs ``power_graph(G, k)``.

The tentpole contract: every ``G^k`` row the view stores (:meth:`csr`)
must agree exactly with the materialized power graph and with a per-source
BFS, over the scenario registry's sample cells -- adversarial families
included -- for several ``k``, every tiling granularity, and restricted
node subsets.  The same rows reach callers through
:func:`repro.congest.topology.graph_csr` and, as label sets, through
:class:`repro.graphs.power.PowerRows`, whose key order the RNG-coupled
pipelines rely on; both are checked against the per-source BFS here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest.network import CongestNetwork
from repro.congest.power_view import DEFAULT_TILE_BYTES, PowerView, ReachKernel, label_mask
from repro.congest.topology import TopologySnapshot, graph_csr
from repro.graphs import power_graph
from repro.graphs.power import PowerRows, max_power_degree
from repro.scenarios.registry import DEFAULT_REGISTRY
from tests.conftest import distance_neighborhood

#: Every engine-equivalence sample cell (spans all adversarial families).
SAMPLE_CELLS = sorted(
    {scenario.cell for scenario in
     DEFAULT_REGISTRY.select(tags={"engine-equivalence"})})


def _snapshot(graph) -> TopologySnapshot:
    return TopologySnapshot(CongestNetwork(graph, id_seed=0))


def _reference_rows(graph, k, nodes=None, restrict_to=None):
    """``{v: N^k(v) ∩ X for v in nodes}`` (``X`` = ``restrict_to``, else
    ``nodes``), one BFS per source."""
    nodes = list(graph.nodes()) if nodes is None else list(nodes)
    columns = nodes if restrict_to is None else restrict_to
    return {node: distance_neighborhood(graph, node, k, restrict_to=columns)
            for node in nodes}


def _expected_adjacency(graph, k):
    power = power_graph(graph, k)
    return {node: set(power.neighbors(node)) for node in graph.nodes()}


def _label_rows(structure, indptr, indices, restrict_to=None):
    """CSR rows as ``{label: N^k(v) ∩ X}`` in node-index order (``X`` =
    every node when ``restrict_to`` is None)."""
    labels = structure.labels
    columns = set(labels if restrict_to is None else restrict_to)
    return {label: {labels[j] for j in indices[indptr[i]:indptr[i + 1]].tolist()}
            & columns for i, label in enumerate(labels)}


def _view_rows(view, restrict_to=None):
    """The rows :meth:`PowerView.csr` stores, as label sets."""
    return _label_rows(view.snapshot, *view.csr(), restrict_to)


def _graph_rows(graph, k, nodes=None, restrict_to=None):
    """``{v: N^k(v) ∩ X for v in nodes}`` read off :func:`graph_csr` through
    :class:`PowerRows` (``X`` = ``restrict_to``, else ``nodes``)."""
    nodes = list(graph.nodes()) if nodes is None else list(nodes)
    rows = PowerRows(graph, k, nodes if restrict_to is None else restrict_to)
    return {node: rows[node] for node in nodes}


class TestPowerViewAdjacency:
    @pytest.mark.parametrize("cell_name", SAMPLE_CELLS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_materialized_power_graph(self, cell_name, k):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=3)
        view = _snapshot(graph).power_view(k)
        expected = _expected_adjacency(graph, k)
        actual = _view_rows(view)
        assert actual == expected, f"cell={cell_name} k={k}"
        indptr, indices = view.csr()
        for i in range(view.n):  # each row ascending in node index
            row = indices[indptr[i]:indptr[i + 1]]
            assert np.all(row[1:] > row[:-1])

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_rows_match_distance_neighborhood(self, k):
        graph = DEFAULT_REGISTRY.build_cell("dense-core-6x3x5", seed=0)
        rows = _view_rows(_snapshot(graph).power_view(k))
        for node in graph.nodes():
            assert rows[node] == distance_neighborhood(graph, node, k), \
                f"node={node} k={k}"

    def test_restricted_adjacency_measures_distance_in_full_graph(self):
        # G^k[X]: candidates restricted, but paths may leave X (Cor. 8.5).
        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=3)
        nodes = sorted(graph.nodes(), key=str)[:10]
        actual = _graph_rows(graph, 2, nodes)
        expected = {node: distance_neighborhood(graph, node, 2) & set(nodes)
                    for node in nodes}
        assert actual == expected

    @pytest.mark.parametrize("tile_bytes", [1, 64, 4096, DEFAULT_TILE_BYTES])
    def test_tiling_granularity_is_invisible(self, tile_bytes):
        graph = DEFAULT_REGISTRY.build_cell("crown-m5", seed=0)
        snapshot = _snapshot(graph)
        view = PowerView(snapshot, 2, tile_bytes=tile_bytes)
        assert _view_rows(view) == _expected_adjacency(graph, 2)

    def test_view_is_cached_per_k(self):
        snapshot = _snapshot(DEFAULT_REGISTRY.build_cell("er-n20", seed=1))
        assert snapshot.power_view(2) is snapshot.power_view(2)
        assert snapshot.power_view(2) is not snapshot.power_view(3)

    def test_degrees_match_power_graph(self):
        graph = DEFAULT_REGISTRY.build_cell("disconnected-n18", seed=2)
        view = _snapshot(graph).power_view(2)
        power = power_graph(graph, 2)
        degrees = np.diff(view.csr()[0])
        for index, label in enumerate(view.snapshot.labels):
            assert degrees[index] == power.degree(label)
        assert max_power_degree(graph, 2) == max(
            (power.degree(node) for node in power.nodes()), default=0)

    def test_view_memory_stays_linear(self):
        graph = DEFAULT_REGISTRY.build_cell("dense-core-6x3x5", seed=0)
        view = _snapshot(graph).power_view(3)
        view.restricted_degrees()
        # O(n) persistent state: starts + empty mask + degree bounds.
        assert view.nbytes <= 64 * graph.number_of_nodes() + 64
        assert view.estimated_power_csr_bytes() > 0


class TestReachKernel:
    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            ReachKernel(np.array([0]), np.array([], dtype=np.int64), -1)

    def test_empty_graph(self):
        kernel = ReachKernel(np.zeros(7, dtype=np.int64),
                             np.array([], dtype=np.int64), 3)
        reach = kernel.reach_tile(np.arange(6))
        assert reach.shape == (6, 6)
        assert not reach.any()

    def test_isolated_nodes_have_empty_rows(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(5))
        graph.add_edge(0, 1)
        snapshot = _snapshot(graph)
        view = snapshot.power_view(2)
        assert _view_rows(view) == _expected_adjacency(graph, 2)

    def test_tile_size_respects_budget(self):
        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=3)
        arrays = _snapshot(graph).numpy_arrays()
        kernel = ReachKernel(arrays.indptr, arrays.neighbor_indices, 2,
                             tile_bytes=1)
        assert kernel.tile_size == 1
        chunks = [len(chunk) for chunk, _ in kernel.tiles()]
        assert all(size == 1 for size in chunks)
        assert sum(chunks) == graph.number_of_nodes()


class TestGraphCsrRows:
    """The rows :func:`graph_csr` hands out for a graph, read as label sets
    through :class:`PowerRows`, equal the per-source BFS reference --
    values *and* key order (the RNG coupling surface)."""

    @pytest.mark.parametrize("cell_name", SAMPLE_CELLS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_match_per_source_bfs(self, cell_name, k):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=7)
        reference = _reference_rows(graph, k)
        rows = PowerRows(graph, k, graph)
        assert dict(rows) == reference
        assert list(rows) == list(reference)
        assert rows.counts().tolist() == [len(row) for row in reference.values()]

    def test_restricted_nodes_match_per_source_bfs(self):
        graph = DEFAULT_REGISTRY.build_cell("dense-core-6x3x5", seed=0)
        nodes = [node for index, node in enumerate(graph.nodes())
                 if index % 2 == 0]
        assert _graph_rows(graph, 2, nodes) == _reference_rows(graph, 2, nodes)

    def test_matches_power_graph(self):
        graph = DEFAULT_REGISTRY.build_cell("crown-m5", seed=0)
        assert _label_rows(*graph_csr(graph, 2)) == _expected_adjacency(graph, 2)

    @pytest.mark.parametrize("cell_name", SAMPLE_CELLS)
    @pytest.mark.parametrize("restricted", [False, True])
    def test_cached_csr_answers_like_a_cold_call(self, cell_name, restricted):
        # The first call builds the graph's G^k CSR; the second only reads
        # it.  Both must agree with the per-source BFS, and each row must
        # be ascending in node index (the RNG coupling surface).
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=5)
        nodes = None
        if restricted:
            nodes = [node for index, node in enumerate(graph.nodes())
                     if index % 3 != 1]
        _, cold_indptr, cold_indices = graph_csr(graph, 2)
        cold = _graph_rows(graph, 2, nodes)
        _, warm_indptr, warm_indices = graph_csr(graph, 2)
        warm = _graph_rows(graph, 2, nodes)
        assert warm_indices is cold_indices
        reference = _reference_rows(graph, 2, nodes)
        assert cold == warm == reference
        for i in range(graph.number_of_nodes()):
            row = cold_indices[cold_indptr[i]:cold_indptr[i + 1]]
            assert np.all(row[1:] > row[:-1])

    def test_cached_csr_sees_an_added_edge(self):
        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=3)
        before = _graph_rows(graph, 2)
        far = next(node for node in graph.nodes()
                   if node != 0 and node not in before[0])
        graph.add_edge(0, far)
        after = _graph_rows(graph, 2)
        assert far in after[0]
        assert after == _reference_rows(graph, 2)

    def test_concurrent_cold_calls_agree(self):
        # Inline serving runs solves on one shared graph from several
        # threads; racing first calls may each build the caches, but every
        # caller must get the right rows.
        import sys
        import threading

        graph = DEFAULT_REGISTRY.build_cell("dense-core-6x3x5", seed=1)
        expected = _reference_rows(graph, 2)
        results = []

        def call():
            results.append(_graph_rows(graph, 2))

        threads = [threading.Thread(target=call) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads)
        assert all(result == expected for result in results)

    def test_invalidate_fingerprint_drops_the_cached_csr(self):
        # An edge swap keeps n and m, so only the invalidation call can
        # tell the per-graph caches that the topology changed.
        from repro.api import invalidate_fingerprint

        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=3)
        graph_csr(graph, 2)
        (a, b), (c, d) = next(
            ((a, b), (c, d)) for a, b in graph.edges() for c, d in graph.edges()
            if len({a, b, c, d}) == 4 and not graph.has_edge(a, c)
            and not graph.has_edge(b, d))
        graph.remove_edges_from([(a, b), (c, d)])
        graph.add_edges_from([(a, c), (b, d)])
        invalidate_fingerprint(graph)
        assert _graph_rows(graph, 2) == _reference_rows(graph, 2)


class TestInt32CsrDowncast:
    def test_small_graph_uses_int32_indices(self):
        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=3)
        arrays = _snapshot(graph).numpy_arrays()
        assert arrays.index_dtype == np.int32
        assert arrays.indptr.dtype == np.int32
        assert arrays.neighbor_indices.dtype == np.int32
        assert arrays.rows.dtype == np.int32
        # Semantics are dtype-independent: CSR still round-trips the graph.
        snapshot = _snapshot(graph)
        for index, label in enumerate(snapshot.labels):
            start, stop = arrays.indptr[index], arrays.indptr[index + 1]
            neighbor_set = {snapshot.labels[j]
                            for j in arrays.neighbor_indices[start:stop]}
            assert neighbor_set == set(graph.neighbors(label))

    def test_downcast_preserves_power_view_results(self):
        graph = DEFAULT_REGISTRY.build_cell("dense-core-6x3x5", seed=0)
        view = _snapshot(graph).power_view(2)
        assert _view_rows(view) == _expected_adjacency(graph, 2)

    def test_totals_and_ids_stay_int64(self):
        arrays = _snapshot(
            DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=3)).numpy_arrays()
        assert arrays.congest_ids.dtype == np.int64
        assert arrays.degrees.dtype == np.int64


def _odd_graphs():
    """Degenerate inputs both CSR builds must agree on."""
    import networkx as nx

    disconnected = nx.Graph()
    disconnected.add_nodes_from(range(9))
    disconnected.add_edges_from([(0, 1), (1, 2), (4, 5)])  # 3, 6, 7, 8 isolated
    return {"path_graph(1)": nx.path_graph(1),
            "empty_graph(5)": nx.empty_graph(5),
            "null_graph": nx.Graph(),
            "disconnected-with-isolated": disconnected}


class TestCsrBuilds:
    """The sparse-frontier and dense-tile builds of ``PowerView.csr`` are
    interchangeable: same ``indptr``, ``indices`` and dtypes."""

    @staticmethod
    def _build(graph, k, monkeypatch, sparse):
        monkeypatch.setattr(PowerView, "_sparse_csr_preferred",
                            lambda self: sparse)
        return PowerView(_snapshot(graph), k).csr()

    def _assert_builds_agree(self, graph, k, monkeypatch):
        sparse = self._build(graph, k, monkeypatch, True)
        dense = self._build(graph, k, monkeypatch, False)
        for left, right in zip(sparse, dense):
            assert left.dtype == right.dtype
            assert np.array_equal(left, right)
        assert sparse[0].dtype == np.int64
        assert len(sparse[0]) == graph.number_of_nodes() + 1

    @pytest.mark.parametrize("cell_name", SAMPLE_CELLS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_builds_agree_on_sample_cells(self, cell_name, k, monkeypatch):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=3)
        self._assert_builds_agree(graph, k, monkeypatch)

    @pytest.mark.parametrize("name", sorted(_odd_graphs()))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_builds_agree_on_degenerate_graphs(self, name, k, monkeypatch):
        self._assert_builds_agree(_odd_graphs()[name], k, monkeypatch)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_each_build_matches_power_graph(self, sparse, monkeypatch):
        graph = DEFAULT_REGISTRY.build_cell("dense-core-6x3x5", seed=0)
        monkeypatch.setattr(PowerView, "_sparse_csr_preferred",
                            lambda self: sparse)
        view = PowerView(_snapshot(graph), 3)
        assert _view_rows(view) == _expected_adjacency(graph, 3)

    def test_row_bounds_on_regular_graphs(self):
        from repro.graphs import random_regular_graph

        sparse_view = _snapshot(random_regular_graph(400, 3, seed=1)).power_view(2)
        assert sparse_view.row_bounds().tolist() == [3 + 3 * 2] * 400
        assert sparse_view._sparse_csr_preferred()
        dense_view = _snapshot(
            DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=3)).power_view(3)
        assert dense_view.row_bounds().tolist() == [3 + 6 + 12] * 24
        assert not dense_view._sparse_csr_preferred()

    @pytest.mark.parametrize("cell_name", SAMPLE_CELLS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_row_bounds_bound_every_degree(self, cell_name, k):
        view = _snapshot(DEFAULT_REGISTRY.build_cell(cell_name, seed=3)).power_view(k)
        assert np.all(view.row_bounds() >= np.diff(view.csr()[0]))
        assert np.all(view.row_bounds() <= max(0, view.n - 1))

    def test_one_hub_keeps_the_sparse_build(self):
        # A 3-regular graph plus a hub wired to 40 of its 600 nodes: the
        # hub pushes its own bound (and its neighbours') to ~n, but the
        # mean G^2 degree stays small, so the rows are expanded sparsely.
        from repro.graphs import random_regular_graph

        graph = random_regular_graph(600, 3, seed=1)
        graph.add_edges_from(("hub", node) for node in range(0, 600, 15))
        view = _snapshot(graph).power_view(2)
        bounds = view.row_bounds()
        assert bounds.max() >= 40
        assert view._sparse_csr_preferred()
        indptr, _ = view.csr()
        assert np.all(bounds >= np.diff(indptr))


class TestRestrictedQueries:
    def test_column_restriction_keeps_every_row(self):
        graph = DEFAULT_REGISTRY.build_cell("dense-core-6x3x5", seed=0)
        columns = [node for index, node in enumerate(graph.nodes())
                   if index % 3 == 0]
        view = _snapshot(graph).power_view(2)
        actual = _view_rows(view, columns)
        assert list(actual) == list(graph.nodes())
        assert actual == {node: distance_neighborhood(graph, node, 2,
                                                      restrict_to=columns)
                          for node in graph.nodes()}
        degrees = view.restricted_degrees(columns)
        assert degrees.tolist() == [len(actual[label])
                                    for label in view.snapshot.labels]

    def test_one_shot_iterable_restricts_rows_and_columns(self):
        graph = DEFAULT_REGISTRY.build_cell("crown-m5", seed=0)
        nodes = list(graph.nodes())[:7]
        view = _snapshot(graph).power_view(2)
        assert np.array_equal(label_mask(view.snapshot, iter(nodes)),
                              label_mask(view.snapshot, nodes))
        assert dict(PowerRows(graph, 2, iter(nodes))) == dict(PowerRows(graph, 2, nodes))
        assert view.restricted_degrees(iter(nodes)).tolist() == \
            view.restricted_degrees(nodes).tolist()

    def test_power_rows_restrict_to_matches_per_source_bfs(self):
        graph = DEFAULT_REGISTRY.build_cell("crown-m5", seed=0)
        rows = list(graph.nodes())[:6]
        columns = list(graph.nodes())[3:]
        actual = _graph_rows(graph, 2, rows, restrict_to=columns)
        assert actual == _reference_rows(graph, 2, rows, restrict_to=columns)
        assert list(actual) == rows

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_max_power_degree(self, k):
        graph = DEFAULT_REGISTRY.build_cell("disconnected-n18", seed=2)
        subset = set(list(graph.nodes())[::2])
        assert max_power_degree(graph, k) == max(
            len(distance_neighborhood(graph, node, k)) for node in graph)
        assert max_power_degree(graph, k, subset) == max(
            len(distance_neighborhood(graph, node, k, restrict_to=subset))
            for node in graph)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_power_degree_ignores_labels_outside_the_graph(self, k, cached):
        graph = DEFAULT_REGISTRY.build_cell("disconnected-n18", seed=2)
        if cached:
            graph_csr(graph, k)
        subset = set(list(graph.nodes())[::2])
        absent = subset | {"absent", -1, (0, 0), 10 ** 9}
        assert max_power_degree(graph, k, absent) == max_power_degree(graph, k, subset)
        assert max_power_degree(graph, k, {"absent"}) == 0


class TestStreamedDegrees:
    """Before ``csr()`` has run, ``restricted_degrees`` streams the rows and
    stores no ``G^k``; afterwards it counts on the CSR.  Same numbers."""

    @pytest.mark.parametrize("sparse", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_streamed_equals_cached(self, sparse, k, monkeypatch):
        monkeypatch.setattr(PowerView, "_sparse_csr_preferred",
                            lambda self: sparse)
        graph = DEFAULT_REGISTRY.build_cell("disconnected-n18", seed=2)
        columns = list(graph.nodes())[::3]
        view = PowerView(_snapshot(graph), k, tile_bytes=256)
        streamed = (view.restricted_degrees(), view.restricted_degrees(columns))
        assert view._csr is None
        view.csr()
        cached = (view.restricted_degrees(), view.restricted_degrees(columns))
        for left, right in zip(streamed, cached):
            assert left.tolist() == right.tolist()

    def test_invariant_check_stores_no_extra_power(self):
        from repro.congest.topology import graph_power_view
        from repro.core.invariants import verify_invariants
        from repro.core.power_sparsify import power_graph_sparsification

        graph = DEFAULT_REGISTRY.build_cell("regular-n128-d6", seed=1)
        result = power_graph_sparsification(graph, 2)
        assert all(report.ok for report in
                   verify_invariants(graph, result.sequence))
        # I1.2 at s = k reads N^{k+1}, which no solver needs: counted by
        # streaming, never cached on the graph.
        assert graph_power_view(graph, 3)._csr is None


class TestRowPassesPerCertifiedSolve:
    """A certified sparsification solve computes each ``G^k`` it reads
    once: the solver's ``Delta_A`` and the stages read one cached CSR,
    the certificate counts on it, ``G^1`` is ``G``'s own CSR, and only the
    ``G^{k+1}`` of invariant I1.2 is streamed."""

    @pytest.mark.parametrize("algorithm,config,passes", [
        ("det-sparsify", {"power": 3}, [3]),
        ("randomized-sparsify", {"power": 3}, [3]),
        ("sparsify", {"k": 3}, [2, 3, 4]),
    ])
    def test_one_pass_per_power(self, algorithm, config, passes, monkeypatch):
        from repro.api import solve

        powers = []
        row_blocks = PowerView._row_blocks

        def counted(self):
            powers.append(self.k)
            return row_blocks(self)

        monkeypatch.setattr(PowerView, "_row_blocks", counted)
        graph = DEFAULT_REGISTRY.build_cell("regular-n384-d8", seed=1)
        report = solve(graph, algorithm, seed=1, **config)
        assert report.verified, report.certificate.summary()
        assert powers == passes


class TestCsrByteEstimate:
    @pytest.mark.parametrize("cell_name", ["regular-n24-d3", "regular-n64-d4",
                                           "regular-n128-d6", "regular-n384-d8"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_estimate_matches_the_built_csr(self, cell_name, k):
        view = _snapshot(DEFAULT_REGISTRY.build_cell(cell_name, seed=0)).power_view(k)
        estimate = view.estimated_power_csr_bytes()
        actual = sum(array.nbytes for array in view.csr())
        assert abs(estimate - actual) <= 0.25 * actual, (estimate, actual)


class TestTrailingIsolatedNodes:
    @pytest.mark.parametrize("k", [3, 4])
    def test_dense_tiles_keep_the_last_non_empty_row_whole(self, k):
        # Isolated nodes last in graph order give reduceat empty trailing
        # segments; the row before them must still see its last neighbor.
        import networkx as nx

        graph = nx.gnp_random_graph(90, 0.06, seed=4)
        graph.add_nodes_from([200, 201])
        view = _snapshot(graph).power_view(k)
        assert not view._sparse_csr_preferred()
        assert _view_rows(view) == _expected_adjacency(graph, k)
