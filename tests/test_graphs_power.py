"""Tests for power graphs and distance-s neighborhoods (Section 2 notation)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    induced_power_subgraph,
    k_connected_components,
    power_graph,
)
from repro.graphs.power import (
    PowerRows,
    bounded_bfs,
    domination_distance,
    multi_source_bfs,
    nearest_ruler_balls,
)
from tests.conftest import distance_neighborhood


def small_graphs() -> st.SearchStrategy[nx.Graph]:
    """Random graphs for property-based tests (small so G^k is cheap)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=14))
        p = draw(st.floats(min_value=0.1, max_value=0.7))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        graph = nx.gnp_random_graph(n, p, seed=seed)
        return graph

    return build()


class TestBoundedBFS:
    def test_depth_zero(self):
        graph = nx.path_graph(5)
        assert bounded_bfs(graph, [2], 0) == {2: 0}

    def test_negative_depth(self):
        graph = nx.path_graph(3)
        assert bounded_bfs(graph, [0], -1) == {}

    def test_distances_match_networkx(self):
        graph = nx.erdos_renyi_graph(20, 0.2, seed=1)
        expected = nx.single_source_shortest_path_length(graph, 0, cutoff=3)
        assert bounded_bfs(graph, [0], 3) == dict(expected)

    def test_set_of_sources(self):
        graph = nx.path_graph(9)
        distances = bounded_bfs(graph, [6, 1], 2)
        assert distances == {6: 0, 1: 0, 5: 1, 7: 1, 0: 1, 2: 1, 4: 2, 8: 2, 3: 2}
        assert list(distances)[:2] == [6, 1]  # the sources first, in order

    def test_bare_label_is_refused(self):
        # A grid label is a tuple: read as sources it would name two nodes.
        graph = nx.grid_2d_graph(3, 3)
        with pytest.raises(TypeError):
            bounded_bfs(graph, (1, 1), 1)
        assert set(bounded_bfs(graph, [(1, 1)], 1)) == {
            (1, 1), (0, 1), (2, 1), (1, 0), (1, 2)}


class TestPowerRows:
    def test_excludes_source(self):
        graph = nx.cycle_graph(6)
        assert PowerRows(graph, 2, graph)[0] == {1, 2, 4, 5}

    def test_restriction(self):
        graph = nx.path_graph(6)
        assert PowerRows(graph, 3, {2, 5})[0] == {2}

    def test_row_sizes(self):
        graph = nx.cycle_graph(8)
        assert len(PowerRows(graph, 1, graph)[0]) == 2
        assert len(PowerRows(graph, 2, graph)[0]) == 4
        assert PowerRows(graph, 2, {1, 2})[0] == {1, 2}

    def test_self_loops_stay_out_of_rows(self):
        graph = nx.cycle_graph(5)
        graph.add_edge(0, 0)
        rows = PowerRows(graph, 1, graph)
        assert rows[0] == {1, 4}
        assert rows.counts().tolist() == [2] * 5

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(), st.integers(min_value=1, max_value=4))
    def test_rows_match_per_source_bfs(self, graph: nx.Graph, k: int):
        subset = set(list(graph.nodes())[::2])
        rows = PowerRows(graph, k, subset)
        assert list(rows) == list(graph.nodes())
        for node, row in rows.items():
            assert row == distance_neighborhood(graph, node, k, restrict_to=subset)
        assert rows.counts().tolist() == [len(row) for row in rows.values()]


def _nearest_ruler_reference(graph, nodes, rulers):
    """The per-node assignment the shared helper replaced: one BFS per node,
    the ruler with the smallest ``(distance, str)``, unreachable last."""
    balls = {ruler: {ruler} for ruler in rulers}
    for node in nodes:
        if node in balls:
            continue
        distances = nx.single_source_shortest_path_length(graph, node)
        balls[min(rulers, key=lambda r: (distances.get(r, float("inf")),
                                         str(r)))].add(node)
    return balls


class TestNearestMember:
    def test_ties_go_to_the_first_source(self):
        graph = nx.path_graph(7)
        distance, nearest = multi_source_bfs(graph, [6, 0])
        assert distance.tolist() == [0, 1, 2, 3, 2, 1, 0]
        assert nearest.tolist() == [0, 0, 0, 6, 6, 6, 6]
        _, nearest = multi_source_bfs(graph, [0, 6])
        assert nearest[3] == 0

    def test_nearest_ruler_tie_and_fallback(self):
        graph = nx.path_graph(7)
        graph.add_edge("x", "y")  # a piece without rulers
        balls = nearest_ruler_balls(graph, graph.nodes(), [6, 2])
        assert list(balls) == [6, 2]
        assert balls == {6: {5, 6}, 2: {0, 1, 2, 3, 4, "x", "y"}}

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(), st.integers(min_value=0, max_value=10_000))
    def test_matches_per_node_reference(self, graph: nx.Graph, seed: int):
        import random

        rng = random.Random(seed)
        nodes = list(graph.nodes())
        rulers = rng.sample(nodes, rng.randint(1, len(nodes)))
        members = {node for node in nodes if rng.random() < 0.7}
        balls = nearest_ruler_balls(graph, members, rulers)
        expected = _nearest_ruler_reference(graph, members, rulers)
        assert list(balls) == list(expected)
        for ruler in rulers:
            assert list(balls[ruler]) == list(expected[ruler])


class TestPowerGraph:
    def test_power_zero_and_one(self):
        graph = nx.cycle_graph(5)
        assert power_graph(graph, 0).number_of_edges() == 0
        assert set(power_graph(graph, 1).edges()) == set(graph.edges())

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            power_graph(nx.path_graph(3), -1)

    def test_cycle_square(self):
        graph = nx.cycle_graph(8)
        square = power_graph(graph, 2)
        assert square.has_edge(0, 2)
        assert not square.has_edge(0, 3)
        assert all(degree == 4 for _, degree in square.degree())

    def test_large_power_is_complete_for_connected_graph(self):
        graph = nx.path_graph(6)
        full = power_graph(graph, 5)
        assert full.number_of_edges() == 6 * 5 // 2

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(), st.integers(min_value=1, max_value=4))
    def test_matches_pairwise_distances(self, graph: nx.Graph, k: int):
        power = power_graph(graph, k)
        lengths = dict(nx.all_pairs_shortest_path_length(graph, cutoff=k))
        for u in graph.nodes():
            for v in graph.nodes():
                if u == v:
                    continue
                expected = v in lengths.get(u, {}) and lengths[u][v] <= k
                assert power.has_edge(u, v) == expected


class TestInducedPowerSubgraph:
    def test_paths_may_leave_subset(self):
        # 0 - 1 - 2 with subset {0, 2}: they are adjacent in G^2[{0, 2}] even
        # though the connecting path uses node 1 outside the subset.
        graph = nx.path_graph(3)
        induced = induced_power_subgraph(graph, 2, {0, 2})
        assert induced.has_edge(0, 2)
        # (G[{0,2}])^2 would have no edge -- the distinction from Section 2.
        assert nx.power(graph.subgraph({0, 2}), 2).number_of_edges() == 0

    def test_equals_power_graph_restricted(self):
        graph = nx.erdos_renyi_graph(15, 0.25, seed=3)
        subset = set(range(0, 15, 2))
        induced = induced_power_subgraph(graph, 2, subset)
        full = power_graph(graph, 2).subgraph(subset)
        assert set(induced.edges()) == set(full.edges())


class TestConnectivityHelpers:
    def test_k_connected_components_of_spread_set(self):
        graph = nx.path_graph(12)
        subset = {0, 2, 4, 9, 11}
        components = k_connected_components(graph, subset, 2)
        assert sorted(sorted(component) for component in components) == [[0, 2, 4], [9, 11]]

    def test_k_connected_components_empty(self):
        assert k_connected_components(nx.path_graph(3), set(), 2) == []

    def test_domination_distance(self):
        graph = nx.path_graph(7)
        assert domination_distance(graph, {0}) == 6
        assert domination_distance(graph, {3}) == 3
        assert domination_distance(graph, {0, 6}) == 3
        assert domination_distance(graph, set()) == graph.number_of_nodes() + 1

    @settings(max_examples=20, deadline=None)
    @given(small_graphs(), st.integers(min_value=1, max_value=3))
    def test_components_partition_the_subset(self, graph: nx.Graph, k: int):
        nodes = list(graph.nodes())
        subset = set(nodes[::2])
        components = k_connected_components(graph, subset, k)
        union = set().union(*components) if components else set()
        assert union == subset
        for i, first in enumerate(components):
            for second in components[i + 1:]:
                assert not (first & second)
