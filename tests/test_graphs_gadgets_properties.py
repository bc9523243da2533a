"""Tests for the illustration gadgets and the graph property helpers."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import figure1_gadget, two_cluster_gadget
from tests.conftest import distance_neighborhood
from repro.graphs.properties import (
    ecc_lower_bound,
    graph_diameter,
    is_connected,
    max_degree,
    relabel_consecutive,
)


class TestFigure1Gadget:
    def test_structure(self):
        graph, (v, w), q_nodes = figure1_gadget(hat_delta=8, s=3)
        assert graph.has_edge(v, w)
        assert len(q_nodes) == 8
        assert is_connected(graph)
        # Every Q node is at distance (s-1)/2 = 1 from its anchor.
        for node in q_nodes:
            assert graph.degree(node) == 1

    def test_q_degree_matches_hat_delta(self):
        hat_delta = 10
        graph, (v, w), q_nodes = figure1_gadget(hat_delta=hat_delta, s=3)
        # The central nodes see all Q nodes within distance s = 3.
        assert len(distance_neighborhood(graph, v, 3, restrict_to=q_nodes)) == hat_delta
        assert len(distance_neighborhood(graph, w, 3, restrict_to=q_nodes)) == hat_delta

    def test_larger_s(self):
        graph, (v, w), q_nodes = figure1_gadget(hat_delta=6, s=5)
        for node in q_nodes:
            assert nx.shortest_path_length(graph, node, v) in (2, 3)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            figure1_gadget(4, s=2)
        with pytest.raises(ValueError):
            figure1_gadget(4, s=1)


class TestTwoClusterGadget:
    def test_structure(self):
        graph, left, right = two_cluster_gadget(cluster_size=4, bridge_length=5)
        assert is_connected(graph)
        assert len(left) == len(right) == 4
        # Left and right cliques are fully connected internally.
        for cluster in (left, right):
            for a in cluster:
                for b in cluster:
                    if a != b:
                        assert graph.has_edge(a, b)
        # The cliques are far apart.
        assert nx.shortest_path_length(graph, min(left), min(right)) >= 2


class TestProperties:
    def test_max_degree(self):
        assert max_degree(nx.star_graph(5)) == 5
        assert max_degree(nx.Graph()) == 0

    @pytest.mark.parametrize("loops", [[0], [0, 3], [5], [0, 1, 2, 3, 4, 5]])
    def test_self_loops_count_as_networkx_counts_them(self, loops):
        """Twice in a degree, once in ``m``: ``max_degree`` and the
        topology's ``edge_count`` agree with networkx on looped graphs."""
        from repro.congest.topology import _structure_of

        graph = nx.star_graph(5)
        graph.add_node("isolated")
        graph.add_edges_from((node, node) for node in loops)
        assert max_degree(graph) == max(degree for _, degree in graph.degree())
        assert _structure_of(graph).edge_count == graph.number_of_edges()

    def test_is_connected(self):
        assert is_connected(nx.path_graph(4))
        assert is_connected(nx.Graph())
        disconnected = nx.Graph([(0, 1), (2, 3)])
        assert not is_connected(disconnected)

    def test_graph_diameter(self):
        assert graph_diameter(nx.path_graph(5)) == 4
        assert graph_diameter(nx.complete_graph(4)) == 1
        disconnected = nx.Graph([(0, 1), (2, 3), (3, 4)])
        assert graph_diameter(disconnected) == 2
        assert graph_diameter(nx.Graph()) == 0

    def test_ecc_lower_bound(self):
        graph = nx.path_graph(9)
        bound = ecc_lower_bound(graph)
        assert graph_diameter(graph) / 2 <= bound <= graph_diameter(graph)
        assert ecc_lower_bound(nx.Graph()) == 0

    def test_relabel_consecutive(self):
        graph = nx.Graph([("b", "c"), ("a", "b")])
        relabelled, mapping = relabel_consecutive(graph)
        assert set(relabelled.nodes()) == {0, 1, 2}
        assert relabelled.has_edge(mapping["a"], mapping["b"])
