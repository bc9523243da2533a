"""Tests for network decompositions and distance-k ball graphs."""

from __future__ import annotations

import dataclasses
import random

import networkx as nx
import pytest

from repro.decomposition import form_distance_k_ball_graph, network_decomposition
from repro.graphs import erdos_renyi_graph, random_regular_graph, random_tree
from repro.graphs.power import bounded_bfs
from repro.ruling.greedy import greedy_ruling_set


class TestNetworkDecomposition:
    @pytest.mark.parametrize("separation", [2, 3, 5])
    def test_valid_decomposition(self, separation):
        graph = random_regular_graph(60, 4, seed=separation)
        decomposition = network_decomposition(graph, separation=separation,
                                              rng=random.Random(separation))
        decomposition.validate(graph)
        assert decomposition.num_colors >= 1

    def test_covers_requested_subset_only(self):
        graph = erdos_renyi_graph(50, expected_degree=5, seed=1)
        subset = set(list(graph.nodes())[:25])
        decomposition = network_decomposition(graph, separation=3, nodes=subset,
                                              rng=random.Random(1))
        decomposition.validate(graph, covered=subset)
        clustered = set()
        for cluster in decomposition.clusters:
            clustered |= cluster.nodes
        assert clustered == subset

    def test_weak_diameter_is_bounded(self):
        graph = random_regular_graph(80, 5, seed=2)
        decomposition = network_decomposition(graph, separation=2, rng=random.Random(2))
        import math
        n = graph.number_of_nodes()
        # MPX with beta = 0.5 gives radius O(log n) w.h.p.; allow slack 6x.
        assert decomposition.max_weak_diameter <= 12 * math.log(n) + 4

    def test_steiner_trees_reach_center(self):
        graph = random_tree(60, seed=3)
        decomposition = network_decomposition(graph, separation=2, rng=random.Random(3))
        for cluster in decomposition.clusters:
            steiner = cluster.steiner_nodes()
            assert cluster.center in steiner
            assert cluster.nodes <= steiner

    def test_cluster_lookup(self):
        graph = random_regular_graph(40, 4, seed=4)
        decomposition = network_decomposition(graph, separation=2, rng=random.Random(4))
        for node in graph.nodes():
            cluster = decomposition.cluster_of(node)
            assert cluster is not None
            assert node in cluster.nodes
        assert decomposition.cluster_of("not-a-node") is None

    def test_congestion_reported(self):
        graph = random_regular_graph(50, 4, seed=5)
        decomposition = network_decomposition(graph, separation=3, rng=random.Random(5))
        assert decomposition.steiner_congestion() >= 1

    def test_rounds_charged(self):
        from repro.congest.cost import RoundLedger
        graph = random_regular_graph(40, 4, seed=6)
        ledger = RoundLedger()
        network_decomposition(graph, separation=3, rng=random.Random(6), ledger=ledger)
        assert "network-decomposition" in ledger.rounds_by_label()

    def test_path_graph_many_clusters(self):
        graph = nx.path_graph(60)
        decomposition = network_decomposition(graph, separation=2, rng=random.Random(7))
        decomposition.validate(graph)
        assert len(decomposition.clusters) >= 2


class TestBallGraph:
    def build(self, k=2, n=60, degree=4, seed=1):
        graph = random_regular_graph(n, degree, seed=seed)
        undecided = set(list(graph.nodes())[: n // 2])
        rulers = greedy_ruling_set(graph, alpha=2 * k + 1, targets=undecided)
        balls = {ruler: {ruler} for ruler in rulers}
        for node in undecided:
            if node in rulers:
                continue
            distances = bounded_bfs(graph, [node], graph.number_of_nodes())
            closest = min(rulers, key=lambda r: (distances.get(r, 10 ** 9), str(r)))
            balls[closest].add(node)
        return graph, undecided, balls

    def test_lemma_8_3_guarantees(self):
        graph, undecided, balls = self.build()
        ball_graph = form_distance_k_ball_graph(graph, balls, k=2, undecided=undecided)
        ball_graph.validate(graph)

    def test_borders_avoid_undecided_nodes(self):
        graph, undecided, balls = self.build(seed=2)
        ball_graph = form_distance_k_ball_graph(graph, balls, k=2, undecided=undecided)
        for center in ball_graph.centers:
            border = ball_graph.extended_balls[center] - ball_graph.balls[center]
            assert not (border & undecided)

    def test_extended_balls_disjoint(self):
        graph, undecided, balls = self.build(seed=3)
        ball_graph = form_distance_k_ball_graph(graph, balls, k=3, undecided=undecided)
        seen = set()
        for members in ball_graph.extended_balls.values():
            assert not (seen & members)
            seen |= members

    def test_center_missing_from_ball_raises(self):
        graph = nx.path_graph(5)
        with pytest.raises(ValueError):
            form_distance_k_ball_graph(graph, {0: {1}}, k=1)

    def test_ball_of_node_lookup(self):
        graph, undecided, balls = self.build(seed=4)
        ball_graph = form_distance_k_ball_graph(graph, balls, k=2, undecided=undecided)
        for center, members in ball_graph.extended_balls.items():
            for node in members:
                assert ball_graph.center_of(node) == center

    def test_weak_diameter_reported(self):
        graph, undecided, balls = self.build(seed=5)
        ball_graph = form_distance_k_ball_graph(graph, balls, k=2, undecided=undecided)
        assert ball_graph.weak_diameter(graph) >= 0

    def test_adjacent_balls_connected_in_ball_graph(self):
        """Direct check of the distance-k property on a path graph."""
        graph = nx.path_graph(12)
        balls = {1: {0, 1, 2}, 9: {8, 9, 10}}
        undecided = {0, 1, 2, 8, 9, 10}
        ball_graph = form_distance_k_ball_graph(graph, balls, k=6, undecided=undecided)
        # dist(2, 8) = 6 <= k so the centers must be within distance k in the
        # ball graph (here: adjacent, via the borders that meet in the middle).
        assert nx.has_path(ball_graph.graph, 1, 9)
        assert nx.shortest_path_length(ball_graph.graph, 1, 9) <= 6
        ball_graph.validate(graph)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_validate_flags_the_pair_a_full_bfs_flags(self, k):
        """``validate`` searches the ball graph only as deep as the close
        balls need; with edges dropped from the ball graph it must still
        report the first failing pair that a depth-k BFS from every
        center reports, and pass exactly when that one passes."""

        def first_failing_pair(ball_graph, graph):
            centers = sorted(ball_graph.centers, key=str)
            position = {center: i for i, center in enumerate(centers)}
            owner = {node: center for center in centers
                     for node in ball_graph.balls[center]}
            for v in centers:
                near = nx.single_source_shortest_path_length(ball_graph.graph, v,
                                                             cutoff=k)
                close = {owner[node] for node in bounded_bfs(graph, ball_graph.balls[v], k)
                         if node in owner}
                for w in sorted((w for w in close if position[w] > position[v]), key=str):
                    if w not in near:
                        return v, w
            return None

        outcomes = set()
        for seed in range(1, 4):
            graph, undecided, balls = self.build(k=k, n=150, degree=3, seed=seed)
            ball_graph = form_distance_k_ball_graph(graph, balls, k=k,
                                                    undecided=undecided)
            edges = sorted(ball_graph.graph.edges(), key=str)
            rng = random.Random(seed)
            for dropped in sorted({min(count, len(edges))
                                   for count in (0, 1, 3, len(edges) // 2)}):
                pruned = ball_graph.graph.copy()
                pruned.remove_edges_from(rng.sample(edges, dropped))
                candidate = dataclasses.replace(ball_graph, graph=pruned)
                expected = first_failing_pair(candidate, graph)
                outcomes.add(expected is None)
                if expected is None:
                    candidate.validate(graph)
                    continue
                with pytest.raises(AssertionError) as error:
                    candidate.validate(graph)
                assert str(error.value).startswith(
                    f"balls of {expected[0]} and {expected[1]} are within distance {k}")
        assert outcomes == {True, False}
