"""Tests for the power-graph sparsification (Algorithm 3, Lemma 3.1, Lemma 5.8)."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    check_power_sparsification,
    power_graph_sparsification,
    power_graph_sparsification_low_diameter,
    verify_invariants,
)
from repro.core.invariants import check_sparsification
from repro.graphs import erdos_renyi_graph, random_regular_graph, random_tree


class TestPowerSparsification:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lemma_3_1_guarantees(self, k):
        graph = random_regular_graph(70, 5, seed=k)
        result = power_graph_sparsification(graph, k)
        check = check_power_sparsification(graph, set(graph.nodes()), result.q, k)
        assert check.degree_ok, f"degree {check.max_q_degree} > {check.q_degree_bound}"
        assert check.domination_ok, f"domination {check.max_domination} > {check.domination_bound}"

    def test_invalid_k(self):
        graph = random_regular_graph(20, 3, seed=1)
        with pytest.raises(ValueError):
            power_graph_sparsification(graph, 0)

    def test_sequence_is_nested_and_invariants_hold(self):
        graph = random_regular_graph(80, 6, seed=2)
        result = power_graph_sparsification(graph, 2)
        assert len(result.sequence) == 3  # Q_0, Q_1, Q_2
        reports = verify_invariants(graph, result.sequence)
        for report in reports:
            assert report.nested
            assert report.i11_max_degree <= report.i11_bound
            assert report.i12_max_degree <= report.i12_bound
            assert report.i2_max_excess <= report.i2_bound

    def test_respects_initial_q0(self):
        graph = erdos_renyi_graph(70, expected_degree=8, seed=3)
        q0 = set(list(graph.nodes())[::2])
        result = power_graph_sparsification(graph, 2, q0=q0)
        assert result.q <= q0
        check = check_power_sparsification(graph, q0, result.q, 2)
        assert check.ok

    def test_deterministic(self):
        graph = random_regular_graph(60, 4, seed=4)
        assert (power_graph_sparsification(graph, 2).q
                == power_graph_sparsification(graph, 2).q)

    def test_iteration_records(self):
        graph = random_regular_graph(90, 6, seed=5)
        result = power_graph_sparsification(graph, 3)
        assert [record.s for record in result.iterations] == [1, 2, 3]
        for record in result.iterations:
            assert record.active_after <= record.active_before
            assert record.rounds > 0
        assert result.rounds == sum(record.rounds for record in result.iterations)

    def test_tree_workload(self):
        graph = random_tree(60, seed=6)
        result = power_graph_sparsification(graph, 2)
        check = check_power_sparsification(graph, set(graph.nodes()), result.q, 2)
        assert check.ok

    def test_randomized_method_also_ok(self):
        graph = random_regular_graph(70, 5, seed=7)
        result = power_graph_sparsification(graph, 2, method="randomized",
                                            rng=random.Random(11))
        check = check_power_sparsification(graph, set(graph.nodes()), result.q, 2)
        assert check.degree_ok
        assert check.domination_ok


class TestLowDiameterVariant:
    @pytest.mark.parametrize("k", [1, 2])
    def test_lemma_5_8_guarantees(self, k):
        graph = random_regular_graph(60, 4, seed=10 + k)
        result = power_graph_sparsification_low_diameter(graph, k, rng=random.Random(k))
        check = check_power_sparsification(graph, set(graph.nodes()), result.q, k)
        assert check.degree_ok, f"degree {check.max_q_degree} > {check.q_degree_bound}"
        # Lemma 5.8's domination matches Lemma 3.1 plus the 2k cross-cluster
        # deactivation slack.
        assert check.max_domination <= k * k + k + 2 * k

    def test_invalid_k(self):
        graph = random_regular_graph(20, 3, seed=1)
        with pytest.raises(ValueError):
            power_graph_sparsification_low_diameter(graph, 0)

    def test_network_decomposition_rounds_charged(self):
        graph = random_regular_graph(50, 4, seed=12)
        result = power_graph_sparsification_low_diameter(graph, 2, rng=random.Random(3))
        labels = result.ledger.rounds_by_label()
        assert "network-decomposition" in labels

    @pytest.mark.parametrize("share", [0.2, 0.8])
    def test_local_graph_is_the_induced_copy(self, share):
        """The cluster-local graph has ``subgraph(nodes).copy()``'s node
        order, adjacency order and edges (self-loops included) whether the
        subgraph view orders its nodes by the set (few nodes) or by the
        graph (many), and shares the attribute dicts with ``graph``."""
        from repro.core.power_sparsify import _induced_copy
        from repro.graphs.power import bounded_bfs

        rng = random.Random(7)
        for seed in range(3):
            graph = erdos_renyi_graph(90, 0.06, seed=seed)
            graph.add_edge(5, 5, weight=2)
            graph.nodes[5]["role"] = "hub"
            sources = rng.sample(sorted(graph.nodes()), int(share * 30))
            nodes = bounded_bfs(graph, sources, 1)
            local, reference = _induced_copy(graph, nodes), graph.subgraph(nodes).copy()
            assert list(local) == list(reference)
            assert all(list(local.adj[node]) == list(reference.adj[node])
                       for node in reference)
            assert list(local.edges(data=True)) == list(reference.edges(data=True))
            if 5 in local:
                assert local.nodes[5] is graph.nodes[5]
                assert local.edges[5, 5] is graph.edges[5, 5]


class TestSparsificationCheckHelpers:
    def test_check_reports_violations(self):
        graph = random_regular_graph(40, 4, seed=13)
        # A deliberately bad "sparsification": Q = V has huge degree.
        check = check_sparsification(graph, set(graph.nodes()), set(graph.nodes()))
        assert check.max_q_degree == 4
        assert check.domination_ok
        # Empty Q violates domination.
        empty = check_sparsification(graph, set(graph.nodes()), set())
        assert not empty.domination_ok

    def test_power_check_empty_q(self):
        graph = random_regular_graph(30, 3, seed=14)
        check = check_power_sparsification(graph, set(graph.nodes()), set(), 2)
        assert not check.ok
