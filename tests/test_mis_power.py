"""Tests for Theorem 1.2 (MIS of G^k), Corollary 1.3 (ruling sets) and KP12."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import caterpillar_graph, erdos_renyi_graph, random_regular_graph
from repro.mis.kp12 import kp12_sparsify
from repro.mis.power_mis import component_size_bound_power, power_graph_mis
from repro.mis.power_ruling import kp12_schedule, power_graph_ruling_set
from repro.ruling import is_alpha_independent, is_mis_of_power_graph, is_ruling_set
from repro.ruling.verify import domination_radius


class TestKP12:
    def test_dominating_and_degree_reduced(self):
        graph = random_regular_graph(200, 12, seed=1)
        adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes()}
        result = kp12_sparsify(graph, 1, f=4, rng=random.Random(1))
        # Domination: every node is in Q or has a neighbor in Q.
        for node, neighbors in adjacency.items():
            assert node in result.q or (neighbors & result.q)
        # Degree reduction: degree within Q is O(f log n) (generous constant).
        import math
        bound = 24 * 4 * math.log(200)
        for node in result.q:
            assert len(adjacency[node] & result.q) <= bound

    def test_rounds_charged_per_stage(self):
        graph = random_regular_graph(150, 10, seed=2)
        result = kp12_sparsify(graph, 3, f=2, rng=random.Random(2))
        assert result.rounds == 3 * len(result.ledger.entries)

    def test_power_variant(self):
        graph = random_regular_graph(80, 4, seed=3)
        result = kp12_sparsify(graph, 2, f=3, rng=random.Random(3))
        # Q k-dominates V.
        assert domination_radius(graph, result.q) <= 2

    def test_power_invalid_k(self):
        with pytest.raises(ValueError):
            kp12_sparsify(nx.path_graph(4), 0, f=2)

    def test_empty_adjacency(self):
        result = kp12_sparsify(nx.Graph(), 1, f=2)
        assert result.q == set()


class TestPowerMIS:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_theorem_1_2_output_is_mis(self, k):
        graph = random_regular_graph(70, 4, seed=10 + k)
        result = power_graph_mis(graph, k, rng=random.Random(k))
        assert is_mis_of_power_graph(graph, result.mis, k)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            power_graph_mis(nx.path_graph(4), 0)

    def test_candidate_restriction(self):
        graph = random_regular_graph(60, 4, seed=14)
        candidates = set(list(graph.nodes())[:30])
        result = power_graph_mis(graph, 2, candidates=candidates, rng=random.Random(14))
        assert result.mis <= candidates
        assert is_mis_of_power_graph(graph, result.mis, 2, targets=candidates)

    def test_phase_breakdown(self):
        graph = random_regular_graph(80, 5, seed=15)
        result = power_graph_mis(graph, 2, rng=random.Random(15), pre_steps=2)
        assert "pre-shattering" in result.phase_rounds
        if result.undecided_after_pre:
            assert "post-shattering" in result.phase_rounds
            assert result.ruling_set_size >= 1
        assert result.rounds == sum(result.phase_rounds.values())

    def test_truncated_pre_shattering_still_correct(self):
        graph = erdos_renyi_graph(70, expected_degree=5, seed=16)
        result = power_graph_mis(graph, 2, rng=random.Random(16), pre_steps=1)
        assert is_mis_of_power_graph(graph, result.mis, 2)

    def test_component_size_bound_helper(self):
        assert component_size_bound_power(100, 4) == pytest.approx((4 ** 4) * 4.6051, rel=1e-3)
        assert component_size_bound_power(100, 8) > component_size_bound_power(100, 4)

    def test_caterpillar_workload(self):
        graph = caterpillar_graph(12, 5)
        result = power_graph_mis(graph, 2, rng=random.Random(17))
        assert is_mis_of_power_graph(graph, result.mis, 2)

    def test_rounds_scale_with_k(self):
        graph = random_regular_graph(60, 4, seed=18)
        r1 = power_graph_mis(graph, 1, rng=random.Random(18))
        r3 = power_graph_mis(graph, 3, rng=random.Random(18))
        assert r3.rounds >= r1.rounds


class TestPowerRulingSet:
    def test_kp12_schedule_shape(self):
        schedule = kp12_schedule(delta_k=256, beta=4)
        assert len(schedule) == 3
        assert schedule == sorted(schedule, reverse=True)
        assert schedule[-1] == pytest.approx(2.0)
        assert kp12_schedule(10, 1) == []

    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_corollary_1_3_guarantees(self, beta):
        graph = random_regular_graph(70, 4, seed=20 + beta)
        k = 2
        result = power_graph_ruling_set(graph, k, beta, rng=random.Random(beta))
        assert result.alpha == k + 1
        assert result.domination_bound == beta * k
        assert is_ruling_set(graph, result.ruling_set, result.alpha, result.domination_bound)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            power_graph_ruling_set(nx.path_graph(4), 0, 2)
        with pytest.raises(ValueError):
            power_graph_ruling_set(nx.path_graph(4), 1, 0)

    def test_chain_shrinks(self):
        graph = random_regular_graph(120, 8, seed=24)
        result = power_graph_ruling_set(graph, 1, 3, rng=random.Random(24))
        assert result.chain_sizes[0] == 120
        assert result.chain_sizes == sorted(result.chain_sizes, reverse=True)

    def test_larger_beta_not_slower(self):
        """Ruling sets with larger beta should not cost more rounds than an MIS."""
        graph = random_regular_graph(90, 6, seed=25)
        mis_rounds = power_graph_ruling_set(graph, 2, 1, rng=random.Random(25)).rounds
        ruling_rounds = power_graph_ruling_set(graph, 2, 3, rng=random.Random(25)).rounds
        assert ruling_rounds <= 2 * mis_rounds

    def test_phase_breakdown(self):
        graph = random_regular_graph(60, 4, seed=26)
        result = power_graph_ruling_set(graph, 2, 3, rng=random.Random(26))
        assert set(result.phase_rounds) == {"kp12-sparsification", "final-mis"}
