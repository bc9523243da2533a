"""Tests for Luby's algorithm and BeepingMIS (Section 8.1, [Gha17])."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.congest import CongestNetwork, Simulator
from repro.graphs import erdos_renyi_graph, random_regular_graph, random_tree
from repro.mis.beeping import (
    BeepingMISNode,
    BeepingMISProcess,
    beeping_mis,
    beeping_mis_power,
    default_step_budget,
)
from repro.mis.luby import LubyMISNode, luby_mis, luby_mis_power
from repro.ruling import is_alpha_independent, is_mis_of_power_graph


class TestLubyGraphLevel:
    def test_mis_of_g(self):
        graph = random_regular_graph(80, 6, seed=1)
        result = luby_mis(graph, rng=random.Random(1))
        assert is_mis_of_power_graph(graph, result.mis, 1)
        assert result.rounds == 2 * result.steps

    def test_logarithmic_steps(self):
        graph = random_regular_graph(200, 8, seed=2)
        result = luby_mis(graph, rng=random.Random(2))
        assert result.steps <= 6 * math.log2(200)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mis_of_power_graph(self, k):
        graph = random_regular_graph(60, 4, seed=3)
        result = luby_mis_power(graph, k, rng=random.Random(3))
        assert is_mis_of_power_graph(graph, result.mis, k)
        assert result.rounds == 2 * k * result.steps

    def test_candidates_restriction(self):
        graph = random_regular_graph(60, 4, seed=4)
        candidates = set(list(graph.nodes())[:30])
        result = luby_mis_power(graph, 2, candidates=candidates, rng=random.Random(4))
        assert result.mis <= candidates
        assert is_mis_of_power_graph(graph, result.mis, 2, targets=candidates)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            luby_mis_power(nx.path_graph(4), 0)

    def test_empty_graph(self):
        graph = nx.Graph()
        result = luby_mis(graph)
        assert result.mis == set()
        assert result.steps == 0


class TestLubySimulator:
    def test_simulated_luby_is_mis(self):
        graph = random_regular_graph(50, 4, seed=5)
        network = CongestNetwork(graph, id_seed=5)
        result = Simulator(network, LubyMISNode, seed=5).run(max_rounds=400)
        assert result.halted
        mis = {node for node, joined in result.outputs.items() if joined}
        assert is_mis_of_power_graph(graph, mis, 1)

    def test_simulated_rounds_are_logarithmic(self):
        graph = random_regular_graph(120, 6, seed=6)
        network = CongestNetwork(graph, id_seed=6)
        result = Simulator(network, LubyMISNode, seed=6).run(max_rounds=600)
        assert result.halted
        assert result.rounds <= 12 * math.log2(120)

    def test_messages_respect_bandwidth(self):
        graph = random_regular_graph(40, 4, seed=7)
        network = CongestNetwork(graph, id_seed=7)
        # The simulator enforces bandwidth by default; a clean run means no
        # oversized messages were ever sent.
        result = Simulator(network, LubyMISNode, seed=7).run(max_rounds=400)
        assert result.halted


class TestBeepingProcess:
    def test_completes_to_mis_with_enough_steps(self):
        graph = random_regular_graph(70, 5, seed=8)
        process = BeepingMISProcess(graph, rng=random.Random(8))
        finished = process.run_until_complete(40 * int(math.log2(70) + 1))
        assert finished
        assert is_mis_of_power_graph(graph, process.mis, 1)

    def test_partial_run_leaves_consistent_state(self):
        graph = random_regular_graph(70, 5, seed=9)
        adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes()}
        process = BeepingMISProcess(graph, rng=random.Random(9))
        process.run(3)
        # The independent set found so far is independent, and no undecided
        # node is adjacent to it.
        assert is_alpha_independent(graph, process.mis, 2)
        for node in process.undecided:
            assert not (adjacency[node] & process.mis)

    def test_candidate_restriction(self):
        graph = random_regular_graph(60, 4, seed=10)
        candidates = set(list(graph.nodes())[:30])
        process = BeepingMISProcess(graph, candidates=candidates, rng=random.Random(10))
        process.run(200)
        assert process.mis <= candidates

    def test_probabilities_stay_in_range(self):
        graph = random_regular_graph(50, 6, seed=11)
        process = BeepingMISProcess(graph, rng=random.Random(11))
        for _ in range(20):
            process.step()
            for probability in process.probability.values():
                assert 0.0 < probability <= 0.5

    def test_default_step_budget(self):
        assert default_step_budget(2) >= 8
        assert default_step_budget(1024, scale=4) == 4 * 10


class TestBeepingWrappers:
    def test_beeping_mis_on_g(self):
        graph = erdos_renyi_graph(80, expected_degree=6, seed=12)
        result = beeping_mis(graph, rng=random.Random(12))
        if result.complete:
            assert is_mis_of_power_graph(graph, result.mis, 1)
        assert result.rounds == 2 * result.steps

    @pytest.mark.parametrize("k", [1, 2])
    def test_beeping_mis_power(self, k):
        graph = random_regular_graph(50, 4, seed=13)
        result = beeping_mis_power(graph, k, rng=random.Random(13))
        assert is_alpha_independent(graph, result.mis, k + 1)
        # Rounds: 2k * ceil(id_bits / bandwidth) per step.
        assert result.rounds >= 2 * k * result.steps / 64

    def test_beeping_power_invalid_k(self):
        with pytest.raises(ValueError):
            beeping_mis_power(nx.path_graph(3), 0)


class TestBeepingSimulator:
    def test_simulated_beeping_is_independent(self):
        graph = random_regular_graph(40, 4, seed=14)
        network = CongestNetwork(graph, id_seed=14)
        result = Simulator(network, lambda node: BeepingMISNode(max_steps=300),
                           seed=14).run(max_rounds=800)
        mis = {node for node, joined in result.outputs.items() if joined}
        assert is_alpha_independent(graph, mis, 2)
        if result.halted:
            # All nodes decided -> the set is also maximal.
            assert is_mis_of_power_graph(graph, mis, 1)

    def test_beeps_are_single_bits(self):
        graph = random_regular_graph(30, 4, seed=15)
        network = CongestNetwork(graph, bandwidth_bits=8, id_seed=15)
        # With an 8-bit bandwidth the run only succeeds because beeps are tiny.
        result = Simulator(network, lambda node: BeepingMISNode(max_steps=300),
                           seed=15).run(max_rounds=800)
        assert result.total_messages > 0
