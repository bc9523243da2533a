"""Cross-module integration tests: full pipelines on diverse workloads.

These tests exercise the complete algorithm stacks (sparsification ->
communication tools -> MIS of the virtual graph; shattering -> ball graph ->
network decomposition -> completion) on every graph family and verify every
output against the centralized checkers, mirroring how the benchmark harness
uses the library.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

import repro
from repro.core.invariants import verify_invariants
from repro.core.power_sparsify import power_graph_sparsification
from repro.mis.luby import luby_mis, luby_mis_power
from repro.mis.power_mis import power_graph_mis
from repro.mis.power_ruling import power_graph_ruling_set
from repro.mis.shattering import shattering_mis
from repro.ruling.aglp import id_based_ruling_set
from repro.ruling.det_ruling_set import deterministic_power_ruling_set
from repro.ruling.greedy import greedy_mis
from repro.ruling.verify import verify_ruling_set
from tests.conftest import graph_zoo


@pytest.mark.parametrize("name,graph", graph_zoo(seed=1), ids=lambda value: value if isinstance(value, str) else "")
class TestDeterministicPipeline:
    def test_theorem_1_1_on_all_families(self, name, graph):
        k = 2
        result = deterministic_power_ruling_set(graph, k)
        report = verify_ruling_set(graph, result.ruling_set, alpha=k + 1,
                                   beta=result.beta_bound)
        assert report.ok, f"{name}: {report}"

    def test_sparsification_invariants_on_all_families(self, name, graph):
        result = power_graph_sparsification(graph, 2)
        for report in verify_invariants(graph, result.sequence):
            assert report.ok, f"{name}: iteration {report.s} violated"


@pytest.mark.parametrize("name,graph", graph_zoo(seed=2), ids=lambda value: value if isinstance(value, str) else "")
class TestRandomizedPipeline:
    def test_theorem_1_2_on_all_families(self, name, graph):
        result = power_graph_mis(graph, 2, rng=random.Random(7))
        assert repro.is_mis_of_power_graph(graph, result.mis, 2), name

    def test_theorem_1_4_on_all_families(self, name, graph):
        result = shattering_mis(graph, rng=random.Random(8))
        assert repro.is_mis_of_power_graph(graph, result.mis, 1), name


class TestAlgorithmAgreement:
    """Different algorithms for the same problem agree on validity and quality."""

    def test_all_mis_algorithms_agree_on_power_graph(self):
        graph = repro.power_graph  # silence linters; real use below
        graph = nx.random_regular_graph(4, 60, seed=3)
        k = 2
        outputs = {
            "luby": luby_mis_power(graph, k, rng=random.Random(1)).mis,
            "theorem-1.2": power_graph_mis(graph, k, rng=random.Random(2)).mis,
            "greedy": greedy_mis(graph, k),
        }
        sizes = {}
        for name, mis in outputs.items():
            assert repro.is_mis_of_power_graph(graph, mis, k), name
            sizes[name] = len(mis)
        # All MIS of G^k have size within a factor Delta_k of each other; on
        # this workload they should be in the same ballpark.
        assert max(sizes.values()) <= 4 * min(sizes.values())

    def test_deterministic_vs_randomized_ruling_sets(self):
        graph = nx.random_regular_graph(4, 80, seed=4)
        k = 2
        deterministic = deterministic_power_ruling_set(graph, k)
        randomized = power_graph_ruling_set(graph, k, beta=2, rng=random.Random(5))
        for subset, beta in ((deterministic.ruling_set, deterministic.beta_bound),
                             (randomized.ruling_set, randomized.domination_bound)):
            assert repro.is_ruling_set(graph, subset, k + 1, beta)

    def test_round_complexity_ordering(self):
        """The paper's headline comparison: Theorem 1.1 beats the n^{1/c} baseline
        at scale, and Theorem 1.2 beats Luby-on-G^k as Delta grows."""
        graph = nx.random_regular_graph(6, 256, seed=6)
        k = 2
        new_det = deterministic_power_ruling_set(graph, k)
        baseline = id_based_ruling_set(graph, k, c=k)
        # The polylog algorithm pays big constants; the crossover is checked in
        # the benchmark at larger n.  Here we only check both are valid and
        # that the baseline's round count indeed scales like n^{1/c}.
        assert baseline.rounds >= 2 * k * int(256 ** (1 / k) / 2)
        assert new_det.rounds > 0

    def test_simulator_and_graph_level_luby_agree_statistically(self):
        graph = nx.random_regular_graph(4, 60, seed=7)
        network = repro.CongestNetwork(graph, id_seed=7)
        from repro.mis.luby import LubyMISNode
        simulated = repro.Simulator(network, LubyMISNode, seed=3).run(max_rounds=400)
        sim_mis = {node for node, joined in simulated.outputs.items() if joined}
        graph_level = luby_mis(graph, rng=random.Random(3)).mis
        for mis in (sim_mis, graph_level):
            assert repro.is_mis_of_power_graph(graph, mis, 1)


class TestEndToEndFrequencyAssignment:
    """The motivating application from Section 1: distance-2 symmetry breaking
    on a wireless (unit-disk) network."""

    def test_cluster_heads_are_a_valid_2_ruling_set(self):
        from repro.graphs import unit_disk_graph
        graph = unit_disk_graph(120, seed=9)
        result = power_graph_mis(graph, 2, rng=random.Random(9))
        assert repro.is_mis_of_power_graph(graph, result.mis, 2)
        # No two cluster heads interfere (are within 2 hops) and every node
        # hears at least one head within 2 hops.
        report = verify_ruling_set(graph, result.mis, alpha=3, beta=2)
        assert report.ok
