"""Edge cases across the public API: empty, singleton and disconnected graphs.

CONGEST algorithms are usually stated for connected graphs, but a robust
library should degrade gracefully: singleton graphs produce the node itself,
empty graphs produce empty outputs, and disconnected graphs are handled per
connected component (every component must receive its own dominators).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

import repro
from repro.api import REGISTRY
from repro.core.power_sparsify import power_graph_sparsification
from tests.conftest import distance_neighborhood
from repro.mis.beeping import beeping_mis
from repro.mis.luby import luby_mis, luby_mis_power
from repro.mis.power_mis import power_graph_mis
from repro.mis.shattering import shattering_mis
from repro.ruling import greedy_mis, greedy_ruling_set
from repro.ruling.aglp import aglp_ruling_set
from repro.ruling.det_ruling_set import deterministic_power_ruling_set
from repro.ruling.verify import is_alpha_independent


def empty_graph() -> nx.Graph:
    return nx.Graph()


def singleton_graph() -> nx.Graph:
    graph = nx.Graph()
    graph.add_node(0)
    return graph


def disconnected_graph() -> nx.Graph:
    return nx.disjoint_union(nx.cycle_graph(8), nx.path_graph(7))


class TestEmptyGraph:
    def test_mis_algorithms_return_empty(self):
        graph = empty_graph()
        assert luby_mis(graph).mis == set()
        assert power_graph_mis(graph, 1).mis == set()
        assert beeping_mis(graph).mis == set()
        assert greedy_mis(graph, 2) == set()

    def test_ruling_set_algorithms_return_empty(self):
        graph = empty_graph()
        assert deterministic_power_ruling_set(graph, 1).ruling_set == set()
        assert greedy_ruling_set(graph, alpha=3) == set()

    def test_sparsification_returns_empty(self):
        graph = empty_graph()
        result = power_graph_sparsification(graph, 2)
        assert result.q == set()


class TestSingletonGraph:
    def test_every_algorithm_selects_the_node(self):
        graph = singleton_graph()
        assert luby_mis(graph).mis == {0}
        assert power_graph_mis(graph, 2).mis == {0}
        assert shattering_mis(graph).mis == {0}
        assert deterministic_power_ruling_set(graph, 2).ruling_set == {0}
        assert greedy_mis(graph, 3) == {0}

    def test_sparsification_keeps_the_node(self):
        graph = singleton_graph()
        result = power_graph_sparsification(graph, 1)
        assert result.q == {0}

    def test_ruling_set_verification(self):
        graph = singleton_graph()
        assert repro.is_ruling_set(graph, {0}, alpha=5, beta=0)
        assert not repro.is_ruling_set(graph, set(), alpha=2, beta=3)


class TestDisconnectedGraph:
    def test_power_mis_covers_every_component(self):
        graph = disconnected_graph()
        result = power_graph_mis(graph, 2, rng=random.Random(1))
        for component in nx.connected_components(graph):
            assert result.mis & component, "a component was left without a dominator"
        assert is_alpha_independent(graph, result.mis, 3)

    def test_luby_power_covers_every_component(self):
        graph = disconnected_graph()
        result = luby_mis_power(graph, 2, rng=random.Random(2))
        for component in nx.connected_components(graph):
            assert result.mis & component
        assert is_alpha_independent(graph, result.mis, 3)

    def test_deterministic_ruling_set_covers_every_component(self):
        graph = disconnected_graph()
        result = deterministic_power_ruling_set(graph, 2)
        for component in nx.connected_components(graph):
            sub = result.mis if hasattr(result, "mis") else result.ruling_set
            assert set(sub) & component
        # Domination must be measured per component (cross-component distances
        # are infinite).
        for component in nx.connected_components(graph):
            heads = result.ruling_set & component
            assert repro.is_ruling_set(graph, heads, alpha=3, beta=result.beta_bound,
                                       targets=component)

    def test_sparsification_bounds_hold(self):
        graph = disconnected_graph()
        result = power_graph_sparsification(graph, 2)
        check = repro.check_power_sparsification(graph, set(graph.nodes()), result.q, 2)
        assert check.degree_ok
        # Domination excess is measured relative to dist(v, Q_0) = 0, and Q
        # contains nodes of every component, so the bound still applies.
        assert check.domination_ok

    def test_shattering_mis_is_independent_and_covers_components(self):
        graph = disconnected_graph()
        result = shattering_mis(graph, rng=random.Random(3))
        assert is_alpha_independent(graph, result.mis, 2)
        for component in nx.connected_components(graph):
            for node in component:
                dominated = node in result.mis or bool(
                    distance_neighborhood(graph, node, 1, restrict_to=result.mis))
                assert dominated


class TestDegenerateParameters:
    def test_k_equals_one_matches_plain_problems(self):
        graph = nx.cycle_graph(12)
        power_mis = power_graph_mis(graph, 1, rng=random.Random(4)).mis
        assert repro.is_mis_of_power_graph(graph, power_mis, 1)
        det = deterministic_power_ruling_set(graph, 1)
        assert repro.is_mis_of_power_graph(graph, det.ruling_set, 1)

    def test_large_k_collapses_to_single_ruler_per_component(self):
        graph = disconnected_graph()
        k = graph.number_of_nodes()  # larger than any component diameter
        result = luby_mis_power(graph, k, rng=random.Random(5))
        assert len(result.mis) == nx.number_connected_components(graph)

    def test_aglp_with_constant_coloring_rejects_nothing_wrongly(self):
        # A proper distance-k coloring is required; with unique IDs it always
        # works even on a complete graph (where G^k is complete too).
        graph = nx.complete_graph(9)
        ids = {node: node + 1 for node in graph.nodes()}
        result = aglp_ruling_set(graph, 2, ids, base=3)
        assert len(result.ruling_set) == 1


def looped_graph() -> nx.Graph:
    """A star whose hub has a self-loop, a path, and an isolated looped node."""
    graph = nx.star_graph(6)
    graph.add_edges_from([(0, 0), (6, 7), (7, 8), (9, 9)])
    return graph


class TestSelfLoops:
    """A self-loop adds no ``G^k`` neighbour; the message-passing
    simulators refuse such a network instead of messaging a node itself."""

    @pytest.mark.parametrize("name", REGISTRY.algorithm_names())
    def test_every_algorithm_certifies_or_refuses(self, name):
        graph = looped_graph()
        if name.endswith("-sim"):
            with pytest.raises(ValueError, match="self-loops"):
                repro.solve(graph, name, seed=1)
            return
        report = repro.solve(graph, name, seed=1)
        assert report.verified, report.certificate.summary()

    def test_rows_ignore_the_loops(self):
        graph = looped_graph()
        plain = nx.Graph(graph)
        plain.remove_edges_from(list(nx.selfloop_edges(plain)))
        for k in (1, 2):
            looped_mis = luby_mis_power(graph, k, rng=random.Random(k)).mis
            assert list(looped_mis) == list(luby_mis_power(plain, k, rng=random.Random(k)).mis)
        assert list(luby_mis(graph).mis) == list(luby_mis(plain).mis)
