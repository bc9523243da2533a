"""Property-based tests (hypothesis) on the core invariants of the library.

These complement the example-based tests by checking the paper's structural
guarantees on randomly generated graphs and parameters:

* Lemma 5.1 / 3.1: sparsification degree and domination bounds;
* Section 2: the ruling set / MIS equivalences;
* Lemma 7.2: connectivity of ruling sets of connected sets;
* the verification helpers themselves (metamorphic properties).
"""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import check_power_sparsification, power_graph_sparsification
from repro.core.detsparsify import det_sparsification
from repro.core.invariants import check_sparsification
from repro.graphs.power import k_connected_components
from tests.conftest import distance_neighborhood
from repro.mis.shattering import is_s_connected
from repro.ruling.greedy import greedy_mis, greedy_ruling_set
from repro.ruling.verify import (
    domination_radius,
    independence_radius,
    is_ruling_set,
    verify_ruling_set,
)

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def connected_graphs(draw, max_nodes: int = 40):
    """Connected random graphs of moderate size."""
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    extra_edge_prob = draw(st.floats(min_value=0.0, max_value=0.25))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = random.Random(seed)
    graph = nx.random_labeled_tree(n, seed=seed)
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and rng.random() < extra_edge_prob:
                graph.add_edge(u, v)
    return graph


class TestSparsificationProperties:
    @SETTINGS
    @given(connected_graphs(), st.integers(min_value=1, max_value=3))
    def test_power_sparsification_bounds(self, graph, k):
        result = power_graph_sparsification(graph, k)
        check = check_power_sparsification(graph, set(graph.nodes()), result.q, k)
        assert check.degree_ok
        assert check.domination_ok
        assert result.q <= set(graph.nodes())

    @SETTINGS
    @given(connected_graphs(max_nodes=50), st.data())
    def test_det_sparsification_on_active_subsets(self, graph, data):
        nodes = sorted(graph.nodes())
        subset_size = data.draw(st.integers(min_value=1, max_value=len(nodes)))
        active = set(data.draw(st.permutations(nodes))[:subset_size])
        result = det_sparsification(graph, active=active, method="per-variable")
        assert result.q <= active
        check = check_sparsification(graph, active, result.q)
        assert check.degree_ok
        assert check.domination_ok


class TestRulingSetProperties:
    @SETTINGS
    @given(connected_graphs(), st.integers(min_value=1, max_value=3))
    def test_greedy_mis_is_k_plus_1_independent_and_k_dominating(self, graph, k):
        mis = greedy_mis(graph, k)
        assert is_ruling_set(graph, mis, alpha=k + 1, beta=k)

    @SETTINGS
    @given(connected_graphs(), st.integers(min_value=2, max_value=5))
    def test_greedy_ruling_set_meets_definition(self, graph, alpha):
        ruling = greedy_ruling_set(graph, alpha=alpha)
        report = verify_ruling_set(graph, ruling, alpha=alpha, beta=alpha - 1)
        assert report.ok

    @SETTINGS
    @given(connected_graphs(), st.integers(min_value=2, max_value=4))
    def test_independence_and_domination_are_antitone(self, graph, alpha):
        """Removing a node from a set can only increase independence radius and
        the domination radius (metamorphic property of the verifiers)."""
        ruling = greedy_ruling_set(graph, alpha=alpha)
        if len(ruling) < 2:
            return
        victim = sorted(ruling)[0]
        smaller = ruling - {victim}
        assert independence_radius(graph, smaller) >= independence_radius(graph, ruling)
        assert domination_radius(graph, smaller) >= domination_radius(graph, ruling)

    @SETTINGS
    @given(connected_graphs(max_nodes=30), st.integers(min_value=1, max_value=3))
    def test_mis_definition_equivalence(self, graph, k):
        """x in MIS of G^k  <=>  no earlier (by order) chosen node within distance k."""
        mis = greedy_mis(graph, k)
        for node in graph.nodes():
            nearby = distance_neighborhood(graph, node, k, restrict_to=mis)
            if node in mis:
                assert not nearby & (mis - {node})
            else:
                assert nearby


class TestConnectivityProperties:
    @SETTINGS
    @given(connected_graphs(max_nodes=30), st.integers(min_value=2, max_value=5))
    def test_lemma_7_2(self, graph, alpha):
        """An (alpha, alpha-1)-ruling set of a connected set U is
        (1 + 2*(alpha-1))-connected (Lemma 7.2 with s = 1, beta = alpha - 1)."""
        subset = set(graph.nodes())
        assert is_s_connected(graph, subset, 1)
        ruling = greedy_ruling_set(graph, alpha=alpha, targets=subset)
        assert is_s_connected(graph, ruling, 1 + 2 * (alpha - 1))

    @SETTINGS
    @given(connected_graphs(max_nodes=30), st.integers(min_value=1, max_value=3))
    def test_k_connected_components_are_maximal(self, graph, k):
        nodes = sorted(graph.nodes())
        subset = set(nodes[::2])
        components = k_connected_components(graph, subset, k)
        for component in components:
            assert is_s_connected(graph, component, k)
        # Maximality: two different components are more than k apart.
        for i, first in enumerate(components):
            for second in components[i + 1:]:
                for node in first:
                    assert not (distance_neighborhood(graph, node, k) & second)
