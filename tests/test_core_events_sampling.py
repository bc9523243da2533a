"""Tests for the stage event system and Algorithm 1 (randomized sparsification)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.core import check_sparsification, degree_bound, randomized_sparsification, sampling_probability
from repro.core.events import SparsificationStageEvents, log_n, stage_count
from repro.graphs import erdos_renyi_graph, random_regular_graph


class TestStageArithmetic:
    def test_log_n_floor(self):
        assert log_n(1) == 1.0
        assert log_n(2) == 1.0  # floored at 1
        assert log_n(1000) == pytest.approx(math.log(1000))

    def test_degree_bound(self):
        assert degree_bound(100) == pytest.approx(72 * math.log(100))

    def test_sampling_probability_growth_and_cap(self):
        n = 256
        p1 = sampling_probability(1, 4096, n)
        p2 = sampling_probability(2, 4096, n)
        assert p2 == pytest.approx(2 * p1)
        assert sampling_probability(30, 4096, n) == 1.0
        assert sampling_probability(1, 0, n) == 1.0

    def test_stage_count(self):
        n = 1000
        assert stage_count(16, n) == 0  # small Delta_A -> no stages
        big = stage_count(2 ** 20, n)
        assert big == math.floor(20 - math.log2(log_n(n))) - 5


class TestStageEvents:
    def make_events(self, stage: int = 1) -> tuple[nx.Graph, SparsificationStageEvents]:
        graph = random_regular_graph(30, 4, seed=1)
        events = SparsificationStageEvents(graph=graph, active=set(graph.nodes()),
                                           stage=stage, delta_a=4)
        return graph, events

    def test_active_neighborhoods_match_graph(self):
        graph, events = self.make_events()
        for node in graph.nodes():
            assert events.active_neighbors[node] == set(graph.neighbors(node))

    def test_high_degree_set(self):
        graph, events = self.make_events(stage=1)
        # cutoff = delta_a / 2 = 2 -> every node (degree 4) is high degree.
        assert events.high_degree_nodes == set(graph.nodes())

    def test_phi_event_semantics(self):
        graph, events = self.make_events()
        node = next(iter(graph.nodes()))
        assert events.phi_occurs(node, sampled=set())
        assert not events.phi_occurs(node, sampled={node})
        neighbor = next(iter(graph.neighbors(node)))
        assert not events.phi_occurs(node, sampled={neighbor})

    def test_psi_event_semantics(self):
        graph = nx.star_graph(600)
        events = SparsificationStageEvents(graph=graph, active=set(graph.nodes()),
                                           stage=1, delta_a=600)
        leaves = set(range(1, 601))
        assert events.psi_occurs(0, sampled=leaves)
        few = set(range(1, 10))
        assert not events.psi_occurs(0, sampled=few)

    def test_dependent_nodes(self):
        graph, events = self.make_events()
        node = next(iter(graph.nodes()))
        dependents = events.dependent_nodes(node)
        assert node in dependents
        assert set(graph.neighbors(node)) <= dependents

    def test_conditional_expectations_match_event_semantics(self):
        graph, events = self.make_events()
        node = next(iter(graph.nodes()))
        # Everything fixed to unsampled -> Phi certainly occurs, Psi certainly not.
        fixed = {other: False for other in graph.nodes()}
        assert events.phi_expectation(node, fixed) == pytest.approx(1.0)
        assert events.psi_expectation(node, fixed) == pytest.approx(0.0)
        # Some neighbor sampled -> Phi certainly does not occur.
        neighbor = next(iter(graph.neighbors(node)))
        fixed[neighbor] = True
        assert events.phi_expectation(node, fixed) == pytest.approx(0.0)

    def test_unconditioned_expectation_below_one(self):
        """Lemma 5.4's bounds: the total initial expectation is far below 1."""
        graph = random_regular_graph(64, 8, seed=2)
        events = SparsificationStageEvents(graph=graph, active=set(graph.nodes()),
                                           stage=1, delta_a=8)
        assert events.total_expectation({}) < 1.0

    def test_restricted_power_neighborhoods(self):
        graph = nx.path_graph(10)
        active = {0, 3, 6, 9}
        events = SparsificationStageEvents(graph=graph, active=active, stage=1,
                                           delta_a=4, power=3)
        assert events.active_neighbors[0] == {3}
        assert events.active_neighbors[4] == {3, 6}

    def test_rows_are_masked_to_the_active_set(self):
        graph = nx.path_graph(6)
        events = SparsificationStageEvents(graph=graph, active={0, 1}, stage=1,
                                           delta_a=2)
        assert events.active_neighbors[2] == {1}
        assert [events.active_degree(node) for node in graph] == [1, 1, 1, 0, 0, 0]
        assert events.dependent_nodes(1) == {0, 1, 2}
        assert events.dependent_nodes(3) == {3}

    def test_evaluate_with_hash_threshold(self):
        graph = random_regular_graph(30, 4, seed=1)
        # Large Delta_A so the sampling probability (and hence the hash cutoff)
        # is strictly between 0 and the output range.
        events = SparsificationStageEvents(graph=graph, active=set(graph.nodes()),
                                           stage=1, delta_a=4096)
        assert 0.0 < events.probability < 1.0
        node_ids = {node: index + 1 for index, node in enumerate(sorted(graph.nodes()))}

        class AlwaysLow:
            output_range = 100

            def __call__(self, x):
                return 0

        class AlwaysHigh:
            output_range = 100

            def __call__(self, x):
                return 99

        assert events.evaluate_with_hash(AlwaysLow(), node_ids) == events.active
        assert events.evaluate_with_hash(AlwaysHigh(), node_ids) == set()


def exact_binomial_tail(trials: int, probability: float, above: int) -> float:
    """``P(Bin(trials, probability) > above)`` as an exact rational sum."""
    q = Fraction(probability)
    return float(sum(math.comb(trials, j) * q ** j * (1 - q) ** (trials - j)
                     for j in range(above + 1, trials + 1)))


class TestPsiBinomialTail:
    """``psi_expectation`` on a node with more than ``72 log n`` unfixed
    active neighbors, where the value comes from the binomial tail."""

    @pytest.fixture(scope="class")
    def events(self) -> SparsificationStageEvents:
        # K_{1,599} at power 2: every node has 599 active neighbors against a
        # threshold of 72 ln 600 ~ 460.6.  Delta_A = 400 puts the mean
        # u * q ~ 459.8 next to the threshold, so the tail is near 1/2.
        graph = nx.star_graph(599)
        return SparsificationStageEvents(graph=graph, active=set(graph.nodes()),
                                         stage=1, delta_a=400, power=2)

    def test_setting_reaches_the_tail(self, events):
        assert len(events.active_neighbors[0]) == 599
        assert math.floor(events.threshold) == 460
        assert 0.0 < events.probability < 1.0

    def test_unconditioned_tail_matches_exact_sum(self, events):
        value = events.psi_expectation(0, {})
        expected = exact_binomial_tail(599, events.probability, 460)
        assert 0.1 < expected < 0.9
        assert value == pytest.approx(expected, rel=1e-12)

    def test_partially_fixed_tail_matches_exact_sum(self, events):
        # 10 neighbors fixed sampled, 50 fixed unsampled: c = 10, u = 539.
        fixed = {leaf: True for leaf in range(1, 11)}
        fixed.update({leaf: False for leaf in range(11, 61)})
        value = events.psi_expectation(0, fixed)
        remaining = math.floor(events.threshold - 10)
        expected = exact_binomial_tail(539, events.probability, remaining)
        assert 0.0 < expected < 0.01
        assert value == pytest.approx(expected, rel=1e-12)

    def test_tail_is_a_martingale_in_one_decision(self, events):
        q = events.probability
        sampled = events.psi_expectation(0, {1: True})
        unsampled = events.psi_expectation(0, {1: False})
        assert q * sampled + (1 - q) * unsampled == pytest.approx(
            events.psi_expectation(0, {}), rel=1e-9)

    def test_too_few_unfixed_neighbors_cannot_cross(self, events):
        # u = 399 <= remaining = 460.
        fixed = {leaf: False for leaf in range(1, 201)}
        assert events.psi_expectation(0, fixed) == 0.0

    def test_fixed_sampled_above_threshold_is_certain(self, events):
        fixed = {leaf: True for leaf in range(1, 462)}
        assert events.psi_expectation(0, fixed) == 1.0

    def test_no_unfixed_neighbors_is_impossible(self, events):
        fixed = {leaf: leaf <= 100 for leaf in range(1, 600)}
        assert events.psi_expectation(0, fixed) == 0.0


class TestRandomizedSparsification:
    @pytest.mark.parametrize("use_kwise", [True, False])
    def test_lemma_5_1_guarantees(self, use_kwise):
        graph = random_regular_graph(120, 16, seed=3)
        result = randomized_sparsification(graph, rng=random.Random(5), use_kwise=use_kwise)
        check = check_sparsification(graph, set(graph.nodes()), result.q)
        assert check.degree_ok
        assert check.domination_ok
        assert result.q  # never empty when A is non-empty

    def test_small_delta_returns_active_set(self):
        # Delta_A < 32 log n -> zero stages -> Q = A (footnote 6).
        graph = random_regular_graph(30, 3, seed=1)
        result = randomized_sparsification(graph)
        assert result.q == set(graph.nodes())
        assert result.stages == []

    def test_respects_initial_active_set(self):
        graph = erdos_renyi_graph(80, expected_degree=10, seed=2)
        active = set(list(graph.nodes())[:40])
        result = randomized_sparsification(graph, active=active, rng=random.Random(1))
        assert result.q <= active

    def test_stage_records_are_consistent(self):
        graph = random_regular_graph(150, 32, seed=4)
        result = randomized_sparsification(graph, rng=random.Random(2))
        if result.stages:
            for record in result.stages:
                assert record.sampled <= result.q
                assert 0.0 < record.probability <= 1.0
            actives = [record.active_before for record in result.stages]
            assert actives == sorted(actives, reverse=True)

    def test_power_variant_guarantees(self):
        graph = random_regular_graph(90, 6, seed=5)
        result = randomized_sparsification(graph, power=2, rng=random.Random(3))
        check = check_sparsification(graph, set(graph.nodes()), result.q, power=2)
        assert check.degree_ok
        assert check.domination_ok

    def test_rounds_charged(self):
        graph = random_regular_graph(200, 32, seed=6)
        result = randomized_sparsification(graph, rng=random.Random(0))
        if result.stages:
            assert result.rounds >= 2 * len(result.stages)
