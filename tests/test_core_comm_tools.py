"""Tests for the communication tools of Section 4 (Lemmas 4.1, 4.2, 4.6)."""

from __future__ import annotations

import pytest
import networkx as nx

from repro.congest.cost import RoundLedger
from repro.core.comm_tools import (
    broadcast_from_q,
    learn_distance_ids,
    q_message,
    simulate_on_power_subgraph,
)
from repro.graphs import figure1_gadget, random_regular_graph
from repro.graphs.power import induced_power_subgraph
from tests.conftest import distance_neighborhood


def build_tools(n=40, degree=4, s=2, q_stride=3, seed=1):
    graph = random_regular_graph(n, degree, seed=seed)
    q = set(list(graph.nodes())[::q_stride])
    tools = learn_distance_ids(graph, q, s)
    return graph, q, tools


class TestLearnDistanceIds:
    def test_q_neighborhoods_are_correct(self):
        graph, q, tools = build_tools()
        for node in graph.nodes():
            expected = distance_neighborhood(graph, node, 2, restrict_to=q)
            assert tools.q_neighborhoods[node] == expected

    def test_bfs_trees_cover_distance_s(self):
        graph, q, tools = build_tools(s=3)
        for root in q:
            tree = tools.trees[root]
            tree.validate(graph)
            assert tree.nodes >= set(distance_neighborhood(graph, root, 3)) | {root}

    def test_hat_delta_values(self):
        graph, q, tools = build_tools(s=2)
        expected_prev = max(len(distance_neighborhood(graph, node, 1, restrict_to=q))
                            for node in graph.nodes())
        expected_s = max(len(distance_neighborhood(graph, node, 2, restrict_to=q))
                         for node in graph.nodes())
        assert tools.hat_delta == max(1, expected_prev)
        assert tools.hat_delta_s == max(1, expected_s)

    def test_rounds_charged_per_level(self):
        graph, q, tools = build_tools(s=3)
        labels = tools.ledger.rounds_by_label()
        assert any(label.startswith("learn-ids-level") for label in labels)
        assert tools.ledger.total_rounds >= 3

    def test_virtual_graph_matches_induced_power_subgraph(self):
        graph, q, tools = build_tools(s=2)
        expected = induced_power_subgraph(graph, 2, q)
        assert set(tools.virtual_graph().edges()) == set(expected.edges())


class TestBroadcast:
    def test_delivery_to_distance_s_neighborhood(self):
        graph, q, tools = build_tools(s=2)
        messages = {node: f"msg-{node}" for node in q}
        deliveries, _ = broadcast_from_q(tools, messages, message_bits=32)
        for sender in q:
            for receiver in distance_neighborhood(graph, sender, 2):
                assert deliveries[receiver][sender] == f"msg-{sender}"

    def test_sender_must_be_in_q(self):
        graph, q, tools = build_tools()
        outsider = next(node for node in graph.nodes() if node not in q)
        with pytest.raises(ValueError):
            broadcast_from_q(tools, {outsider: "x"}, message_bits=8)

    def test_congestion_tracking_on_figure1_gadget(self):
        graph, (v, w), q_nodes = figure1_gadget(hat_delta=12, s=3)
        tools = learn_distance_ids(graph, q_nodes, 3)
        messages = {node: 1 for node in q_nodes}
        _, congestion = broadcast_from_q(tools, messages, message_bits=8,
                                         track_congestion=True)
        central = (v, w) if str(v) <= str(w) else (w, v)
        # Every Q node's broadcast must cross the central edge: Theta(hat_delta).
        assert congestion[central] == len(q_nodes)

    def test_rounds_follow_lemma_4_2(self):
        graph, q, tools = build_tools(s=2)
        before = tools.ledger.total_rounds
        broadcast_from_q(tools, {node: 0 for node in q}, message_bits=64)
        charged = tools.ledger.total_rounds - before
        assert charged >= tools.s


class TestQMessage:
    def test_point_to_point_delivery(self):
        graph, q, tools = build_tools(s=2)
        messages = {sender: {receiver: (sender, receiver)
                             for receiver in tools.q_neighborhoods[sender]}
                    for sender in q}
        deliveries, _ = q_message(tools, messages, message_bits=32)
        for sender in q:
            for receiver in tools.q_neighborhoods[sender]:
                assert deliveries[receiver][sender] == (sender, receiver)

    def test_rejects_non_neighbor_receiver(self):
        graph, q, tools = build_tools(s=2)
        sender = next(iter(q))
        far = None
        for node in q:
            if node not in tools.q_neighborhoods[sender] and node != sender:
                far = node
                break
        if far is None:
            pytest.skip("all Q nodes are within distance s of each other")
        with pytest.raises(ValueError):
            q_message(tools, {sender: {far: "x"}}, message_bits=8)

    def test_congestion_quadratic_on_figure1_gadget(self):
        hat_delta = 12
        graph, (v, w), q_nodes = figure1_gadget(hat_delta=hat_delta, s=3)
        tools = learn_distance_ids(graph, q_nodes, 3)
        messages = {sender: {receiver: 1 for receiver in tools.q_neighborhoods[sender]}
                    for sender in q_nodes}
        _, congestion = q_message(tools, messages, message_bits=8, track_congestion=True)
        central = (v, w) if str(v) <= str(w) else (w, v)
        # Each of the hat_delta/2 left Q-nodes sends to each of the
        # hat_delta/2 right Q-nodes across the central edge (and vice versa):
        # Theta(hat_delta^2 / 4) messages over {v, w}.
        assert congestion[central] >= (hat_delta // 2) ** 2

    def test_q_message_costs_more_than_broadcast(self):
        graph, q, tools = build_tools(s=2)
        ledger_a = RoundLedger(bandwidth_bits=64)
        ledger_b = RoundLedger(bandwidth_bits=64)
        cost_broadcast = ledger_a.charge_broadcast(2, 64, tools.hat_delta)
        cost_qmessage = ledger_b.charge_q_message(2, 64, 32, tools.hat_delta)
        assert cost_qmessage >= cost_broadcast


class TestSimulation:
    def test_simulated_rounds_charged_with_slowdown(self):
        graph, q, tools = build_tools(s=2)
        simulation = simulate_on_power_subgraph(tools)
        before = tools.ledger.total_rounds
        simulation.charge_rounds(5, message_bits=32)
        charged = tools.ledger.total_rounds - before
        # Lemma 4.6: each simulated round costs at least s rounds.
        assert charged >= 5 * tools.s

    def test_virtual_graph_nodes_are_q(self):
        graph, q, tools = build_tools(s=2)
        simulation = simulate_on_power_subgraph(tools)
        assert set(simulation.virtual_graph.nodes()) == q
