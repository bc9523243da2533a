"""Unit tests for the layered CONGEST runtime.

Covers the four layers individually: topology snapshots (indexing, routes,
canonical edges), transport (inbox pooling and the *aggregate* per-edge
bandwidth accounting -- the regression the legacy per-message check missed),
engines (resolution and halted-node skipping) and observers (stats,
congestion profiles, halting timelines), plus the `CongestNetwork` caching
satellites (``max_degree``, ``ids`` proxy, cached snapshot).
"""

from __future__ import annotations

import types

import networkx as nx
import pytest

from repro.congest import (
    ActiveSetEngine,
    BandwidthExceededError,
    CongestionProfileObserver,
    CongestNetwork,
    HaltingTimelineObserver,
    NodeAlgorithm,
    RoundObserver,
    Simulator,
    StatsObserver,
    SyncEngine,
    TopologySnapshot,
    Transport,
)
from repro.congest.engine import resolve_engine
from repro.congest.message import Broadcast
from repro.congest.simulator import LazyEdgeCounts
from repro.graphs import random_regular_graph
from repro.mis.luby import LubyMISNode


# ----------------------------------------------------------------- topology
class TestTopologySnapshot:
    def test_indexing_follows_graph_order(self):
        graph = nx.path_graph(5)
        network = CongestNetwork(graph, id_seed=None)
        topology = network.topology()
        assert topology.labels == tuple(graph.nodes())
        assert all(topology.index_of[label] == i
                   for i, label in enumerate(topology.labels))
        assert topology.n == 5
        assert topology.edge_count == 4

    def test_routes_and_edges(self):
        graph = nx.cycle_graph(6)
        network = CongestNetwork(graph, id_seed=2)
        topology = network.topology()
        for u_label in graph.nodes():
            u = topology.index_of[u_label]
            for v_label in graph.neighbors(u_label):
                v, edge, slot = topology.routes[u][v_label]
                assert v == topology.index_of[v_label]
                endpoints = topology.edge_endpoints[edge]
                assert endpoints == (min(u, v), max(u, v))
                assert slot == 2 * edge + (0 if u < v else 1)
        # Each undirected edge appears exactly once.
        assert topology.edge_count == graph.number_of_edges()
        assert len(set(topology.edge_endpoints)) == topology.edge_count

    def test_edge_labels_are_index_canonical(self):
        # Labels whose str() ordering disagrees with insertion order: the
        # legacy simulator keyed edges by str() which is unstable for such
        # types; the snapshot orders by integer index.
        graph = nx.Graph()
        graph.add_edge(10, 9)
        graph.add_edge(9, "a")
        network = CongestNetwork(graph, id_seed=None)
        topology = network.topology()
        for edge in range(topology.edge_count):
            u, v = topology.edge_label(edge)
            assert topology.index_of[u] < topology.index_of[v]
            assert topology.edge_index(u, v) == edge
        assert topology.edge_index(10, 9) == topology.edge_index(9, 10)

    def test_degrees_and_ids(self):
        graph = nx.star_graph(4)
        network = CongestNetwork(graph, id_seed=3)
        topology = network.topology()
        hub = topology.index_of[0]
        assert topology.degrees[hub] == 4
        assert topology.max_degree == 4
        assert topology.congest_ids[hub] == network.node_id(0)

    def test_snapshot_is_cached_on_network(self):
        network = CongestNetwork(nx.path_graph(4))
        assert network.topology() is network.topology()
        assert isinstance(network.topology(), TopologySnapshot)


# ------------------------------------------------------------------ network
class TestNetworkCachingSatellites:
    def test_max_degree_is_cached(self):
        network = CongestNetwork(nx.star_graph(6))
        assert network.max_degree == 6
        assert network._max_degree == 6  # populated by the first access
        assert network.max_degree == 6

    def test_ids_is_readonly_view_not_a_copy(self):
        network = CongestNetwork(nx.path_graph(5), id_seed=4)
        view = network.ids
        assert isinstance(view, types.MappingProxyType)
        assert network.ids is view  # no per-access copy
        with pytest.raises(TypeError):
            view[0] = 99  # type: ignore[index]
        assert dict(view) == {node: network.node_id(node)
                              for node in network.nodes()}


# ---------------------------------------------------------------- transport
class TestTransportBandwidth:
    def _transport(self, *, bandwidth=64, half_duplex=False, enforce=True):
        network = CongestNetwork(nx.path_graph(3), bandwidth_bits=bandwidth,
                                 id_seed=None)
        return Transport(network.topology(), bandwidth_bits=bandwidth,
                         enforce=enforce, half_duplex=half_duplex), network

    def test_aggregate_overload_on_one_direction_raises(self):
        # Regression: the legacy check only rejected single oversized
        # messages; two messages on the same directed edge in one round
        # could silently exceed the budget.
        transport, network = self._transport(bandwidth=64)
        topology = transport.topology
        edge = topology.routes[0][1][1]
        transport.deposit(0, 0, 1, edge, "1234")  # 32 bits: fits
        with pytest.raises(BandwidthExceededError):
            transport.deposit(0, 0, 1, edge, "12345")  # aggregate 72 > 64

    def test_full_duplex_directions_have_separate_budgets(self):
        transport, _ = self._transport(bandwidth=64)
        edge = transport.topology.routes[0][1][1]
        transport.deposit(0, 0, 1, edge, "12345")  # 40 bits forward
        transport.deposit(1, 1, 0, edge, "12345")  # 40 bits reverse: fine
        assert transport.total_messages == 2

    def test_half_duplex_shares_one_budget(self):
        transport, _ = self._transport(bandwidth=64, half_duplex=True)
        edge = transport.topology.routes[0][1][1]
        transport.deposit(0, 0, 1, edge, "12345")  # 40 bits forward
        with pytest.raises(BandwidthExceededError):
            transport.deposit(1, 1, 0, edge, "12345")  # 40 more on same slot

    def test_budget_resets_between_rounds(self):
        transport, _ = self._transport(bandwidth=64)
        edge = transport.topology.routes[0][1][1]
        transport.deposit(0, 0, 1, edge, "12345")
        transport.end_round()
        transport.deposit(0, 0, 1, edge, "12345")  # fresh budget: fine
        assert transport.total_messages == 2

    def test_deposit_then_broadcast_aggregate_enforced(self):
        # A message-level deposit stamps the sender, so a bulk broadcast in
        # the same round sees the existing load on the directed slot.
        transport, network = self._transport(bandwidth=64)
        edge = transport.topology.routes[0][1][1]
        transport.deposit(0, 0, 1, edge, "12345")  # 40 bits forward
        with pytest.raises(BandwidthExceededError):
            transport.deposit_broadcast(0, "12345")  # 40 more on same slot

    def test_enforcement_off_still_counts(self):
        transport, _ = self._transport(bandwidth=8, enforce=False)
        edge = transport.topology.routes[0][1][1]
        transport.deposit(0, 0, 1, edge, "a massive payload" * 10)
        assert transport.total_messages == 1
        assert transport.total_bits > 8

    def test_simulator_half_duplex_aggregate(self):
        # Two opposite 40-bit messages fit a 64-bit full-duplex edge but
        # exceed a shared half-duplex budget.
        graph = nx.path_graph(2)

        class Chatter(NodeAlgorithm):
            def send(self, round_number):
                return self.broadcast("12345")  # 40 bits

            def receive(self, round_number, inbox):
                self.halt(True)

        full = Simulator(CongestNetwork(graph, bandwidth_bits=64, id_seed=None),
                         Chatter)
        assert full.run(max_rounds=2).halted
        half = Simulator(CongestNetwork(graph, bandwidth_bits=64, id_seed=None),
                         Chatter, half_duplex=True)
        with pytest.raises(BandwidthExceededError):
            half.run(max_rounds=2)


class TestTransportInboxPool:
    def test_lazy_allocation_and_recycling(self):
        network = CongestNetwork(nx.path_graph(4), id_seed=None)
        transport = Transport(network.topology(),
                              bandwidth_bits=network.bandwidth_bits)
        assert transport.inbox_table == [None] * 4
        edge = transport.topology.routes[0][1][1]
        transport.deposit(0, 0, 1, edge, "hi")
        assert transport.inbox_table[1] == {0: "hi"}
        assert transport.inbox_table[0] is None  # only receivers allocate
        box = transport.inbox_table[1]
        transport.end_round()
        assert transport.inbox_table[1] is None
        # The same dict object is recycled for the next receiver.
        transport.deposit(0, 0, 1, edge, "again")
        assert transport.inbox_table[1] is box

    def test_empty_inbox_is_shared_and_immutable(self):
        network = CongestNetwork(nx.path_graph(3), id_seed=None)
        transport = Transport(network.topology(),
                              bandwidth_bits=network.bandwidth_bits)
        inbox = transport.inbox(0)
        assert len(inbox) == 0
        with pytest.raises(TypeError):
            inbox[0] = "x"  # type: ignore[index]


# ------------------------------------------------------------------ engines
class TestEngines:
    def test_resolve_engine_accepts_all_spellings(self):
        assert isinstance(resolve_engine(None), SyncEngine)
        assert isinstance(resolve_engine("sync"), SyncEngine)
        assert isinstance(resolve_engine("legacy"), SyncEngine)
        assert isinstance(resolve_engine("active-set"), ActiveSetEngine)
        assert isinstance(resolve_engine("active"), ActiveSetEngine)
        assert isinstance(resolve_engine(ActiveSetEngine), ActiveSetEngine)
        engine = SyncEngine()
        assert resolve_engine(engine) is engine
        with pytest.raises(ValueError):
            resolve_engine("warp-drive")
        with pytest.raises(TypeError):
            resolve_engine(42)  # type: ignore[arg-type]

    def test_non_neighbor_send_rejected_by_both_engines(self):
        graph = nx.path_graph(4)

        class Rogue(NodeAlgorithm):
            def send(self, round_number):
                if self.node == 0:
                    return {3: "hi"}
                return {}

            def receive(self, round_number, inbox):
                self.halt()

        for engine in ("sync", "active-set"):
            network = CongestNetwork(graph, id_seed=None)
            with pytest.raises(ValueError):
                Simulator(network, Rogue, engine=engine).run(max_rounds=2)

    def test_active_set_skips_halted_nodes(self):
        calls: dict[str, int] = {"send": 0}

        class HaltsAtOnce(NodeAlgorithm):
            def __init__(self, stays: bool) -> None:
                super().__init__()
                self.stays = stays

            def send(self, round_number):
                calls["send"] += 1
                return {}

            def receive(self, round_number, inbox):
                if not self.stays or round_number >= 5:
                    self.halt(True)

        graph = nx.path_graph(10)
        network = CongestNetwork(graph, id_seed=None)
        stayer = list(graph.nodes())[0]
        result = Simulator(network,
                           lambda node: HaltsAtOnce(stays=(node == stayer)),
                           engine="active-set").run(max_rounds=20)
        assert result.halted and result.rounds == 5
        # Round 1: all 10 send; rounds 2..5: only the stayer.
        assert calls["send"] == 10 + 4

    def test_mutated_broadcast_falls_back_to_entry_path(self):
        graph = nx.path_graph(3)

        class Overrider(NodeAlgorithm):
            def send(self, round_number):
                outbox = self.broadcast("a")
                for neighbor in self.neighbors:
                    outbox[neighbor] = f"to-{neighbor}"  # clears the fast path
                return outbox

            def receive(self, round_number, inbox):
                self.received = dict(inbox)
                self.halt(True)

        network = CongestNetwork(graph, id_seed=None)
        simulator = Simulator(network, Overrider)
        result = simulator.run(max_rounds=2)
        assert result.halted
        middle = simulator.nodes[1]
        assert middle.received == {0: "to-1", 2: "to-1"}

    def test_lazy_broadcast_mapping_api(self):
        broadcast = Broadcast(("a", "b"), 7, lazy=True)
        assert broadcast  # truthy without materialising
        assert broadcast["a"] == 7
        assert dict(broadcast.items()) == {"a": 7, "b": 7}
        assert len(broadcast) == 2
        empty = Broadcast((), 7, lazy=True)
        assert not empty

    def test_lazy_broadcast_comparisons_materialise(self):
        expected = {"a": 7, "b": 7}
        assert Broadcast(("a", "b"), 7, lazy=True) == expected
        assert not Broadcast(("a", "b"), 7, lazy=True) != expected
        assert Broadcast(("a", "b"), 7, lazy=True) | {"c": 1} == {**expected,
                                                                  "c": 1}
        merged = Broadcast(("a", "b"), 7, lazy=True)
        merged |= {"a": 9}
        assert merged == {"a": 9, "b": 7}

    def test_subset_broadcast_not_misdelivered(self):
        # A Broadcast over a subset of neighbors must route entry by entry.
        graph = nx.path_graph(3)

        class SubsetSender(NodeAlgorithm):
            def send(self, round_number):
                if self.node == 1 and round_number == 1:
                    return Broadcast([0], "hello", lazy=True)
                return {}

            def receive(self, round_number, inbox):
                self.got = dict(inbox)
                self.halt(True)

        network = CongestNetwork(graph, id_seed=None)
        simulator = Simulator(network, SubsetSender)
        result = simulator.run(max_rounds=2)
        assert result.total_messages == 1
        assert simulator.nodes[0].got == {1: "hello"}
        assert simulator.nodes[2].got == {}

    def test_ior_override_on_broadcast_is_delivered(self):
        graph = nx.path_graph(3)

        class IorSender(NodeAlgorithm):
            def send(self, round_number):
                if self.node == 1 and round_number == 1:
                    outbox = self.broadcast("x")
                    outbox |= {0: "override"}
                    return outbox
                return {}

            def receive(self, round_number, inbox):
                self.got = dict(inbox)
                self.halt(True)

        network = CongestNetwork(graph, id_seed=None)
        simulator = Simulator(network, IorSender)
        simulator.run(max_rounds=2)
        assert simulator.nodes[0].got == {1: "override"}
        assert simulator.nodes[2].got == {1: "x"}


# ---------------------------------------------------------------- observers
class TestObservers:
    def _run_with(self, observers, *, engine="active-set", n=40, seed=6):
        graph = random_regular_graph(n, 4, seed=seed)
        network = CongestNetwork(graph, id_seed=seed)
        simulator = Simulator(network, LubyMISNode, seed=seed, engine=engine,
                              observers=observers)
        return simulator.run(max_rounds=400)

    def test_stats_observer_matches_result(self):
        stats = StatsObserver()
        result = self._run_with([stats])
        assert stats.result is result
        assert stats.rounds == result.rounds
        assert sum(snap.messages for snap in stats.history) == result.total_messages
        assert sum(snap.bits for snap in stats.history) == result.total_bits
        assert len(stats.history) == result.rounds

    def test_congestion_profile_observer(self):
        profile = CongestionProfileObserver()
        result = self._run_with([profile])
        assert len(profile.profile) == result.rounds
        busiest_rounds = [row for row in profile.profile if row["messages"]]
        assert busiest_rounds, "Luby always sends in round 1"
        for row in busiest_rounds:
            assert row["max_edge_bits"] >= 1
            assert row["busiest_edge"] in result.edge_message_counts
        assert profile.peak_edge_bits() >= 1

    def test_halting_timeline_observer(self):
        timeline = HaltingTimelineObserver()
        result = self._run_with([timeline])
        assert result.halted
        # Every node halts exactly once, at a round within the run.
        assert set(timeline.halt_round) == set(result.outputs)
        assert all(1 <= r <= result.rounds for r in timeline.halt_round.values())
        # The timeline's running active counts are consistent.
        total_halted = sum(newly for _, newly, _ in timeline.timeline)
        assert total_halted == len(result.outputs)
        assert timeline.timeline[-1][2] == 0

    def test_message_observer_sees_every_message(self):
        class Recorder(RoundObserver):
            wants_messages = True

            def __init__(self) -> None:
                self.count = 0
                self.bits = 0

            def on_message(self, round_number, sender, receiver, payload,
                           bits, edge_index):
                self.count += 1
                self.bits += bits

        recorder = Recorder()
        result = self._run_with([recorder])
        assert recorder.count == result.total_messages
        assert recorder.bits == result.total_bits

    def test_observers_do_not_change_results(self):
        quiet = self._run_with([])
        observed = self._run_with([StatsObserver(), CongestionProfileObserver(),
                                   HaltingTimelineObserver()])
        assert quiet.outputs == observed.outputs
        assert quiet.rounds == observed.rounds
        assert quiet.total_messages == observed.total_messages
        assert quiet.edge_message_counts == observed.edge_message_counts


# ------------------------------------------------------------------ results
class TestLazyEdgeCounts:
    def test_materialises_on_access_and_compares(self):
        graph = random_regular_graph(30, 4, seed=8)
        network = CongestNetwork(graph, id_seed=8)
        a = Simulator(network, LubyMISNode, seed=8).run(max_rounds=400)
        b = Simulator(network, LubyMISNode, seed=8).run(max_rounds=400)
        assert isinstance(a.edge_message_counts, LazyEdgeCounts)
        assert a.edge_message_counts == b.edge_message_counts
        assert dict(a.edge_message_counts) == dict(b.edge_message_counts)
        assert a.max_edge_congestion() == max(a.edge_message_counts.values())
        total = sum(a.edge_message_counts.values())
        assert total == a.total_messages
