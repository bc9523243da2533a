"""Unit tests for the layered CONGEST runtime.

Covers the four layers individually: topology snapshots (indexing, routes,
canonical edges), transport (inbox pooling and the *aggregate* per-edge
bandwidth accounting -- the regression the legacy per-message check missed),
engines (resolution and halted-node skipping) and observers (stats,
congestion profiles, halting timelines), plus the `CongestNetwork` caching
satellites (``max_degree``, ``ids`` proxy, cached snapshot).
"""

from __future__ import annotations

import hashlib
import types

import networkx as nx
import pytest

import repro
from repro.api import REGISTRY, Provenance
from repro.congest import (
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
from repro.scenarios import DEFAULT_REGISTRY
from repro.scenarios.registry import scenario_config
from repro.service.cache import key_for_plan
from repro.service.scheduler import workload_graph


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
        arrays = topology.numpy_arrays()
        for u_label in graph.nodes():
            u = topology.index_of[u_label]
            for v_label in graph.neighbors(u_label):
                v, edge, slot = topology.routes[u][v_label]
                assert v == topology.index_of[v_label]
                endpoints = (arrays.edge_u[edge], arrays.edge_v[edge])
                assert endpoints == (min(u, v), max(u, v))
                assert slot == 2 * edge + (0 if u < v else 1)
        # Each undirected edge appears exactly once.
        assert topology.edge_count == graph.number_of_edges()
        assert len(set(zip(arrays.edge_u.tolist(), arrays.edge_v.tolist()))
                   ) == topology.edge_count

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
        degrees = topology.numpy_arrays().degrees
        assert degrees[hub] == 4
        assert degrees.max() == 4
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
        transport.deposit_outbox(0, {1: "1234"})  # 32 bits: fits
        with pytest.raises(BandwidthExceededError):
            transport.deposit_outbox(0, {1: "12345"})  # aggregate 72 > 64

    def test_full_duplex_directions_have_separate_budgets(self):
        transport, _ = self._transport(bandwidth=64)
        transport.deposit_outbox(0, {1: "12345"})  # 40 bits forward
        transport.deposit_outbox(1, {0: "12345"})  # 40 bits reverse: fine
        assert transport.total_messages == 2

    def test_half_duplex_shares_one_budget(self):
        transport, _ = self._transport(bandwidth=64, half_duplex=True)
        transport.deposit_outbox(0, {1: "12345"})  # 40 bits forward
        with pytest.raises(BandwidthExceededError):
            transport.deposit_outbox(1, {0: "12345"})  # 40 more on same slot

    def test_budget_resets_between_rounds(self):
        transport, _ = self._transport(bandwidth=64)
        transport.deposit_outbox(0, {1: "12345"})
        transport.end_round()
        transport.deposit_outbox(0, {1: "12345"})  # fresh budget: fine
        assert transport.total_messages == 2

    def test_outbox_then_broadcast_aggregate_enforced(self):
        # An outbox stamps its sender, so a broadcast by the same sender in
        # the same round sees the existing load on the directed slot.
        transport, network = self._transport(bandwidth=64)
        transport.deposit_outbox(0, {1: "12345"})  # 40 bits forward
        with pytest.raises(BandwidthExceededError):
            transport.deposit_broadcast(0, "12345")  # 40 more on same slot

    def test_broadcast_then_broadcast_aggregate_enforced(self):
        # A fast-path broadcast writes no slot loads, but a second deposit
        # by the same sender in the same round must still see its bits.
        transport, _ = self._transport(bandwidth=64)
        transport.deposit_broadcast(1, "12345")  # 40 bits on each slot
        with pytest.raises(BandwidthExceededError):
            transport.deposit_broadcast(1, "12345")  # 80 > 64

    def test_broadcast_then_outbox_aggregate_enforced(self):
        transport, _ = self._transport(bandwidth=64)
        transport.deposit_broadcast(1, "12345")
        with pytest.raises(BandwidthExceededError):
            transport.deposit_outbox(1, {2: "12345"})
        # Other senders and the next round start from their own loads.
        transport.end_round()
        transport.deposit_broadcast(1, "12345")
        transport.deposit_outbox(0, {1: "12345"})

    def test_single_broadcast_writes_no_slot_loads(self):
        transport, _ = self._transport(bandwidth=64)
        transport.deposit_broadcast(1, "12345")
        assert transport.total_messages == 2
        assert transport._touched_slots == []
        assert not any(transport._slot_bits)

    def test_enforcement_off_still_counts(self):
        transport, _ = self._transport(bandwidth=8, enforce=False)
        transport.deposit_outbox(0, {1: "a massive payload" * 10})
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
        transport.deposit_outbox(0, {1: "hi"})
        assert transport.inbox_table[1] == {0: "hi"}
        assert transport.inbox_table[0] is None  # only receivers allocate
        box = transport.inbox_table[1]
        transport.end_round()
        assert transport.inbox_table[1] is None
        # The same dict object is recycled for the next receiver.
        transport.deposit_outbox(0, {1: "again"})
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
        for name in ("sync", "legacy", "active-set", "active"):
            engine = resolve_engine(name)
            assert isinstance(engine, SyncEngine) and engine.name == "sync"
        assert isinstance(resolve_engine(SyncEngine), SyncEngine)
        engine = SyncEngine()
        assert resolve_engine(engine) is engine
        with pytest.raises(ValueError):
            resolve_engine("warp-drive")
        with pytest.raises(TypeError):
            resolve_engine(42)  # type: ignore[arg-type]

    def test_non_neighbor_send_rejected(self):
        graph = nx.path_graph(4)

        class Rogue(NodeAlgorithm):
            def send(self, round_number):
                if self.node == 0:
                    return {3: "hi"}
                return {}

            def receive(self, round_number, inbox):
                self.halt()

        network = CongestNetwork(graph, id_seed=None)
        with pytest.raises(ValueError):
            Simulator(network, Rogue).run(max_rounds=2)

    def test_halted_nodes_are_skipped(self):
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
                           lambda node: HaltsAtOnce(stays=(node == stayer))
                           ).run(max_rounds=20)
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
    def _run_with(self, observers, *, engine="sync", n=40, seed=6):
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


# ------------------------------------------------- engine names from outside
#: The content address of every ``@active-set`` registry scenario, as the
#: scheduler plans it (cell built and solved with the task seed).  The
#: engine name comes from requests, stored provenance and these scenario
#: cells, so resolving it differently must never move a cache key.
ACTIVE_SET_PLAN_KEYS = {
    "regular-n24-d3/det-ruling-sim-k1@active-set": "23fca18704883f20e92a255e21f57be6",
    "er-n20/det-ruling-sim-k1@active-set": "5c0e4dbb39759c4bc087e4571bfbb6f1",
    "path-n16/det-ruling-sim-k1@active-set": "55cab660cfcd4984171d9f99edd28f9b",
    "tree-n18/det-ruling-sim-k1@active-set": "2b108c2901f36bf9eef7a7b26dcec1fe",
    "disconnected-n18/det-ruling-sim-k1@active-set": "9796c81a1d789b3f5ae0e06a39598314",
    "dense-core-6x3x5/det-ruling-sim-k1@active-set": "73f52ddc25f32a59209978b96d648477",
    "crown-m5/det-ruling-sim-k1@active-set": "360f36accec02f6104c7a3ea75db80fb",
    "regular-n64-d4/det-ruling-sim-k1@active-set": "d7c7129583920413d72e04bb07e4eaa2",
    "er-n48/det-ruling-sim-k1@active-set": "fb9f90bac9cb1d0c62027481b8c0b4df",
    "udg-n40/det-ruling-sim-k1@active-set": "2bb600d23a506bd9abc34e3f244ba6dd",
    "grid-8x8/det-ruling-sim-k1@active-set": "8372d3e248ae2a43ec218c3f6fb400aa",
    "tree-n40/det-ruling-sim-k1@active-set": "e4336de8c51b7d9db1fec7b258b42a8b",
    "caterpillar-10x3/det-ruling-sim-k1@active-set": "7b1fd7ef312dea4a782f2c7e115619a6",
    "cliques-6x4/det-ruling-sim-k1@active-set": "2d67bef47579c224ed77f961c2fbb8fd",
    "power-law-n48/det-ruling-sim-k1@active-set": "8bf7ff87301aa312de4197c517deedf6",
    "star-n33/det-ruling-sim-k1@active-set": "026c614ed085f41b05bf94eb0cc31170",
    "disconnected-n36/det-ruling-sim-k1@active-set": "9d042a0eef29003d88826412052069d7",
    "dense-core-10x5x6/det-ruling-sim-k1@active-set": "8c347f8d5557ab3ec953762aba34d8d6",
    "crown-m8/det-ruling-sim-k1@active-set": "497d22e86115dda85073942b4a7ebbc4",
}

#: Solves of ``regular-n24-d3`` (graph seed 5, solve seed 11) recorded with
#: ``engine="active-set"``: stored provenance, then output, rounds,
#: message and bit totals, peak and digest of the per-edge congestion, and
#: the certificate row.
RECORDED_ACTIVE_SET_SOLVES = {
    "det-ruling-sim": (
        {"algorithm": "det-ruling-sim", "problem": "mis-power",
         "config": {"engine": "active-set", "max_rounds": 10000}, "seed": 11,
         "seed_policy": "explicit", "graph_fingerprint": "4eea3b681d4035b0",
         "n": 24, "m": 36, "library_version": "1.2.0"},
        [0, 3, 4, 5, 8, 9, 18, 21, 23], 4, 108, 777, 5, "39e0a087e4fcc98c",
        {"problem": "mis-power", "ok": True, "checks": 4, "failures": []}),
    "luby-sim": (
        {"algorithm": "luby-sim", "problem": "mis-power",
         "config": {"engine": "active-set", "max_rounds": 10000}, "seed": 11,
         "seed_policy": "explicit", "graph_fingerprint": "4eea3b681d4035b0",
         "n": 24, "m": 36, "library_version": "1.2.0"},
        [1, 5, 7, 8, 9, 11, 15, 16, 20], 4, 111, 2064, 5, "59c877e328edc679",
        {"problem": "mis-power", "ok": True, "checks": 3, "failures": []}),
}


class TestActiveSetName:
    def test_registry_lists_exactly_the_pinned_scenarios(self):
        names = {scenario.name for scenario in DEFAULT_REGISTRY.scenarios()
                 if scenario.engine == "active-set"}
        assert names == set(ACTIVE_SET_PLAN_KEYS)

    @pytest.mark.parametrize("name", sorted(ACTIVE_SET_PLAN_KEYS))
    def test_plan_key_is_stable(self, name):
        scenario = DEFAULT_REGISTRY.scenario(name)
        seed = DEFAULT_REGISTRY.task_seed(scenario)
        graph = workload_graph(scenario.cell, seed)
        plan = REGISTRY.plan(graph, scenario.algorithm, seed=seed,
                             **scenario_config(scenario))
        assert key_for_plan(plan) == ACTIVE_SET_PLAN_KEYS[name]

    @pytest.mark.parametrize("algorithm", sorted(RECORDED_ACTIVE_SET_SOLVES))
    def test_recorded_solve_replays(self, algorithm):
        (row, output, rounds, messages, bits, peak, digest,
         certificate) = RECORDED_ACTIVE_SET_SOLVES[algorithm]
        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)
        report = repro.replay(graph, Provenance.from_row(row))
        counts = report.result.edge_message_counts
        assert sorted(report.output) == output
        assert report.rounds == rounds
        assert report.metrics["messages"] == messages
        assert report.metrics["bits"] == bits
        assert max(counts.values()) == peak
        assert hashlib.sha256(repr(sorted(counts.items())).encode()
                              ).hexdigest()[:16] == digest
        assert report.certificate.to_row() == certificate
        assert report.provenance.config_dict["engine"] == "active-set"
        assert all(report.metrics[key] == "sync" for key in
                   ("engine", "engine_requested", "engine_used"))
