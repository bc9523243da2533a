"""The simulator-native power protocols: MIS of ``G^k`` by k-hop flooding.

Covers the 2k-sub-round protocol semantics (validity, maximality, round
structure, relay halting), the scalar/vector equivalence of the registered
power programs, and the fallback observability satellite: ``engine_used``
in results and metrics, plus the ``VectorFallbackWarning`` raised when a
vector solve silently degrades to the scalar reference.
"""

from __future__ import annotations

import warnings

import networkx as nx
import pytest

from repro.congest import CongestNetwork, Simulator
from repro.congest.vector_engine import VectorFallbackWarning
from repro.mis.power_sim import PowerDetRulingNode, PowerLubyMISNode
from repro.ruling import is_mis_of_power_graph
from repro.ruling.verify import verify_ruling_set
from repro.scenarios.registry import DEFAULT_REGISTRY

ADVERSARIAL_CELLS = sorted(
    {scenario.cell for scenario in DEFAULT_REGISTRY.select(tags={"smoke"})
     if "adversarial" in DEFAULT_REGISTRY.cell(scenario.cell).tags})


def _joined(result) -> set:
    """The nodes whose output is ``True`` (the MIS of ``G^k``)."""
    return {node for node, joined in result.outputs.items() if joined}


class TestPowerProtocolSemantics:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_luby_output_is_mis_of_power_graph(self, k, seed):
        graph = nx.random_regular_graph(4, 30, seed=seed)
        network = CongestNetwork(graph, id_seed=seed)
        result = Simulator(network, lambda node: PowerLubyMISNode(k),
                           seed=seed).run()
        assert result.halted
        assert is_mis_of_power_graph(graph, _joined(result), k), \
            f"k={k} seed={seed}"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_det_ruling_output_is_kplus1_k_ruling_set(self, k):
        graph = nx.random_regular_graph(4, 30, seed=3)
        network = CongestNetwork(graph, id_seed=3)
        result = Simulator(network, lambda node: PowerDetRulingNode(k)).run()
        chosen = _joined(result)
        assert result.halted
        # MIS of G^k == (k+1, k)-ruling set of G.
        assert is_mis_of_power_graph(graph, chosen, k)
        report = verify_ruling_set(graph, chosen, alpha=k + 1, beta=k)
        assert report.ok, report

    @pytest.mark.parametrize("cell_name", ADVERSARIAL_CELLS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_adversarial_families(self, cell_name, k):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=1)
        network = CongestNetwork(graph, id_seed=1)
        luby = Simulator(network, lambda node: PowerLubyMISNode(k),
                         seed=1).run()
        assert is_mis_of_power_graph(graph, _joined(luby), k), \
            f"cell={cell_name} k={k}"
        ruling = Simulator(network, lambda node: PowerDetRulingNode(k)).run()
        assert is_mis_of_power_graph(graph, _joined(ruling), k)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_rounds_are_multiples_of_2k_per_step(self, k):
        # Every full step costs exactly 2k rounds; the run can only end on
        # a step boundary (all nodes halt at sub-round 2k or at sub-round k).
        graph = nx.random_regular_graph(3, 20, seed=2)
        network = CongestNetwork(graph, id_seed=2)
        result = Simulator(network, lambda node: PowerDetRulingNode(k)).run()
        assert result.rounds % k == 0
        assert result.rounds >= 2 * k

    def test_det_ruling_matches_greedy_by_id(self):
        # Phase-A minima are global ID minima first, so the protocol output
        # equals the centralized greedy MIS of G^k in increasing-ID order.
        graph = nx.random_regular_graph(4, 24, seed=9)
        k = 2
        network = CongestNetwork(graph, id_seed=9)
        chosen = _joined(
            Simulator(network, lambda node: PowerDetRulingNode(k)).run())
        from repro.graphs import power_graph

        power = power_graph(graph, k)
        expected: set = set()
        for node in sorted(graph.nodes(), key=network.node_id):
            if not any(nbr in expected for nbr in power.neighbors(node)):
                expected.add(node)
        assert chosen == expected

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            PowerLubyMISNode(0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            PowerDetRulingNode(-1)

    def test_empty_and_singleton_graphs(self):
        empty = nx.Graph()
        empty.add_nodes_from(range(4))
        network = CongestNetwork(empty, id_seed=0)
        result = Simulator(network, lambda node: PowerLubyMISNode(2)).run()
        assert _joined(result) == set(empty.nodes())  # no edges: everyone joins
        assert result.halted

    def test_truncated_run_decides_no_one(self):
        # Truncating before sub-round 2k=6 means no step ever completed, so
        # no node can have joined yet (finalize() still settles everyone to a
        # halted non-member state -- same contract as the base Luby sim).
        graph = nx.random_regular_graph(4, 30, seed=4)
        network = CongestNetwork(graph, id_seed=4)
        result = Simulator(network, lambda node: PowerLubyMISNode(3),
                           seed=4).run(max_rounds=2)
        assert result.rounds == 2
        assert _joined(result) == set()
        assert all(not joined for joined in result.outputs.values())


class TestFallbackObservability:
    def test_engine_used_matches_engine_when_vectorized(self):
        graph = nx.random_regular_graph(4, 24, seed=1)
        network = CongestNetwork(graph, id_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback warning expected
            result = Simulator(network, lambda node: PowerLubyMISNode(2),
                               seed=1, engine="vector").run()
        assert result.engine == "vector"
        assert result.engine_used == "vector"

    def test_sync_engine_reports_itself(self):
        graph = nx.random_regular_graph(4, 24, seed=1)
        network = CongestNetwork(graph, id_seed=1)
        result = Simulator(network, lambda node: PowerLubyMISNode(2),
                           seed=1, engine="sync").run()
        assert result.engine == "sync"
        assert result.engine_used == "sync"

    def test_unvectorizable_vector_run_warns_and_reports_sync(self):
        from repro.congest.primitives import BFSLayering

        graph = nx.random_regular_graph(4, 24, seed=1)
        network = CongestNetwork(graph, id_seed=1)
        source = next(iter(graph.nodes()))
        simulator = Simulator(network,
                              lambda node: BFSLayering(is_source=node == source),
                              seed=1, engine="vector")
        with pytest.warns(VectorFallbackWarning):
            result = simulator.run(2_000)
        assert result.engine == "vector"
        assert result.engine_used == "sync"

    def test_solve_metrics_surface_engine_used(self):
        import repro

        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)
        vector = repro.solve(graph, "power-luby-sim", k=2, seed=3,
                             engine="vector")
        assert vector.metrics["engine_requested"] == "vector"
        assert vector.metrics["engine_used"] == "vector"
        sync = repro.solve(graph, "power-luby-sim", k=2, seed=3)
        assert sync.metrics["engine_requested"] == "sync"
        assert sync.metrics["engine_used"] == "sync"
        assert sync.output == vector.output
