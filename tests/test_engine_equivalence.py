"""Cross-engine differential matrix: Sync x Vector.

The scheduling layer's contract is that every engine produces *identical*
results for the same seed -- outputs, round counts, message totals, bit
totals and per-edge congestion: :class:`VectorEngine` because its batched
numpy programs take the same values of the per-node RNG streams in the same
rounds and route the same traffic through the transport's aggregate
counters.

This suite locks the full matrix down for the simulator-native algorithm
families (randomized Luby MIS, BeepingMIS, BFS layering, the deterministic
ruling set) across a mixed workload sweep, several seeds, and the scenario
registry's engine-equivalence sample -- which by construction includes the
adversarial families (``disconnected-union``, ``dense-core-pendant``,
``bipartite-crown``).  Every assertion embeds a repro hint naming the
workload, seed and engine pair, so a red cell is immediately rerunnable.
"""

from __future__ import annotations

import pytest

from repro.congest import (
    CongestNetwork,
    Simulator,
    SyncEngine,
    VectorEngine,
)
from repro.congest.engine import Runtime, resolve_engine
from repro.congest.primitives import BFSLayering, LeaderElection
from repro.congest.vector_engine import ArrayKernel
from repro.graphs import erdos_renyi_graph, random_regular_graph, random_tree, unit_disk_graph
from repro.api import REGISTRY
from repro.mis.beeping import BeepingMISNode
from repro.mis.luby import LubyMISNode
from repro.mis.power_sim import PowerDetRulingNode, PowerLubyMISNode
from repro.ruling import is_mis_of_power_graph
from repro.ruling.distributed import DetRulingSetNode
from repro.scenarios import DEFAULT_REGISTRY

WORKLOADS = [
    ("regular", lambda seed: random_regular_graph(60, 4, seed=seed)),
    ("er", lambda seed: erdos_renyi_graph(50, expected_degree=5.0, seed=seed)),
    ("udg", lambda seed: unit_disk_graph(45, seed=seed)),
    ("tree", lambda seed: random_tree(40, seed=seed)),
]

SEEDS = [0, 7, 23]

#: The full engine matrix (name -> constructor); "sync" is the reference.
ENGINES = {
    "sync": SyncEngine,
    "vector": VectorEngine,
}


def _run_matrix(network: CongestNetwork, factory, *, seed: int = 0,
                max_rounds: int = 2_000):
    """One result per engine, same workload and seed."""
    return {name: Simulator(network, factory, seed=seed,
                            engine=engine).run(max_rounds)
            for name, engine in ENGINES.items()}


def _assert_matrix_equivalent(results, *, repro: str):
    """Every engine must agree with the sync reference, field by field.

    ``repro`` is the failing-seed hint embedded in each assertion message:
    it names the workload/seed so the exact cell can be rerun in isolation.
    """
    reference = results["sync"]
    for name, result in results.items():
        hint = f"engine {name!r} vs sync [{repro}]"
        assert result.outputs == reference.outputs, f"outputs differ: {hint}"
        assert result.rounds == reference.rounds, f"rounds differ: {hint}"
        assert result.total_messages == reference.total_messages, \
            f"message totals differ: {hint}"
        assert result.total_bits == reference.total_bits, \
            f"bit totals differ: {hint}"
        assert result.halted == reference.halted, f"halted flag differs: {hint}"
        assert result.edge_message_counts == reference.edge_message_counts, \
            f"per-edge congestion differs: {hint}"
        assert result.engine == name


class TestEngineMatrix:
    @pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_luby_mis(self, workload, seed):
        make = dict(WORKLOADS)[workload]
        graph = make(seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network, LubyMISNode, seed=seed)
        _assert_matrix_equivalent(
            results, repro=f"luby-mis workload={workload} seed={seed}")
        mis = {node for node, joined in results["sync"].outputs.items() if joined}
        assert is_mis_of_power_graph(graph, mis, 1)

    @pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_beeping_mis(self, workload, seed):
        make = dict(WORKLOADS)[workload]
        graph = make(seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network,
                              lambda node: BeepingMISNode(max_steps=300),
                              seed=seed)
        _assert_matrix_equivalent(
            results, repro=f"beeping-mis workload={workload} seed={seed}")

    @pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bfs_layering(self, workload, seed):
        make = dict(WORKLOADS)[workload]
        graph = make(seed)
        network = CongestNetwork(graph, id_seed=seed)
        source = next(iter(graph.nodes()))
        results = _run_matrix(
            network, lambda node: BFSLayering(is_source=(node == source)),
            seed=seed)
        _assert_matrix_equivalent(
            results, repro=f"bfs-layering workload={workload} seed={seed}")

    @pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_det_ruling_set(self, workload, seed):
        make = dict(WORKLOADS)[workload]
        graph = make(seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network, DetRulingSetNode)
        _assert_matrix_equivalent(
            results, repro=f"det-ruling-set workload={workload} seed={seed}")
        ruling_set = {node for node, joined in results["sync"].outputs.items()
                      if joined}
        assert is_mis_of_power_graph(graph, ruling_set, 1)

    @pytest.mark.parametrize("algorithm",
                             ["luby-sim", "det-ruling-sim", "beeping-sim"])
    def test_registry_solves_accept_engine_argument(self, algorithm):
        graph = random_regular_graph(40, 4, seed=3)
        reports = [REGISTRY.solve(graph, algorithm, seed=3, engine=engine)
                   for engine in ENGINES]
        assert len({frozenset(report.output) for report in reports}) == 1
        assert len({report.rounds for report in reports}) == 1
        assert [report.metrics["engine_used"] for report in reports] == list(ENGINES)

    def test_round_budget_algorithm_equivalent(self):
        # LeaderElection keeps every node active until the budget expires --
        # the degenerate case where the active set never shrinks (and the
        # vector engine must fall back, there being no registered program).
        graph = random_regular_graph(30, 4, seed=5)
        network = CongestNetwork(graph, id_seed=5)
        results = _run_matrix(
            network, lambda node: LeaderElection(rounds_budget=12), seed=5)
        _assert_matrix_equivalent(results, repro="leader-election seed=5")

    @pytest.mark.parametrize("max_rounds", [1, 2, 3, 5])
    def test_round_limit_equivalent(self, max_rounds):
        # Cutting the run off mid-step (odd max_rounds stops between the
        # priority and join halves of a step) must truncate identically.
        graph = random_regular_graph(30, 4, seed=9)
        network = CongestNetwork(graph, id_seed=9)
        results = _run_matrix(network, LubyMISNode, seed=9,
                              max_rounds=max_rounds)
        _assert_matrix_equivalent(
            results, repro=f"luby-mis truncated max_rounds={max_rounds}")
        assert results["sync"].rounds == max_rounds


class TestVectorPathSelection:
    """The vector engine must actually vectorize the supported algorithms --
    a silent permanent fallback would make the matrix vacuous."""

    def _runtime(self, factory, *, observers=()):
        network = CongestNetwork(random_regular_graph(20, 4, seed=1), id_seed=1)
        simulator = Simulator(network, factory, seed=1, observers=observers)
        for instance in simulator._instances:
            instance.initialize()
        from repro.congest.transport import Transport
        transport = Transport(simulator.topology,
                              bandwidth_bits=network.bandwidth_bits,
                              profile_slots=bool(simulator.observers))
        return Runtime(topology=simulator.topology, transport=transport,
                       instances=simulator._instances,
                       observers=tuple(simulator.observers))

    @pytest.mark.parametrize("factory", [
        LubyMISNode, DetRulingSetNode,
        lambda node: BeepingMISNode(max_steps=50),
        lambda node: PowerLubyMISNode(2),
        lambda node: PowerDetRulingNode(2),
    ], ids=["luby", "det-ruling", "beeping", "power-luby", "power-det-ruling"])
    def test_supported_algorithms_take_the_vector_path(self, factory):
        runtime = self._runtime(factory)
        assert VectorEngine.select_kernel(runtime) is not None

    def test_unsupported_algorithm_falls_back(self):
        runtime = self._runtime(lambda node: BFSLayering(is_source=False))
        assert VectorEngine.select_kernel(runtime) is None

    def test_observed_runs_fall_back(self):
        from repro.congest.observers import StatsObserver

        runtime = self._runtime(LubyMISNode, observers=(StatsObserver(),))
        assert VectorEngine.select_kernel(runtime) is None

    def test_half_duplex_falls_back(self):
        runtime = self._runtime(LubyMISNode)
        runtime.transport.half_duplex = True
        assert VectorEngine.select_kernel(runtime) is None

    def test_resolve_engine_knows_vector(self):
        assert isinstance(resolve_engine("vector"), VectorEngine)
        kernel = VectorEngine.select_kernel(self._runtime(LubyMISNode))
        assert issubclass(kernel, ArrayKernel)

    def test_observed_vector_run_matches_sync(self):
        # engine="vector" with observers attached silently falls back to
        # the scalar path -- and must still be bit-identical.
        from repro.congest.observers import StatsObserver

        network = CongestNetwork(random_regular_graph(24, 3, seed=2), id_seed=2)
        sync = Simulator(network, LubyMISNode, seed=2, engine="sync").run(500)
        observer = StatsObserver()
        vector = Simulator(network, LubyMISNode, seed=2, engine="vector",
                           observers=(observer,)).run(500)
        assert vector.outputs == sync.outputs
        assert vector.total_messages == sync.total_messages
        assert observer.result is not None


#: The registry's engine-equivalence sample: every cell that carries an
#: engine-equivalence-tagged scenario, which by construction spans the smoke
#: sweep including all three adversarial families.
REGISTRY_SAMPLE_CELLS = sorted(
    {scenario.cell for scenario in
     DEFAULT_REGISTRY.select(tags={"engine-equivalence"})})


class TestRegistryEngineMatrix:
    """Sync x Vector over the registry sample (incl. adversarial families).

    Identical outputs, rounds, message totals, bit totals and per-edge
    congestion are asserted cell by cell -- disconnected unions, dense cores
    with pendant paths and bipartite crowns included.  Assertion messages
    carry the cell name and seed as the failing-seed repro hint.
    """

    def test_sample_covers_adversarial_families(self):
        families = {DEFAULT_REGISTRY.cell(name).family
                    for name in REGISTRY_SAMPLE_CELLS}
        assert {"disconnected-union", "dense-core-pendant",
                "bipartite-crown"} <= families
        assert len(families) >= 5

    def test_sample_spans_both_engines(self):
        engines = {scenario.engine for scenario in
                   DEFAULT_REGISTRY.select(tags={"engine-equivalence"})}
        assert {"sync", "vector"} <= engines

    @pytest.mark.parametrize("cell_name", REGISTRY_SAMPLE_CELLS)
    @pytest.mark.parametrize("seed", [0, 13])
    def test_det_ruling_set_registry_sample(self, cell_name, seed):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network, DetRulingSetNode)
        _assert_matrix_equivalent(
            results, repro=f"det-ruling-set cell={cell_name} seed={seed}")
        ruling_set = {node for node, joined in results["sync"].outputs.items()
                      if joined}
        assert is_mis_of_power_graph(graph, ruling_set, 1)

    @pytest.mark.parametrize("cell_name", REGISTRY_SAMPLE_CELLS)
    @pytest.mark.parametrize("seed", [0, 13])
    def test_luby_mis_registry_sample(self, cell_name, seed):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network, LubyMISNode, seed=seed)
        _assert_matrix_equivalent(
            results, repro=f"luby-mis cell={cell_name} seed={seed}")
        mis = {node for node, joined in results["sync"].outputs.items() if joined}
        assert is_mis_of_power_graph(graph, mis, 1)

    @pytest.mark.parametrize("cell_name", REGISTRY_SAMPLE_CELLS)
    @pytest.mark.parametrize("seed", [0, 13])
    def test_beeping_mis_registry_sample(self, cell_name, seed):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network,
                              lambda node: BeepingMISNode(max_steps=300),
                              seed=seed)
        _assert_matrix_equivalent(
            results, repro=f"beeping-mis cell={cell_name} seed={seed}")

    @pytest.mark.parametrize("cell_name", REGISTRY_SAMPLE_CELLS)
    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_luby_mis_registry_sample(self, cell_name, seed, k):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network, lambda node: PowerLubyMISNode(k),
                              seed=seed)
        _assert_matrix_equivalent(
            results, repro=f"power-luby-mis cell={cell_name} seed={seed} k={k}")
        mis = {node for node, joined in results["sync"].outputs.items() if joined}
        assert is_mis_of_power_graph(graph, mis, k)

    @pytest.mark.parametrize("cell_name", REGISTRY_SAMPLE_CELLS)
    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("k", [2, 3])
    def test_power_det_ruling_registry_sample(self, cell_name, seed, k):
        graph = DEFAULT_REGISTRY.build_cell(cell_name, seed=seed)
        network = CongestNetwork(graph, id_seed=seed)
        results = _run_matrix(network, lambda node: PowerDetRulingNode(k))
        _assert_matrix_equivalent(
            results,
            repro=f"power-det-ruling cell={cell_name} seed={seed} k={k}")
        chosen = {node for node, joined in results["sync"].outputs.items()
                  if joined}
        assert is_mis_of_power_graph(graph, chosen, k)


class TestVectorProvenanceReplay:
    """A vector-engine report replays bit-for-bit on the sync engine."""

    @pytest.mark.parametrize("algorithm", ["det-ruling-sim", "luby-sim",
                                           "beeping-sim", "power-luby-sim",
                                           "power-det-ruling-sim"])
    def test_replay_across_engines_is_bit_identical(self, algorithm):
        from repro.api import replay, solve

        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)
        vector = solve(graph, algorithm, engine="vector")
        assert vector.provenance.config_dict["engine"] == "vector"
        replayed = replay(graph, vector.provenance, engine="sync")
        assert replayed.output == vector.output
        assert replayed.rounds == vector.rounds
        assert replayed.metrics["messages"] == vector.metrics["messages"]
        assert replayed.metrics["bits"] == vector.metrics["bits"]
        assert replayed.provenance.seed == vector.provenance.seed
        assert replayed.metrics["engine"] == "sync"
        assert vector.metrics["engine"] == "vector"

    @pytest.mark.parametrize("algorithm", ["det-ruling-sim", "luby-sim",
                                           "beeping-sim", "power-luby-sim",
                                           "power-det-ruling-sim"])
    def test_engine_choice_is_seed_neutral(self, algorithm):
        from repro.api import solve

        graph = DEFAULT_REGISTRY.build_cell("er-n20", seed=3)
        reports = {engine: solve(graph, algorithm, engine=engine)
                   for engine in ENGINES}
        seeds = {report.provenance.seed for report in reports.values()}
        assert len(seeds) == 1, \
            "the engine key must not leak into derived-seed material"
        outputs = {frozenset(report.output) for report in reports.values()}
        assert len(outputs) == 1
        assert len({report.rounds for report in reports.values()}) == 1

    def test_replay_rejects_non_seed_neutral_overrides(self):
        from repro.api import replay, solve

        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)
        report = solve(graph, "det-ruling-sim", engine="vector")
        with pytest.raises(TypeError, match="seed-neutral"):
            replay(graph, report.provenance, max_rounds=5)
