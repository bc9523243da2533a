"""Batched-replica runner: ``simulate_replicas`` == B independent solo runs.

The contract under test is bit-identity *per replica*: every
:class:`SimulationResult` returned by the batch runner must equal -- outputs,
rounds, message totals, bit totals, per-edge congestion, halted flag -- the
result of the corresponding solo ``Simulator(..., seed=s, engine="vector")``
run.  The suite covers every registered batch kernel, degenerate graphs,
the sequential fallback (with :class:`BatchFallbackWarning` observability),
the ``select_batch_kernel`` gate, and a hypothesis fuzz of the public
``repro.solve_batch`` against per-seed ``repro.solve``.
"""

from __future__ import annotations

import warnings

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.congest import CongestNetwork, Simulator
from repro.congest.batch import (
    BatchFallbackWarning,
    select_batch_kernel,
    simulate_replicas,
)
from repro.congest.observers import (
    RoundObserver,
    StatsObserver,
    ambient_observation,
)
from repro.congest.vector_engine import VectorFallbackWarning
from repro.mis.beeping import BeepingMISNode
from repro.mis.luby import LubyMISNode
from repro.mis.power_sim import PowerDetRulingNode, PowerLubyMISNode
from repro.ruling.distributed import DetRulingSetNode
from repro.scenarios.registry import DEFAULT_REGISTRY

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SEEDS = [3, 11, 29, 42, 64, 91, 106, 215]

#: Every node class with an array kernel.
FACTORIES = [
    pytest.param(LubyMISNode, id="luby"),
    pytest.param(DetRulingSetNode, id="det-ruling"),
    pytest.param(lambda node: BeepingMISNode(max_steps=64), id="beeping"),
    pytest.param(lambda node: PowerLubyMISNode(2), id="power-luby-k2"),
    pytest.param(lambda node: PowerDetRulingNode(2), id="power-det-ruling-k2"),
]

GRAPHS = [
    pytest.param(lambda: nx.random_regular_graph(4, 30, seed=1), id="regular"),
    pytest.param(lambda: nx.gnp_random_graph(24, 0.2, seed=2), id="gnp"),
    pytest.param(lambda: nx.complete_graph(12), id="complete"),
    pytest.param(lambda: nx.empty_graph(9), id="edgeless"),
    pytest.param(lambda: nx.disjoint_union_all(
        [nx.path_graph(6), nx.star_graph(5), nx.empty_graph(3)]),
        id="disconnected"),
    # Trailing isolated nodes after a degree->=2 node: the CSR's last
    # non-empty segment is followed by empty ones, the regression shape for
    # the batched reduceat (clamped starts truncated that segment).
    pytest.param(lambda: nx.disjoint_union_all(
        [nx.cycle_graph(8), nx.empty_graph(2)]), id="trailing-isolated"),
]


class _LubySubclass(LubyMISNode):
    """Same protocol, different class: kernels match the exact class only,
    so this one has none."""


def _solo_results(graph, factory, seeds, *, engine, max_rounds=10_000):
    return [Simulator(CongestNetwork(graph, id_seed=seed), factory,
                      seed=seed, engine=engine).run(max_rounds)
            for seed in seeds]


def _assert_bit_identical(batched, solo, hint):
    assert batched.outputs == solo.outputs, f"outputs diverge: {hint}"
    assert batched.rounds == solo.rounds, f"rounds diverge: {hint}"
    assert batched.total_messages == solo.total_messages, \
        f"message totals diverge: {hint}"
    assert batched.total_bits == solo.total_bits, \
        f"bit totals diverge: {hint}"
    assert batched.edge_message_counts == solo.edge_message_counts, \
        f"per-edge congestion diverges: {hint}"
    assert batched.halted == solo.halted, f"halted flag diverges: {hint}"


class TestSimulateReplicasBitIdentity:
    @pytest.mark.parametrize("make_graph", GRAPHS)
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_matches_solo_vector_runs(self, make_graph, factory):
        graph = make_graph()
        with warnings.catch_warnings():
            warnings.simplefilter("error", BatchFallbackWarning)
            batched = simulate_replicas(graph, factory, SEEDS,
                                        engine="vector")
        solo = _solo_results(graph, factory, SEEDS, engine="vector")
        assert len(batched) == len(SEEDS)
        for seed, b, s in zip(SEEDS, batched, solo):
            _assert_bit_identical(b, s, f"seed={seed}")
            assert b.engine == "vector"
            assert b.engine_used == "vector"

    def test_matches_solo_sync_runs(self):
        # The vector engine is itself bit-identical to sync, so the batch is
        # transitively sync-identical; lock that end-to-end anyway.
        graph = nx.random_regular_graph(3, 20, seed=7)
        batched = simulate_replicas(graph, LubyMISNode, SEEDS,
                                    engine="vector")
        solo = _solo_results(graph, LubyMISNode, SEEDS, engine="sync")
        for seed, b, s in zip(SEEDS, batched, solo):
            assert b.outputs == s.outputs, f"seed={seed}"
            assert b.rounds == s.rounds, f"seed={seed}"
            assert b.total_messages == s.total_messages, f"seed={seed}"
            assert b.total_bits == s.total_bits, f"seed={seed}"

    def test_single_replica_and_empty_seed_list(self):
        graph = nx.random_regular_graph(3, 12, seed=0)
        assert simulate_replicas(graph, LubyMISNode, []) == []
        [only] = simulate_replicas(graph, LubyMISNode, [5], engine="vector")
        [solo] = _solo_results(graph, LubyMISNode, [5], engine="vector")
        _assert_bit_identical(only, solo, "single replica")

    def test_network_factory_controls_id_assignment(self):
        graph = nx.random_regular_graph(3, 16, seed=4)
        networks = {seed: CongestNetwork(graph, id_seed=seed + 1000)
                    for seed in SEEDS[:4]}
        batched = simulate_replicas(
            graph, LubyMISNode, SEEDS[:4], engine="vector",
            network_factory=lambda seed: networks[seed])
        for seed, b in zip(SEEDS[:4], batched):
            solo = Simulator(networks[seed], LubyMISNode, seed=seed,
                             engine="vector").run(10_000)
            _assert_bit_identical(b, solo, f"custom network seed={seed}")

    def test_requires_graph_or_network_factory(self):
        with pytest.raises(ValueError, match="network_factory"):
            simulate_replicas(None, LubyMISNode, [1, 2])


class TestSequentialFallback:
    def test_unregistered_node_class_warns_and_stays_identical(self):
        graph = nx.random_regular_graph(4, 20, seed=3)
        factory = _LubySubclass
        with pytest.warns(BatchFallbackWarning, match="_LubySubclass"):
            batched = simulate_replicas(graph, factory, SEEDS[:4],
                                        engine="vector")
        solo = _solo_results(graph, factory, SEEDS[:4], engine="vector")
        for seed, b, s in zip(SEEDS[:4], batched, solo):
            _assert_bit_identical(b, s, f"fallback seed={seed}")

    def test_sync_engine_is_sequential_without_warning(self):
        graph = nx.random_regular_graph(3, 14, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BatchFallbackWarning)
            batched = simulate_replicas(graph, LubyMISNode, SEEDS[:3],
                                        engine="sync")
        solo = _solo_results(graph, LubyMISNode, SEEDS[:3], engine="sync")
        for seed, b, s in zip(SEEDS[:3], batched, solo):
            _assert_bit_identical(b, s, f"sync seed={seed}")
            assert b.engine == "sync"


class TestSelectBatchKernel:
    def _sims(self, factory, *, seeds=(0, 1), **kwargs):
        graph = nx.random_regular_graph(3, 12, seed=2)
        return [Simulator(CongestNetwork(graph, id_seed=seed), factory,
                          seed=seed, engine="vector", **kwargs)
                for seed in seeds]

    def test_selects_kernel_for_each_registered_class(self):
        for factory in (LubyMISNode, DetRulingSetNode,
                        lambda node: BeepingMISNode(max_steps=16),
                        lambda node: PowerLubyMISNode(2),
                        lambda node: PowerDetRulingNode(2)):
            assert select_batch_kernel(self._sims(factory)) is not None

    def test_rejects_unregistered_class(self):
        sims = self._sims(_LubySubclass)
        assert select_batch_kernel(sims) is None

    def test_rejects_observers(self):
        from repro.congest.simulator import RoundObserver

        class Probe(RoundObserver):
            def on_round(self, round_number, simulator):
                pass

        plain = self._sims(LubyMISNode, seeds=(0,))
        observed = self._sims(LubyMISNode, seeds=(1,),
                              observers=(Probe(),))
        assert select_batch_kernel(plain + observed) is None

    def test_rejects_half_duplex(self):
        sims = self._sims(LubyMISNode, half_duplex=True)
        assert select_batch_kernel(sims) is None

    def test_rejects_mixed_node_classes(self):
        sims = (self._sims(LubyMISNode, seeds=(0,))
                + self._sims(DetRulingSetNode, seeds=(1,)))
        assert select_batch_kernel(sims) is None

    def test_rejects_mismatched_topologies(self):
        small = nx.random_regular_graph(3, 12, seed=2)
        large = nx.random_regular_graph(3, 16, seed=2)
        sims = [Simulator(CongestNetwork(g, id_seed=0), LubyMISNode,
                          seed=0, engine="vector") for g in (small, large)]
        assert select_batch_kernel(sims) is None

    def test_rejects_empty(self):
        assert select_batch_kernel([]) is None

    def test_rejects_mixed_power_k(self):
        # Same class, different k: passes the selector's class gate but the
        # kernel's post-init supports() must refuse, and simulate_replicas
        # must recover via the sequential fallback, still bit-identical.
        import itertools

        graph = nx.random_regular_graph(3, 12, seed=2)
        n = graph.number_of_nodes()

        def make_factory():
            # The factory is invoked once per node, one simulator at a time,
            # so replica r gets k = 2 + (r % 2) regardless of rebuilds.
            calls = itertools.count()
            return lambda node: PowerLubyMISNode(2 + (next(calls) // n) % 2)

        factory = make_factory()
        sims = [Simulator(CongestNetwork(graph, id_seed=seed), factory,
                          seed=seed, engine="vector") for seed in (0, 1)]
        assert select_batch_kernel(sims) is not None  # class gate passes

        with pytest.warns(BatchFallbackWarning):
            batched = simulate_replicas(graph, make_factory(), [0, 1],
                                        engine="vector")
        solo = [Simulator(CongestNetwork(graph, id_seed=seed),
                          lambda node, k=k: PowerLubyMISNode(k),
                          seed=seed, engine="vector").run(10_000)
                for seed, k in ((0, 2), (1, 3))]
        for seed, b, s in zip((0, 1), batched, solo):
            _assert_bit_identical(b, s, f"mixed-k seed={seed}")


class _RunLevelProbe(RoundObserver):
    """A run-level-only observer: it may ride the array path."""

    vector_compatible = True

    def __init__(self) -> None:
        self.contexts = []
        self.results = []

    def on_run_start(self, context) -> None:
        self.contexts.append(context)

    def on_run_end(self, result) -> None:
        self.results.append(result)


class TestObservedSweeps:
    """Explicit and ambient observers follow the solo eligibility rule: an
    observed sweep either calls each replica's run-level hooks or runs the
    replicas as sequential solo runs."""

    def test_ambient_round_observer_falls_back_and_sees_every_round(self):
        graph = nx.random_regular_graph(4, 30, seed=1)
        observer = StatsObserver()
        with ambient_observation(observer):
            with pytest.warns(BatchFallbackWarning):
                batched = simulate_replicas(graph, LubyMISNode, [3, 4])
        solo = _solo_results(graph, LubyMISNode, [3, 4], engine="vector")
        for seed, b, s in zip((3, 4), batched, solo):
            _assert_bit_identical(b, s, f"observed seed={seed}")
        assert len(observer.history) == sum(r.rounds for r in batched)
        assert observer.result is batched[-1]

    @pytest.mark.parametrize("uniform", [False, True],
                             ids=["exact", "uniform"])
    def test_ambient_run_level_observer_sees_each_replica(self, uniform):
        graph = nx.random_regular_graph(4, 30, seed=1)
        probe = _RunLevelProbe()
        with ambient_observation(probe), warnings.catch_warnings():
            warnings.simplefilter("error", BatchFallbackWarning)
            batched = simulate_replicas(graph, LubyMISNode, [3, 4],
                                        uniform_factory=uniform)
        assert [r.engine_used for r in batched] == ["vector", "vector"]
        assert len(probe.contexts) == 2
        assert [c.engine for c in probe.contexts] == ["vector", "vector"]
        assert [c.topology.n for c in probe.contexts] == [30, 30]
        assert len(probe.results) == 2
        assert all(seen is result
                   for seen, result in zip(probe.results, batched))
        solo = _solo_results(graph, LubyMISNode, [3, 4], engine="vector")
        for seed, b, s in zip((3, 4), batched, solo):
            _assert_bit_identical(b, s, f"run-level observed seed={seed}")

    def test_selector_applies_ambient_observers(self):
        graph = nx.random_regular_graph(3, 12, seed=2)
        sims = [Simulator(CongestNetwork(graph, id_seed=seed), LubyMISNode,
                          seed=seed, engine="vector") for seed in (0, 1)]
        with ambient_observation(StatsObserver()):
            assert select_batch_kernel(sims) is None
        with ambient_observation(_RunLevelProbe()):
            assert select_batch_kernel(sims) is not None


#: The five simulator-native algorithms with their sweep configs.
SIM_ALGORITHMS = [
    ("luby-sim", {}),
    ("det-ruling-sim", {}),
    ("power-luby-sim", {"k": 2}),
    ("power-det-ruling-sim", {"k": 2}),
    ("beeping-sim", {}),
]


def _isolated_er_graph(first_isolated: bool) -> nx.Graph:
    """An ER graph whose first or last 9 labels are isolated."""
    graph = nx.gnp_random_graph(30, 0.2, seed=4)
    isolated = range(9) if first_isolated else range(21, 30)
    graph.remove_edges_from(list(graph.edges(isolated)))
    return graph


class TestSolveBatchAPI:
    @pytest.mark.parametrize("algorithm,config", SIM_ALGORITHMS)
    @pytest.mark.parametrize("engine", ["sync", "vector"])
    def test_batch_reports_equal_solo_reports(self, algorithm, config, engine):
        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)
        reports = repro.solve_batch(graph, algorithm, seeds=SEEDS,
                                    engine=engine, **config)
        assert len(reports) == len(SEEDS)
        for seed, report in zip(SEEDS, reports):
            solo = repro.solve(graph, algorithm, seed=seed, engine=engine,
                               **config)
            hint = f"{algorithm} engine={engine} seed={seed}"
            assert report.output == solo.output, hint
            assert report.rounds == solo.rounds, hint
            assert report.metrics == solo.metrics, hint
            assert report.provenance == solo.provenance, hint
            assert report.verified and solo.verified, hint

    @pytest.mark.parametrize("algorithm,config", SIM_ALGORITHMS)
    def test_empty_graph_warns_about_the_engine_not_the_batch(
            self, algorithm, config):
        """A solo vector solve on the empty graph falls back to the scalar
        engine once, and never reports a batch fallback."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.solve(nx.Graph(), algorithm, engine="vector", **config)
        categories = [warning.category for warning in caught]
        assert categories.count(VectorFallbackWarning) == 1, categories
        assert BatchFallbackWarning not in categories, categories

    @pytest.mark.parametrize("algorithm,config", SIM_ALGORITHMS)
    @pytest.mark.parametrize("engine", ["sync", "vector"])
    @pytest.mark.parametrize("make_graph", [
        pytest.param(lambda: _isolated_er_graph(True), id="er-first-isolated"),
        pytest.param(lambda: _isolated_er_graph(False), id="er-last-isolated"),
        pytest.param(lambda: nx.empty_graph(9), id="edgeless"),
    ])
    def test_batch_equals_solo_with_isolated_nodes(self, algorithm, config,
                                                   engine, make_graph):
        graph = make_graph()
        seeds = [1, 2, 3]
        reports = repro.solve_batch(graph, algorithm, seeds=seeds,
                                    engine=engine, **config)
        for seed, report in zip(seeds, reports):
            solo = repro.solve(graph, algorithm, seed=seed, engine=engine,
                               **config)
            hint = f"{algorithm} engine={engine} seed={seed}"
            assert report.output == solo.output, hint
            assert report.rounds == solo.rounds, hint
            assert report.metrics == solo.metrics, hint
            assert report.payload["node_ids"] == solo.payload["node_ids"], hint
            assert (dict(report.result.edge_message_counts)
                    == dict(solo.result.edge_message_counts)), hint
            assert report.certificate == solo.certificate, hint


@SETTINGS
@given(graph_seed=st.integers(min_value=0, max_value=2 ** 16),
       n=st.integers(min_value=2, max_value=28),
       p=st.floats(min_value=0.0, max_value=0.5),
       base_seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       replicas=st.integers(min_value=1, max_value=6),
       algorithm=st.sampled_from(["luby-sim", "power-luby-sim",
                                  "power-det-ruling-sim"]))
def test_fuzz_solve_batch_matches_per_seed_solve(graph_seed, n, p, base_seed,
                                                 replicas, algorithm):
    """Public-API fuzz: ``repro.solve_batch`` is per-replica bit-identical
    to B independent ``repro.solve`` calls for random graphs and seeds."""
    graph = nx.gnp_random_graph(n, p, seed=graph_seed)
    seeds = [base_seed + 7 * index for index in range(replicas)]
    config = {"k": 2} if "power" in algorithm else {}
    hint = f"{algorithm} gnp(n={n}, p={p:.3f}, seed={graph_seed})"
    reports = repro.solve_batch(graph, algorithm, seeds=seeds,
                                engine="vector", **config)
    for seed, report in zip(seeds, reports):
        solo = repro.solve(graph, algorithm, seed=seed, engine="vector",
                           **config)
        assert report.output == solo.output, f"{hint} seed={seed}"
        assert report.rounds == solo.rounds, f"{hint} seed={seed}"
        assert report.metrics == solo.metrics, f"{hint} seed={seed}"
        assert report.certificate == solo.certificate, f"{hint} seed={seed}"
