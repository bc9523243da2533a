"""Structure, determinism and selection of the scenario registry."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.api import REGISTRY
from repro.scenarios import (
    DEFAULT_REGISTRY,
    GraphFamily,
    ScenarioRegistry,
    default_registry,
)

ADVERSARIAL_FAMILIES = {"disconnected-union", "dense-core-pendant", "bipartite-crown"}

#: Every public generator of repro.graphs.generators must be reachable as a
#: registry family (workload_suite is a convenience wrapper, not a family).
GENERATOR_FAMILIES = {
    "regular", "er", "udg", "grid", "path", "star", "tree", "caterpillar",
    "ring-of-cliques", "power-law",
}


class TestRegistryContents:
    def test_every_generator_family_registered(self):
        names = set(DEFAULT_REGISTRY.family_names())
        assert GENERATOR_FAMILIES <= names
        assert ADVERSARIAL_FAMILIES <= names

    def test_adversarial_families_have_cells(self):
        for family in ADVERSARIAL_FAMILIES:
            assert DEFAULT_REGISTRY.cells(family=family), family

    def test_every_scenario_references_registered_objects(self):
        for scenario in DEFAULT_REGISTRY.scenarios():
            cell = DEFAULT_REGISTRY.cell(scenario.cell)
            DEFAULT_REGISTRY.family(cell.family)
            REGISTRY.algorithm(scenario.algorithm)

    def test_smoke_sweep_is_multi_family_and_adversarial(self):
        smoke = DEFAULT_REGISTRY.select(tags={"smoke"})
        families = {DEFAULT_REGISTRY.cell(s.cell).family for s in smoke}
        assert len(families) >= 5
        assert ADVERSARIAL_FAMILIES <= families
        algorithms = {s.algorithm for s in smoke}
        assert {"det-ruling-sim", "power-mis", "sparsify"} <= algorithms

    def test_benchmark_sweeps_are_registered(self):
        assert len(DEFAULT_REGISTRY.cells(tags={"table1"})) == 3
        assert len(DEFAULT_REGISTRY.cells(tags={"power-mis-delta"})) == 4
        assert len(DEFAULT_REGISTRY.cells(tags={"power-mis-n"})) == 3
        betas = sorted(s.param("beta") for s in
                       DEFAULT_REGISTRY.select(tags={"beta-tradeoff"}))
        assert betas == [1, 2, 3, 4]

    def test_default_registry_rebuilds_identically(self):
        # The parallel workers rebuild the registry on import; the scenario
        # names (the task addressing space) must be a pure function of code.
        fresh = default_registry()
        assert {s.name for s in fresh.scenarios()} == \
            {s.name for s in DEFAULT_REGISTRY.scenarios()}
        assert fresh.family_names() == DEFAULT_REGISTRY.family_names()


class TestDeterminism:
    def test_build_cell_deterministic(self):
        for cell in DEFAULT_REGISTRY.cells(tags={"smoke"}):
            first = DEFAULT_REGISTRY.build_cell(cell, seed=5)
            second = DEFAULT_REGISTRY.build_cell(cell, seed=5)
            assert nx.utils.graphs_equal(first, second), cell.name

    def test_build_graph_matches_cell(self):
        scenario = DEFAULT_REGISTRY.select(tags={"smoke"})[0]
        via_scenario = DEFAULT_REGISTRY.build_graph(scenario, seed=2)
        via_cell = DEFAULT_REGISTRY.build_cell(scenario.cell, seed=2)
        assert nx.utils.graphs_equal(via_scenario, via_cell)

    def test_task_seed_stable_and_distinct(self):
        scenarios = DEFAULT_REGISTRY.select(tags={"smoke"})[:4]
        seeds = {}
        for scenario in scenarios:
            for repeat in (0, 1):
                for base in (0, 1):
                    seed = DEFAULT_REGISTRY.task_seed(scenario, repeat=repeat,
                                                      base_seed=base)
                    assert seed == DEFAULT_REGISTRY.task_seed(
                        scenario, repeat=repeat, base_seed=base)
                    seeds[(scenario.name, repeat, base)] = seed
        assert len(set(seeds.values())) == len(seeds)

    def test_cell_key_embeds_seed(self):
        scenario = DEFAULT_REGISTRY.select(tags={"smoke"})[0]
        assert scenario.cell_key(7) == f"{scenario.name}|seed=7"


class TestRegistryAPI:
    def test_select_filters(self):
        by_algorithm = DEFAULT_REGISTRY.select(algorithm="power-mis")
        assert by_algorithm and all(s.algorithm == "power-mis" for s in by_algorithm)
        by_family = DEFAULT_REGISTRY.select(family="bipartite-crown")
        assert by_family and all(
            DEFAULT_REGISTRY.cell(s.cell).family == "bipartite-crown"
            for s in by_family)
        names = [s.name for s in by_algorithm[:2]]
        assert {s.name for s in DEFAULT_REGISTRY.select(names=names)} == set(names)
        assert len(DEFAULT_REGISTRY.select(limit=3)) == 3

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register_family(GraphFamily("path", nx.path_graph, seeded=False))
        with pytest.raises(ValueError):
            registry.register_family(GraphFamily("path", nx.path_graph, seeded=False))
        registry.register_cell("p8", "path", params={"n": 8})
        with pytest.raises(ValueError):
            registry.register_cell("p8", "path", params={"n": 8})

    def test_unknown_references_rejected(self):
        registry = ScenarioRegistry()
        with pytest.raises(KeyError):
            registry.register_cell("x", "no-such-family")
        registry.register_family(GraphFamily("path", nx.path_graph, seeded=False))
        registry.register_cell("p8", "path", params={"n": 8})
        with pytest.raises(KeyError):
            registry.add_scenario("p8", "no-such-algorithm")

    def test_unseeded_family_ignores_seed(self):
        first = DEFAULT_REGISTRY.build_cell("crown-m5", seed=1)
        second = DEFAULT_REGISTRY.build_cell("crown-m5", seed=99)
        assert nx.utils.graphs_equal(first, second)
