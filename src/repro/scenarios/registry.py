"""The scenario registry: named graph cells x algorithms.

The registry holds three kinds of objects:

* :class:`GraphFamily` -- a named graph generator (every generator of
  :mod:`repro.graphs.generators` plus the adversarial families);
* :class:`GraphCell` -- a family instantiated with concrete parameters
  (``regular-n128-d6`` is ``random_regular_graph(128, 6)``), the unit the
  benchmark sweeps iterate over;
* :class:`Scenario` -- a cell paired with an algorithm of
  :data:`repro.api.REGISTRY`, a power ``k``, an optional engine and
  algorithm parameters, the unit the batch runner executes;
  :func:`scenario_config` maps it onto the algorithm's typed config.

Cells and scenarios carry free-form *tags* (``smoke``, ``suite``,
``adversarial``, ``table1``, ...) used for selection: the CLI's ``--smoke``
is just ``select(tags={"smoke"})``; the Table-1 benchmark sweep is
``cells(tags={"table1"})``.

Everything is deterministic: graphs are built from an explicit integer seed
and the per-task seeds of the batch runner are derived with
:func:`repro.hashing.seeds.derive_seed` from the scenario name, so the same
registry + base seed always produces the same experiment, regardless of
worker count or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

import networkx as nx

from repro.api import REGISTRY as SOLVER_REGISTRY
from repro.graphs import generators
from repro.hashing.seeds import derive_seed

Node = Hashable

__all__ = [
    "DEFAULT_REGISTRY",
    "GraphCell",
    "GraphFamily",
    "Scenario",
    "ScenarioRegistry",
    "default_registry",
    "scenario_config",
]


def _params_tuple(params: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted((params or {}).items()))


@dataclass(frozen=True)
class GraphFamily:
    """A named, parameterised graph generator."""

    name: str
    builder: Callable[..., nx.Graph]
    seeded: bool = True
    description: str = ""

    def build(self, *, seed: int | None = None, **params: Any) -> nx.Graph:
        if self.seeded:
            return self.builder(seed=seed, **params)
        return self.builder(**params)


@dataclass(frozen=True)
class GraphCell:
    """A family with concrete parameters -- one point of a workload sweep."""

    name: str
    family: str
    params: tuple[tuple[str, Any], ...] = ()
    tags: frozenset[str] = frozenset()

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class Scenario:
    """A runnable workload: graph cell x algorithm x (k, engine, params)."""

    name: str
    cell: str
    algorithm: str
    k: int = 1
    engine: str | None = None
    params: tuple[tuple[str, Any], ...] = ()
    tags: frozenset[str] = frozenset()

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def param(self, key: str, default: Any = None) -> Any:
        return self.params_dict.get(key, default)

    def cell_key(self, seed: int) -> str:
        """The stable identity of one (scenario, seed) execution cell."""
        return f"{self.name}|seed={seed}"


def scenario_config(scenario: Scenario) -> dict[str, Any]:
    """The solver config a scenario maps onto, filtered to the keys its
    algorithm accepts: ``k`` and ``engine`` when accepted, then the
    accepted scenario params (``beta``, ...)."""
    allowed = SOLVER_REGISTRY.algorithm(scenario.algorithm).config_keys
    config: dict[str, Any] = {}
    if "k" in allowed:
        config["k"] = scenario.k
    if "engine" in allowed:
        config["engine"] = scenario.engine or "sync"
    for key, value in scenario.params:
        if key in allowed:
            config[key] = value
    return config


class ScenarioRegistry:
    """A mutable collection of families, cells and scenarios."""

    def __init__(self) -> None:
        self._families: dict[str, GraphFamily] = {}
        self._cells: dict[str, GraphCell] = {}
        self._scenarios: dict[str, Scenario] = {}

    # ------------------------------------------------------------ families
    def register_family(self, family: GraphFamily) -> GraphFamily:
        if family.name in self._families:
            raise ValueError(f"graph family {family.name!r} already registered")
        self._families[family.name] = family
        return family

    def family(self, name: str) -> GraphFamily:
        return self._families[name]

    def families(self) -> list[GraphFamily]:
        return list(self._families.values())

    def family_names(self) -> list[str]:
        return sorted(self._families)

    # --------------------------------------------------------------- cells
    def register_cell(self, name: str, family: str, *,
                      params: Mapping[str, Any] | None = None,
                      tags: Iterable[str] = ()) -> GraphCell:
        if family not in self._families:
            raise KeyError(f"unknown graph family {family!r}")
        if name in self._cells:
            raise ValueError(f"graph cell {name!r} already registered")
        cell = GraphCell(name=name, family=family, params=_params_tuple(params),
                         tags=frozenset(tags))
        self._cells[name] = cell
        return cell

    def cell(self, name: str) -> GraphCell:
        return self._cells[name]

    def cells(self, *, tags: Iterable[str] | None = None,
              family: str | None = None) -> list[GraphCell]:
        wanted = frozenset(tags or ())
        return [cell for cell in self._cells.values()
                if wanted <= cell.tags
                and (family is None or cell.family == family)]

    def build_cell(self, cell: GraphCell | str, *, seed: int = 0) -> nx.Graph:
        """Build the cell's graph (deterministic in ``seed``)."""
        if isinstance(cell, str):
            cell = self._cells[cell]
        return self._families[cell.family].build(seed=seed, **cell.params_dict)

    # ----------------------------------------------------------- scenarios
    def add_scenario(self, cell: str, algorithm: str, *, k: int = 1,
                     engine: str | None = None,
                     params: Mapping[str, Any] | None = None,
                     tags: Iterable[str] = (),
                     name: str | None = None) -> Scenario:
        if cell not in self._cells:
            raise KeyError(f"unknown graph cell {cell!r}")
        SOLVER_REGISTRY.algorithm(algorithm)  # KeyError names the known ones
        if name is None:
            suffix = "".join(f"-{key}{value}" for key, value in _params_tuple(params))
            engine_part = f"@{engine}" if engine else ""
            name = f"{cell}/{algorithm}-k{k}{suffix}{engine_part}"
        if name in self._scenarios:
            raise ValueError(f"scenario {name!r} already registered")
        scenario = Scenario(name=name, cell=cell, algorithm=algorithm, k=k,
                            engine=engine, params=_params_tuple(params),
                            tags=frozenset(tags))
        self._scenarios[name] = scenario
        return scenario

    def scenario(self, name: str) -> Scenario:
        return self._scenarios[name]

    def scenarios(self) -> list[Scenario]:
        return list(self._scenarios.values())

    def select(self, *, tags: Iterable[str] | None = None,
               family: str | None = None,
               algorithm: str | None = None,
               names: Iterable[str] | None = None,
               limit: int | None = None) -> list[Scenario]:
        """Scenarios matching every given filter (tags are a required subset)."""
        wanted = frozenset(tags or ())
        chosen_names = None if names is None else set(names)
        matched: list[Scenario] = []
        for scenario in self._scenarios.values():
            if chosen_names is not None and scenario.name not in chosen_names:
                continue
            if not wanted <= scenario.tags:
                continue
            if algorithm is not None and scenario.algorithm != algorithm:
                continue
            if family is not None and self._cells[scenario.cell].family != family:
                continue
            matched.append(scenario)
        if limit is not None:
            matched = matched[:max(0, limit)]
        return matched

    # --------------------------------------------------------------- tasks
    def build_graph(self, scenario: Scenario | str, *, seed: int = 0) -> nx.Graph:
        if isinstance(scenario, str):
            scenario = self._scenarios[scenario]
        return self.build_cell(scenario.cell, seed=seed)

    def task_seed(self, scenario: Scenario | str, *, repeat: int = 0,
                  base_seed: int = 0) -> int:
        """The deterministic per-task seed (stable across processes/runs)."""
        name = scenario if isinstance(scenario, str) else scenario.name
        return derive_seed("repro.scenarios", name, repeat, base_seed, bits=32)


# ---------------------------------------------------------------------------
# The default registry.
# ---------------------------------------------------------------------------

def _register_families(registry: ScenarioRegistry) -> None:
    seeded = {
        "regular": (generators.random_regular_graph,
                    "random degree-regular graph (Table-1 workload)"),
        "er": (generators.erdos_renyi_graph, "Erdos-Renyi G(n, p), patched connected"),
        "udg": (generators.unit_disk_graph, "random geometric / unit-disk graph"),
        "tree": (generators.random_tree, "uniformly random labelled tree"),
        "power-law": (generators.power_law_graph,
                      "configuration-model power-law degree sequence"),
        "disconnected-union": (generators.disconnected_union,
                               "adversarial: disjoint union of mixed-label pieces"),
    }
    unseeded = {
        "grid": (generators.grid_graph, "rows x cols grid (bounded growth)"),
        "path": (generators.path_graph, "path (extreme diameter)"),
        "star": (generators.star_graph, "star (extreme degree)"),
        "caterpillar": (generators.caterpillar_graph,
                        "spine with pendant legs (G^k degree blow-up)"),
        "ring-of-cliques": (generators.ring_of_cliques, "cliques joined in a ring"),
        "dense-core-pendant": (generators.dense_core_with_pendant_paths,
                               "adversarial: clique core with pendant paths"),
        "bipartite-crown": (generators.bipartite_crown,
                            "adversarial: K_{m,m} minus a perfect matching"),
    }
    for name, (builder, description) in seeded.items():
        registry.register_family(GraphFamily(name, builder, seeded=True,
                                             description=description))
    for name, (builder, description) in unseeded.items():
        registry.register_family(GraphFamily(name, builder, seeded=False,
                                             description=description))


def _register_cells(registry: ScenarioRegistry) -> None:
    # Tiny cells for the smoke sweep (CI) -- one per structural regime,
    # including every adversarial family.
    registry.register_cell("regular-n24-d3", "regular",
                           params={"n": 24, "degree": 3}, tags={"smoke", "suite"})
    registry.register_cell("er-n20", "er",
                           params={"n": 20, "expected_degree": 4.0},
                           tags={"smoke", "suite"})
    registry.register_cell("path-n16", "path", params={"n": 16}, tags={"smoke", "suite"})
    registry.register_cell("tree-n18", "tree", params={"n": 18}, tags={"smoke", "suite"})
    registry.register_cell("disconnected-n18", "disconnected-union",
                           params={"n": 18, "components": 3},
                           tags={"smoke", "suite", "adversarial"})
    registry.register_cell("dense-core-6x3x5", "dense-core-pendant",
                           params={"core": 6, "paths": 3, "path_length": 5},
                           tags={"smoke", "suite", "adversarial"})
    registry.register_cell("crown-m5", "bipartite-crown", params={"m": 5},
                           tags={"smoke", "suite", "adversarial"})

    # Medium cells: the general-purpose suite over every family.
    registry.register_cell("regular-n64-d4", "regular",
                           params={"n": 64, "degree": 4}, tags={"suite"})
    registry.register_cell("er-n48", "er",
                           params={"n": 48, "expected_degree": 5.0}, tags={"suite"})
    registry.register_cell("udg-n40", "udg", params={"n": 40}, tags={"suite"})
    registry.register_cell("grid-8x8", "grid", params={"rows": 8, "cols": 8},
                           tags={"suite"})
    registry.register_cell("star-n33", "star", params={"n": 33}, tags={"suite"})
    registry.register_cell("tree-n40", "tree", params={"n": 40}, tags={"suite"})
    registry.register_cell("caterpillar-10x3", "caterpillar",
                           params={"spine": 10, "legs_per_node": 3}, tags={"suite"})
    registry.register_cell("cliques-6x4", "ring-of-cliques",
                           params={"num_cliques": 6, "clique_size": 4}, tags={"suite"})
    registry.register_cell("power-law-n48", "power-law",
                           params={"n": 48, "exponent": 2.5}, tags={"suite"})
    registry.register_cell("disconnected-n36", "disconnected-union",
                           params={"n": 36, "components": 3},
                           tags={"suite", "adversarial"})
    registry.register_cell("dense-core-10x5x6", "dense-core-pendant",
                           params={"core": 10, "paths": 5, "path_length": 6},
                           tags={"suite", "adversarial"})
    registry.register_cell("crown-m8", "bipartite-crown", params={"m": 8},
                           tags={"suite", "adversarial"})

    # Benchmark sweep cells (consumed by benchmarks/bench_*.py).
    for n in (64, 128, 256):
        registry.register_cell(f"regular-n{n}-d6", "regular",
                               params={"n": n, "degree": 6},
                               tags={"table1"} | ({"power-mis-k"} if n == 128 else set()))
    for degree in (4, 8, 16, 32):
        tags = {"power-mis-delta"} | ({"power-mis-n"} if degree == 8 else set())
        registry.register_cell(f"regular-n192-d{degree}", "regular",
                               params={"n": 192, "degree": degree}, tags=tags)
    for n in (96, 384):
        registry.register_cell(f"regular-n{n}-d8", "regular",
                               params={"n": n, "degree": 8}, tags={"power-mis-n"})
    registry.register_cell("regular-n200-d12", "regular",
                           params={"n": 200, "degree": 12}, tags={"beta-tradeoff"})


def _register_scenarios(registry: ScenarioRegistry) -> None:
    smoke_cells = [cell.name for cell in registry.cells(tags={"smoke"})]

    # Simulator-native deterministic ruling set under both engine backends
    # (the scalar reference, also by its "active-set" alias, and the
    # vectorized array engine), everywhere.
    for cell in smoke_cells:
        for engine in ("sync", "active-set", "vector"):
            registry.add_scenario(cell, "det-ruling-sim", engine=engine,
                                  tags={"smoke", "engine-equivalence", "property"})

    # Simulator-native Luby on a structural cross-section.
    for cell in ("regular-n24-d3", "disconnected-n18", "crown-m5"):
        for engine in ("sync", "vector"):
            registry.add_scenario(cell, "luby-sim", engine=engine,
                                  tags={"smoke", "engine-equivalence", "property"})
    # BeepingMIS exercises the third vectorized program in the smoke sweep.
    registry.add_scenario("regular-n24-d3", "beeping-sim", engine="vector",
                          tags={"smoke", "engine-equivalence", "property"})

    # Simulator-native power-graph protocols (MIS of G^k by 2k-round k-hop
    # flooding) under both the scalar reference and the array engine.
    for cell in ("regular-n24-d3", "crown-m5"):
        for engine in ("sync", "vector"):
            registry.add_scenario(cell, "power-luby-sim", k=2, engine=engine,
                                  tags={"smoke", "engine-equivalence",
                                        "property"})
    for engine in ("sync", "vector"):
        registry.add_scenario("dense-core-6x3x5", "power-det-ruling-sim", k=2,
                              engine=engine,
                              tags={"smoke", "engine-equivalence", "property"})

    # Power-graph algorithms (k = 2) on the adversarial + regular smoke cells.
    for cell in ("regular-n24-d3", "dense-core-6x3x5", "crown-m5", "disconnected-n18"):
        registry.add_scenario(cell, "power-mis", k=2, tags={"smoke", "property"})
    registry.add_scenario("regular-n24-d3", "luby-power", k=2, tags={"smoke", "property"})
    registry.add_scenario("regular-n24-d3", "power-ruling", k=2,
                          params={"beta": 2}, tags={"smoke"})
    registry.add_scenario("er-n20", "det-power-ruling", k=2, tags={"smoke"})
    registry.add_scenario("regular-n24-d3", "sparsify", k=2,
                          tags={"smoke", "property"})

    # The medium suite: every algorithm over the suite cells it suits.
    for cell in ("regular-n64-d4", "er-n48", "udg-n40", "grid-8x8", "tree-n40",
                 "caterpillar-10x3", "cliques-6x4", "power-law-n48", "star-n33",
                 "disconnected-n36", "dense-core-10x5x6", "crown-m8"):
        registry.add_scenario(cell, "det-ruling-sim", engine="active-set",
                              tags={"suite", "property"})
        registry.add_scenario(cell, "power-mis", k=2, tags={"suite"})
    for cell in ("regular-n64-d4", "er-n48", "grid-8x8", "dense-core-10x5x6"):
        registry.add_scenario(cell, "luby-power", k=2, tags={"suite"})
        registry.add_scenario(cell, "sparsify", k=2, tags={"suite"})
    for beta in (2, 3):
        registry.add_scenario("regular-n64-d4", "power-ruling", k=2,
                              params={"beta": beta}, tags={"suite"})
    registry.add_scenario("regular-n64-d4", "det-power-ruling", k=2, tags={"suite"})

    # The beta trade-off sweep (bench_ruling_beta_tradeoff sources BETAS here).
    for beta in (1, 2, 3, 4):
        registry.add_scenario("regular-n200-d12", "power-ruling", k=2,
                              params={"beta": beta}, tags={"beta-tradeoff"})

    # The power-MIS k sweep (bench_power_mis sources the k dimension here).
    for k in (1, 2, 3):
        registry.add_scenario("regular-n128-d6", "power-mis", k=k,
                              tags={"power-mis-k"})


def default_registry() -> ScenarioRegistry:
    """Build a fresh copy of the default registry."""
    registry = ScenarioRegistry()
    _register_families(registry)
    _register_cells(registry)
    _register_scenarios(registry)
    return registry


#: The shared default registry (workers rebuild it on import, so its contents
#: must stay a pure function of the library code).
DEFAULT_REGISTRY = default_registry()
