"""Parity suite: every free function == its ``repro.solve`` counterpart.

For the same explicit seed, dispatching through the solver registry must be
bit-identical to calling the implementation module's free function with
``rng=random.Random(seed)`` (graph-level algorithms) or to a solo
``Simulator(CongestNetwork(graph, id_seed=seed), node, seed=seed).run()``
(simulator-native algorithms, whose registered ``run`` is a replica batch
of one) -- same output set, same charged/simulated rounds.

The whole module runs with ``DeprecationWarning`` promoted to an error, so
no code path a registered algorithm takes may lean on a deprecated API.
"""

from __future__ import annotations

import random

import pytest

from repro.api import REGISTRY, solve
from repro.congest.network import CongestNetwork
from repro.congest.simulator import Simulator
from repro.core.detsparsify import det_sparsification
from repro.core.power_sparsify import (
    power_graph_sparsification,
    power_graph_sparsification_low_diameter,
)
from repro.core.sampling import randomized_sparsification
from repro.decomposition.ball_graph import form_distance_k_ball_graph
from repro.decomposition.network_decomposition import network_decomposition
from repro.graphs.power import bounded_bfs
from repro.mis.beeping import BeepingMISNode, beeping_mis, beeping_mis_power
from repro.mis.kp12 import kp12_sparsify
from repro.mis.luby import LubyMISNode, luby_mis, luby_mis_power
from repro.mis.power_mis import power_graph_mis
from repro.mis.power_ruling import power_graph_ruling_set
from repro.mis.power_sim import PowerDetRulingNode, PowerLubyMISNode
from repro.mis.shattering import shattering_mis
from repro.ruling.aglp import aglp_ruling_set, id_based_ruling_set
from repro.ruling.det_ruling_set import deterministic_power_ruling_set
from repro.ruling.distributed import DetRulingSetNode
from repro.ruling.greedy import greedy_mis, greedy_ruling_set
from repro.scenarios.registry import DEFAULT_REGISTRY

#: No registered algorithm may route through a deprecated API.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

K = 2
CELLS = ("regular-n24-d3", "er-n20")
SEEDS = (0, 7)


def _ids(graph):
    return {node: index + 1
            for index, node in enumerate(sorted(graph.nodes(), key=str))}


def _simulated(factory):
    """``(output, rounds)`` of a solo sync ``Simulator`` run of ``factory``
    on the solve path's network for seed ``s``."""
    def legacy(graph, seed):
        result = Simulator(CongestNetwork(graph, id_seed=seed), factory,
                           seed=seed, engine="sync").run()
        joined = {node for node, member in result.outputs.items() if member}
        return joined, result.rounds
    return legacy


# Each case: (api algorithm, solve config, legacy(graph, seed) -> (output, rounds)).
PARITY_CASES = [
    ("luby", {}, lambda g, s: (lambda r: (r.mis, r.rounds))(
        luby_mis(g, rng=random.Random(s)))),
    ("luby-power", {"k": K}, lambda g, s: (lambda r: (r.mis, r.rounds))(
        luby_mis_power(g, K, rng=random.Random(s)))),
    ("beeping", {}, lambda g, s: (lambda r: (r.mis, r.rounds))(
        beeping_mis(g, rng=random.Random(s)))),
    ("beeping-power", {"k": K}, lambda g, s: (lambda r: (r.mis, r.rounds))(
        beeping_mis_power(g, K, rng=random.Random(s)))),
    ("shattering-mis", {}, lambda g, s: (lambda r: (r.mis, r.rounds))(
        shattering_mis(g, rng=random.Random(s)))),
    ("power-mis", {"k": K}, lambda g, s: (lambda r: (r.mis, r.rounds))(
        power_graph_mis(g, K, rng=random.Random(s)))),
    ("greedy-mis", {"k": K}, lambda g, s: (greedy_mis(g, K), 0)),
    ("power-ruling", {"k": K, "beta": 2},
     lambda g, s: (lambda r: (r.ruling_set, r.rounds))(
        power_graph_ruling_set(g, K, 2, rng=random.Random(s)))),
    ("det-power-ruling", {"k": K},
     lambda g, s: (lambda r: (r.ruling_set, r.rounds))(
        deterministic_power_ruling_set(g, K, rng=random.Random(s)))),
    ("aglp", {"k": K, "base": 2},
     lambda g, s: (lambda r: (r.ruling_set, r.rounds))(
        aglp_ruling_set(g, K, _ids(g), base=2))),
    ("id-ruling", {"k": K, "c": 2},
     lambda g, s: (lambda r: (r.ruling_set, r.rounds))(
        id_based_ruling_set(g, K, c=2))),
    ("greedy-ruling", {"alpha": 3}, lambda g, s: (greedy_ruling_set(g, 3), 0)),
    ("sparsify", {"k": K}, lambda g, s: (lambda r: (r.q, r.rounds))(
        power_graph_sparsification(g, K, rng=random.Random(s)))),
    ("sparsify-low-diameter", {"k": K}, lambda g, s: (lambda r: (r.q, r.rounds))(
        power_graph_sparsification_low_diameter(g, K, rng=random.Random(s)))),
    ("det-sparsify", {}, lambda g, s: (lambda r: (r.q, r.rounds))(
        det_sparsification(g, rng=random.Random(s)))),
    ("randomized-sparsify", {}, lambda g, s: (lambda r: (r.q, r.rounds))(
        randomized_sparsification(g, rng=random.Random(s)))),
    ("kp12-sparsify", {"k": K, "f": 4.0}, lambda g, s: (lambda r: (r.q, r.rounds))(
        kp12_sparsify(g, K, 4.0, rng=random.Random(s)))),
    ("det-ruling-sim", {"engine": "sync"}, _simulated(DetRulingSetNode)),
    ("luby-sim", {"engine": "sync"}, _simulated(LubyMISNode)),
    ("beeping-sim", {"engine": "sync"},
     _simulated(lambda node: BeepingMISNode(max_steps=200))),
    ("power-luby-sim", {"engine": "sync", "k": K},
     _simulated(lambda node: PowerLubyMISNode(K))),
    ("power-det-ruling-sim", {"engine": "sync", "k": K},
     _simulated(lambda node: PowerDetRulingNode(K))),
]


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "algorithm,config,legacy", PARITY_CASES,
    ids=[case[0] for case in PARITY_CASES])
def test_api_output_and_rounds_match_legacy(cell, seed, algorithm, config, legacy):
    graph = DEFAULT_REGISTRY.build_cell(cell, seed=5)
    report = solve(graph, algorithm, seed=seed, **config)
    expected_output, expected_rounds = legacy(graph, seed)
    assert report.output == expected_output, \
        f"{algorithm} on {cell} seed={seed}: outputs differ"
    assert report.rounds == expected_rounds, \
        f"{algorithm} on {cell} seed={seed}: rounds differ"
    assert report.provenance.seed == seed
    assert report.provenance.seed_policy == "explicit"


@pytest.mark.parametrize("seed", SEEDS)
def test_sparsify_sequence_parity(seed):
    graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)
    report = solve(graph, "sparsify", k=K, seed=seed)
    legacy = power_graph_sparsification(graph, K, rng=random.Random(seed))
    assert report.payload["sequence"] == [set(q) for q in legacy.sequence]


@pytest.mark.parametrize("seed", SEEDS)
def test_network_decomposition_parity(seed):
    graph = DEFAULT_REGISTRY.build_cell("er-n20", seed=5)
    report = solve(graph, "network-decomposition", seed=seed)
    legacy = network_decomposition(graph, separation=2, rng=random.Random(seed))
    assert report.output == {cluster.center for cluster in legacy.clusters}
    mine = report.payload["decomposition"]
    assert {frozenset(c.nodes) for c in mine.clusters} == \
        {frozenset(c.nodes) for c in legacy.clusters}
    assert mine.num_colors == legacy.num_colors


def test_ball_graph_parity():
    """The adapter composes exactly the legacy greedy-ruling + Lemma 8.3 path."""
    graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=5)
    report = solve(graph, "ball-graph", k=K, seed=0)
    rulers = greedy_ruling_set(graph, alpha=2 * K + 1, key=str)
    balls = {ruler: {ruler} for ruler in rulers}
    for node in graph.nodes():
        if node in rulers:
            continue
        distances = bounded_bfs(graph, [node], 2 * K)
        closest = min((distances[r], str(r), r) for r in rulers if r in distances)
        balls[closest[2]].add(node)
    legacy = form_distance_k_ball_graph(graph, balls, k=K, node_ids=_ids(graph))
    assert report.output == legacy.centers
    mine = report.payload["ball_graph"]
    assert mine.balls == legacy.balls
    assert set(mine.graph.edges()) == set(legacy.graph.edges())


def test_every_registered_algorithm_has_a_parity_case():
    """New registrations must be added to the parity table (or composed tests)."""
    covered = {case[0] for case in PARITY_CASES}
    covered |= {"network-decomposition", "ball-graph"}  # composed tests above
    assert covered == set(REGISTRY.algorithm_names())
