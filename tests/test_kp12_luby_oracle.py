"""KP12, Luby and the KP12 ruling chain against the set-based code they replaced.

``_set_kp12`` and ``_set_luby`` are frozen copies of the implementations
that ran over a ``{v: N^k(v) ∩ X}`` mapping of label sets.  Both draw per
node in the iteration order of Python sets (``active`` for the KP12 coin
flips, ``undecided`` for the Luby priorities), and later stages draw in the
order of the sets they return.  The row-based code must therefore
reproduce ``q`` and ``mis`` *as lists* (same insertion history), the stage
and step counts, the ledger and the generator state, on every shape the
solvers run: all nodes, restricted candidates, tuple labels (grid),
colliding hashes, isolated nodes and self-loops (which add no neighbour: a
row never lists its own node, at ``k = 1`` as at every ``k``).
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.congest.cost import RoundLedger
from repro.core.events import log_n
from repro.graphs import random_regular_graph
from repro.mis.kp12 import kp12_sparsify
from repro.mis.luby import PRIORITY_EXPONENT, luby_mis, luby_mis_power
from repro.mis.power_mis import power_graph_mis
from repro.mis.power_ruling import kp12_schedule, power_graph_ruling_set
from tests.conftest import distance_neighborhood


def _set_kp12(adjacency, f, n, *, rng, ledger, rounds_per_stage=1):
    """The mapping-based KP12 pass, kept verbatim as the oracle."""
    f = max(2.0, float(f))
    nodes = set(adjacency)
    delta_h = max((len(neighbors) for neighbors in adjacency.values()), default=0)
    delta_h = max(1, delta_h)
    logn = log_n(n)

    stages = max(1, math.ceil(math.log(max(2.0, delta_h / logn), f)))
    active = set(nodes)
    q = set()

    for stage in range(1, stages + 1):
        if not active:
            break
        probability = min(1.0, (f ** stage) * logn / delta_h)
        sampled = {node for node in active if rng.random() < probability}
        q |= sampled
        decided = set(sampled)
        for node in sampled:
            decided |= adjacency[node] & active
        active -= decided
        ledger.charge(rounds_per_stage, label=f"kp12-stage-{stage}")

    q |= active
    return q, stages


def _set_luby(adjacency, rng, priority_space):
    """The mapping-based Luby loop, kept verbatim as the oracle."""
    undecided = set(adjacency)
    mis = set()
    steps = 0
    while undecided:
        steps += 1
        priorities = {node: (rng.randrange(priority_space), str(node)) for node in undecided}
        winners = set()
        for node in undecided:
            neighbors = adjacency[node] & undecided
            if all(priorities[node] < priorities[other] for other in neighbors):
                winners.add(node)
        mis |= winners
        decided = set(winners)
        for node in winners:
            decided |= adjacency[node]
        undecided -= decided
    return mis, steps


def _power_mapping(graph, k, keys):
    """``{v: N^k(v) ∩ keys}`` keyed in ``keys`` order (the replaced input)."""
    return {node: distance_neighborhood(graph, node, k, restrict_to=keys)
            for node in keys}


def _space(graph):
    return max(2, graph.number_of_nodes()) ** PRIORITY_EXPONENT


class _TieRandom(random.Random):
    """Priorities from ``{0, 1, 2}``: ties are common, so the ``str(node)``
    tie-break decides most comparisons."""

    def randrange(self, *args):
        return super().randrange(3)


def _looped_graph():
    """An ER graph with self-loops: on a hub joined to every third node,
    on two ordinary nodes and on an otherwise isolated node."""
    graph = nx.gnp_random_graph(60, 0.08, seed=5)
    graph.add_edges_from((99, node) for node in range(0, 60, 3))
    graph.add_edges_from([(99, 99), (4, 4), (17, 17), (300, 300)])
    return graph


def _graphs():
    er = nx.gnp_random_graph(90, 0.06, seed=4)
    er.add_nodes_from([200, 201])  # isolated nodes
    return {
        "regular-n128-d6": random_regular_graph(128, 6, seed=1),
        "er-n90": er,
        "grid-8x8": nx.grid_2d_graph(8, 8),  # tuple labels
        # Labels sharing their low hash bits: set layouts, hence draw
        # orders, depend on how each set was built.
        "regular-n128-d6-x1024": nx.relabel_nodes(random_regular_graph(128, 6, seed=2),
                                                  lambda node: 1024 * node),
        "looped": _looped_graph(),
    }


GRAPHS = _graphs()


def _subset(graph, seed):
    chooser = random.Random(100 + seed)
    return {node for node in graph.nodes() if chooser.random() < 0.4}


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("f", [2.0, 4.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_kp12(name, k, seed, f, restricted):
    graph = GRAPHS[name]
    candidates = _subset(graph, seed) if restricted else None
    nodes = set(graph.nodes()) if candidates is None else set(candidates)
    old_rng, old_ledger = random.Random(seed), RoundLedger()
    q, stages = _set_kp12(_power_mapping(graph, k, nodes), f, graph.number_of_nodes(),
                          rng=old_rng, ledger=old_ledger, rounds_per_stage=k)
    new_rng = random.Random(seed)
    # The pass draws in its candidates' order; the mapping was keyed by a
    # set of them (``nodes``), the set the removed power wrapper built.
    result = kp12_sparsify(graph, k, f, candidates=None if candidates is None else nodes,
                           rng=new_rng)
    assert list(result.q) == list(q)
    assert result.stages == stages
    assert result.ledger.rounds_by_label() == old_ledger.rounds_by_label()
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("rng_class", [random.Random, _TieRandom])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_luby_on_g(name, seed, rng_class):
    graph = GRAPHS[name]
    old_rng = rng_class(seed)
    mis, steps = _set_luby({node: set(graph.neighbors(node)) - {node}
                            for node in graph.nodes()}, old_rng, _space(graph))
    new_rng = rng_class(seed)
    result = luby_mis(graph, rng=new_rng)
    assert list(result.mis) == list(mis)
    assert result.steps == steps
    assert result.rounds == 2 * steps
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("rng_class", [random.Random, _TieRandom])
@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_luby_on_power_graph(name, k, seed, restricted, rng_class):
    graph = GRAPHS[name]
    candidates = _subset(graph, seed) if restricted else None
    nodes = set(graph.nodes()) if candidates is None else set(candidates)
    old_rng = rng_class(seed)
    mis, steps = _set_luby(_power_mapping(graph, k, nodes), old_rng, _space(graph))
    new_rng = rng_class(seed)
    result = luby_mis_power(graph, k, rng=new_rng, candidates=candidates)
    assert list(result.mis) == list(mis)
    assert result.steps == steps
    assert result.rounds == 2 * k * steps
    assert new_rng.random() == old_rng.random()


def _set_power_ruling(graph, k, beta, rng):
    """The Corollary 1.3 chain as it ran over intersected mappings."""
    ledger = RoundLedger()
    n = max(2, graph.number_of_nodes())
    candidates = set(graph.nodes())
    chain_sizes = [len(candidates)]
    adjacency = _power_mapping(graph, k, candidates)
    delta_k = max((len(neighbors) for neighbors in adjacency.values()), default=1)
    for f in kp12_schedule(delta_k, beta):
        candidates, _ = _set_kp12(adjacency, f, n, rng=rng, ledger=ledger,
                                  rounds_per_stage=k)
        chain_sizes.append(len(candidates))
        adjacency = {node: adjacency[node] & candidates for node in candidates}
    mis = power_graph_mis(graph, k, candidates=candidates, rng=rng, ledger=ledger).mis
    return mis, chain_sizes, ledger


@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_power_ruling_chain(name, k, seed, beta):
    graph = GRAPHS[name]
    old_rng = random.Random(seed)
    mis, chain_sizes, old_ledger = _set_power_ruling(graph, k, beta, old_rng)
    new_rng = random.Random(seed)
    result = power_graph_ruling_set(graph, k, beta, rng=new_rng)
    assert list(result.ruling_set) == list(mis)
    assert result.chain_sizes == chain_sizes
    assert result.ledger.rounds_by_label() == old_ledger.rounds_by_label()
    assert new_rng.random() == old_rng.random()
