"""The array BeepingMIS step against the set-based process it replaced.

``_SetBeepingMISProcess`` is a frozen copy of the set-of-sets
implementation: each step draws one ``rng.random()`` per undecided node in
the iteration order of the ``undecided`` set, and the post-shattering phase
draws in the iteration order of ``mis`` and ``undecided``.  The array step
must therefore reproduce both sets *as lists* (same insertion history), the
step count and the generator state, on every shape the pipelines run it on.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import random_regular_graph
from tests.conftest import distance_neighborhood
from repro.mis.beeping import BeepingMISProcess


class _SetBeepingMISProcess:
    """The set-based BeepingMIS process, kept verbatim as the oracle."""

    def __init__(self, adjacency, *, candidates=None, rng=None,
                 initial_probability=0.5):
        self.adjacency = {node: set(neighbors) for node, neighbors in adjacency.items()}
        self.rng = rng or random.Random(0)
        all_nodes = set(self.adjacency)
        self.candidates = all_nodes if candidates is None else set(candidates) & all_nodes
        self.undecided = set(self.candidates)
        self.mis = set()
        self.probability = {node: initial_probability for node in self.candidates}
        self.initial_probability = initial_probability
        self.steps_run = 0

    def step(self):
        self.steps_run += 1
        marked = {node for node in self.undecided
                  if self.rng.random() < self.probability[node]}
        joined = set()
        for node in marked:
            if not (self.adjacency[node] & marked):
                joined.add(node)
        for node in self.undecided:
            if self.adjacency[node] & marked:
                self.probability[node] = self.probability[node] / 2.0
            else:
                self.probability[node] = min(self.initial_probability,
                                             2.0 * self.probability[node])
        self.mis |= joined
        decided = set(joined)
        for node in joined:
            decided |= self.adjacency[node]
        self.undecided -= decided
        return joined

    def run(self, steps):
        for _ in range(max(0, steps)):
            if not self.undecided:
                return
            self.step()


def _power_mapping(graph, k, keys):
    """``{v: N^k(v) ∩ keys}`` keyed in ``keys`` order (the replaced input)."""
    return {node: distance_neighborhood(graph, node, k, restrict_to=keys)
            for node in keys}


def _assert_same(new, old):
    assert list(new.mis) == list(old.mis)
    assert list(new.undecided) == list(old.undecided)
    assert new.steps_run == old.steps_run
    assert list(new.probability.items()) == list(old.probability.items())
    assert new.rng.random() == old.rng.random()


def _graphs():
    er = nx.gnp_random_graph(90, 0.06, seed=4)
    er.add_nodes_from([200, 201])  # isolated nodes
    return {
        "regular-n128-d6": random_regular_graph(128, 6, seed=1),
        "er-n90": er,
        "grid-9x9": nx.grid_2d_graph(9, 9),  # tuple labels
    }


GRAPHS = _graphs()


@pytest.mark.parametrize("steps", [3, 200])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_pre_shattering_on_all_nodes(name, k, seed, steps):
    graph = GRAPHS[name]
    nodes = set(graph.nodes())
    keys = set(nodes)
    old = _SetBeepingMISProcess(_power_mapping(graph, k, keys), candidates=nodes,
                                rng=random.Random(seed))
    new = BeepingMISProcess(graph, keys, k=k, candidates=nodes, rng=random.Random(seed))
    old.run(steps)
    new.run(steps)
    _assert_same(new, old)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_restricted_candidates(name, k, seed):
    """The power-ruling shape: an MIS of ``G^k[Q]`` over full ``G^k`` rows."""
    graph = GRAPHS[name]
    chooser = random.Random(100 + seed)
    nodes = {node for node in graph.nodes() if chooser.random() < 0.4}
    keys = set(nodes)
    old = _SetBeepingMISProcess(_power_mapping(graph, k, keys), candidates=nodes,
                                rng=random.Random(seed))
    new = BeepingMISProcess(graph, keys, k=k, candidates=nodes, rng=random.Random(seed))
    for _ in range(60):
        old.run(1)
        new.run(1)
        assert list(new.undecided) == list(old.undecided)
    _assert_same(new, old)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_finish_cluster_shape(name, k, seed):
    """No candidate set: the keys are a cluster, the rows restricted to it."""
    graph = GRAPHS[name]
    start = sorted(graph.nodes(), key=str)[seed * 7]
    cluster = set(nx.single_source_shortest_path_length(graph, start, cutoff=3))
    keys = set(cluster)
    old = _SetBeepingMISProcess(_power_mapping(graph, k, keys), rng=random.Random(seed))
    new = BeepingMISProcess(graph, keys, k=k, rng=random.Random(seed))
    old.run(12)
    new.run(12)
    _assert_same(new, old)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_shattering_on_g_and_its_components(name, seed):
    """k = 1: the whole graph, then every residual component."""
    graph = GRAPHS[name]
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes()}
    old = _SetBeepingMISProcess(adjacency, rng=random.Random(seed))
    new = BeepingMISProcess(graph, rng=random.Random(seed))
    old.run(2)
    new.run(2)
    _assert_same(new, old)
    for component in nx.connected_components(graph.subgraph(old.undecided)):
        component = set(component)
        subgraph = graph.subgraph(component)
        mapping = {node: set(subgraph.neighbors(node)) for node in component}
        old = _SetBeepingMISProcess(mapping, rng=random.Random(seed))
        new = BeepingMISProcess(graph, component, rng=random.Random(seed))
        old.run(3)
        new.run(3)
        _assert_same(new, old)
