"""The array multi-source BFS behind the distance certificates, against the
per-node Python BFS it replaced.

``independence_radius``, ``domination_radius`` and the sparsification
checks' ``_distance_to_set`` now read one :func:`multi_source_bfs` over
``G``'s CSR.  The frozen copies below are the implementations they replaced
(one bounded BFS per member, a dict-based multi-source BFS); every radius
and distance must agree on random subsets and targets, on a disconnected
graph with isolated nodes, and on empty and singleton sets.
"""

from __future__ import annotations

import random
from collections import deque

import networkx as nx
import pytest

from repro.core.invariants import _distance_to_set
from repro.graphs import random_regular_graph
from repro.graphs.power import bounded_bfs, domination_distance, multi_source_bfs
from repro.ruling.verify import UNREACHABLE, domination_radius, independence_radius


def _old_independence_radius(graph, subset):
    subset = set(subset)
    if len(subset) < 2:
        return UNREACHABLE
    best = UNREACHABLE
    for node in subset:
        distances = bounded_bfs(graph, [node], min(best, graph.number_of_nodes()))
        for other, dist in distances.items():
            if other != node and other in subset and 0 < dist < best:
                best = dist
    return best


def _old_domination_radius(graph, subset, targets=None):
    subset = set(subset)
    targets = list(graph.nodes()) if targets is None else list(targets)
    if not targets:
        return 0
    if not subset:
        return UNREACHABLE
    distances = {node: 0 for node in subset if node in graph}
    frontier = deque(distances)
    while frontier:
        node = frontier.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                frontier.append(neighbor)
    return max(distances.get(node, UNREACHABLE) for node in targets)


def _old_distance_to_set(graph, targets):
    unreachable = graph.number_of_nodes() + 1
    distances = {node: unreachable for node in graph.nodes()}
    frontier = deque()
    for node in set(targets):
        if node in distances:
            distances[node] = 0
            frontier.append(node)
    while frontier:
        node = frontier.popleft()
        for neighbor in graph.neighbors(node):
            if distances[neighbor] > distances[node] + 1:
                distances[neighbor] = distances[node] + 1
                frontier.append(neighbor)
    return distances


def _disconnected():
    graph = nx.disjoint_union_all([nx.path_graph(9), nx.cycle_graph(7),
                                   random_regular_graph(20, 3, seed=5)])
    graph.add_nodes_from(["iso-a", "iso-b"])  # isolated, last in graph order
    graph.add_node(("iso", 0))
    return graph


GRAPHS = {
    "regular-n96-d4": random_regular_graph(96, 4, seed=2),
    "grid-7x7": nx.grid_2d_graph(7, 7),
    "disconnected": _disconnected(),
}


def _assert_agree(graph, subset, targets):
    assert independence_radius(graph, subset) == _old_independence_radius(graph, subset)
    assert domination_radius(graph, subset) == _old_domination_radius(graph, subset)
    assert (domination_radius(graph, subset, targets)
            == _old_domination_radius(graph, subset, targets))
    old = _old_distance_to_set(graph, subset)
    assert _distance_to_set(graph, subset).tolist() == [old[node] for node in graph.nodes()]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_random_subsets_and_targets(name, seed):
    graph = GRAPHS[name]
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for density in (0.03, 0.15, 0.5):
        subset = {node for node in nodes if rng.random() < density}
        targets = [node for node in nodes if rng.random() < 0.5]
        _assert_agree(graph, subset, targets)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_empty_and_singleton_sets(name):
    graph = GRAPHS[name]
    nodes = list(graph.nodes())
    for subset in (set(), {nodes[0]}, {nodes[-1]}):
        for targets in ([], [nodes[0]], nodes):
            _assert_agree(graph, subset, targets)


def test_disconnected_graph_radii_and_nearest_members():
    graph = GRAPHS["disconnected"]
    # One member per piece: no finite pair, and the isolated nodes are
    # beyond every member.
    subset = {0, 9, 16}
    assert independence_radius(graph, subset) == UNREACHABLE
    assert domination_radius(graph, subset) == UNREACHABLE
    assert domination_radius(graph, subset, targets=range(36)) == 8  # path end
    assert domination_distance(graph, subset) == graph.number_of_nodes() + 1
    distance, nearest = multi_source_bfs(graph, subset)
    labels = list(graph.nodes())
    for index, node in enumerate(labels):
        if isinstance(node, int) and node < 36:
            source = labels[nearest[index]]
            assert source in subset
            assert distance[index] == nx.shortest_path_length(graph, node, source)
        else:
            assert distance[index] == -1 and nearest[index] == -1


def test_members_outside_the_graph_are_ignored():
    graph = GRAPHS["grid-7x7"]
    assert domination_radius(graph, {(0, 0), "missing"}) == 12
    assert domination_radius(graph, {(0, 0)}, targets=["missing"]) == UNREACHABLE
