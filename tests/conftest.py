"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import (
    caterpillar_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    random_tree,
    unit_disk_graph,
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def small_regular_graph() -> nx.Graph:
    """A 4-regular graph on 40 nodes -- the default workload for unit tests."""
    return random_regular_graph(40, 4, seed=7)


@pytest.fixture
def medium_regular_graph() -> nx.Graph:
    """A 6-regular graph on 90 nodes -- used by the heavier integration tests."""
    return random_regular_graph(90, 6, seed=11)


@pytest.fixture
def er_graph() -> nx.Graph:
    return erdos_renyi_graph(60, expected_degree=5.0, seed=3)


@pytest.fixture
def tree_graph() -> nx.Graph:
    return random_tree(50, seed=5)


@pytest.fixture
def path_graph_20() -> nx.Graph:
    return path_graph(20)


@pytest.fixture
def grid_5x8() -> nx.Graph:
    return grid_graph(5, 8)


@pytest.fixture
def caterpillar() -> nx.Graph:
    return caterpillar_graph(spine=10, legs_per_node=4)


@pytest.fixture
def udg_graph() -> nx.Graph:
    return unit_disk_graph(50, seed=2)


def graph_zoo(seed: int = 0) -> list[tuple[str, nx.Graph]]:
    """A small named collection of diverse graphs for parametrised tests."""
    return [
        ("regular", random_regular_graph(36, 4, seed=seed)),
        ("er", erdos_renyi_graph(40, expected_degree=4.0, seed=seed)),
        ("tree", random_tree(30, seed=seed)),
        ("path", path_graph(25)),
        ("grid", grid_graph(5, 6)),
        ("caterpillar", caterpillar_graph(8, 3)),
    ]


def distance_neighborhood(graph: nx.Graph, source, s: int,
                          restrict_to=None) -> set:
    """Reference ``N^s(v)`` (``∩ X`` when ``restrict_to`` is given): one BFS
    from ``source``, which is never included.  The per-source oracle that
    the library's ``G^s`` CSR rows and set-source BFS are checked against."""
    reachable = set(nx.single_source_shortest_path_length(graph, source, cutoff=s))
    reachable.discard(source)
    if restrict_to is not None:
        reachable &= set(restrict_to)
    return reachable
