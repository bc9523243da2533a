"""No registered algorithm mutates its input graph.

The serving stack hands one graph object per workload to every solve in a
process (``repro.service.scheduler.workload_graph``), and the fingerprint,
topology and ``G^k`` caches are keyed by that object's identity.  Both are
sound only while solves treat the graph as read-only, so every registered
algorithm is run here with its default config and the graph is compared --
iteration order and attribute dicts included -- before and after.
"""

from __future__ import annotations

import copy

import pytest

from repro.api import REGISTRY
from repro.scenarios.registry import DEFAULT_REGISTRY


def _state(graph):
    return (list(graph.nodes(data=True)), list(graph.edges(data=True)),
            dict(graph.graph))


@pytest.mark.parametrize("algorithm", REGISTRY.algorithm_names())
def test_solve_leaves_the_graph_untouched(algorithm):
    graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=0)
    before = copy.deepcopy(_state(graph))
    REGISTRY.solve(graph, algorithm, seed=1)
    assert _state(graph) == before
