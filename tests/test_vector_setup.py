"""What the array path of the simulator builds before its first round.

* A vector solve of a simulator-native algorithm, solo or as a seed sweep,
  builds none of the scalar engines' per-node tables (``routes``,
  ``neighbor_labels`` and the rest of ``_SIMULATOR_TABLES``), not even
  when its per-edge congestion is read; a sync solve builds them.
* A replica's :class:`~repro.congest.vector_engine._DrawTable` yields, for
  every node, exactly the successive draws of that node's
  ``random.Random(f"{seed}:{id}")`` stream, before and after the node
  runs past its pre-drawn head.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import REGISTRY
from repro.congest.topology import _SIMULATOR_TABLES, _structure_of
from repro.congest.vector_engine import _DrawTable

SIM_ALGORITHMS = ["det-ruling-sim", "luby-sim", "beeping-sim",
                  "power-luby-sim", "power-det-ruling-sim"]


def _built_tables(graph) -> set[str]:
    """The ``_SIMULATOR_TABLES`` slots of ``graph``'s structure that are
    set (a plain ``getattr`` would build them)."""
    structure = _structure_of(graph)
    built = set()
    for name in _SIMULATOR_TABLES:
        try:
            object.__getattribute__(structure, name)
        except AttributeError:
            continue
        built.add(name)
    return built


def _fresh_graph() -> nx.Graph:
    return nx.random_regular_graph(4, 40, seed=5)


@pytest.mark.parametrize("algorithm", SIM_ALGORITHMS)
def test_vector_solve_builds_no_simulator_tables(algorithm):
    graph = _fresh_graph()
    report = REGISTRY.solve(graph, algorithm, engine="vector")
    assert report.ok and report.metrics["engine_used"] == "vector"
    assert dict(report.result.edge_message_counts)
    assert _built_tables(graph) == set()


@pytest.mark.parametrize("algorithm", SIM_ALGORITHMS)
def test_vector_batch_builds_no_simulator_tables(algorithm):
    graph = _fresh_graph()
    reports = REGISTRY.solve_batch(graph, algorithm, seeds=[1, 2, 3],
                                   engine="vector")
    for report in reports:
        assert report.ok and report.metrics["engine_used"] == "vector"
        assert dict(report.result.edge_message_counts)
    assert _built_tables(graph) == set()


@pytest.mark.parametrize("algorithm", SIM_ALGORITHMS)
def test_sync_solve_builds_simulator_tables(algorithm):
    graph = _fresh_graph()
    vector = REGISTRY.solve(graph, algorithm, engine="vector", seed=7)
    sync = REGISTRY.solve(graph, algorithm, engine="sync", seed=7)
    assert _built_tables(graph) == set(_SIMULATOR_TABLES)
    # The CSR's canonical edge arrays list the edges in the route tables'
    # edge-index order, so both engines label their congestion alike.
    structure = _structure_of(graph)
    arrays = structure.numpy_arrays()
    assert structure.edge_endpoints == list(zip(arrays.edge_u.tolist(),
                                                arrays.edge_v.tolist()))
    assert vector.result.edge_message_counts == sync.result.edge_message_counts


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1),
       congest_ids=st.lists(st.integers(0, 2 ** 40), min_size=1,
                            max_size=5),
       n=st.one_of(st.none(), st.integers(1, 10 ** 5)),
       head_draws=st.integers(1, 8),
       data=st.data())
def test_draw_table_matches_seeded_streams(seed, congest_ids, n, head_draws,
                                           data):
    space = None if n is None else n ** 3
    draw_counts = data.draw(st.lists(
        st.integers(0, 4 * head_draws), min_size=len(congest_ids),
        max_size=len(congest_ids)), label="draw_counts")
    table = _DrawTable(seed, congest_ids, space, head_draws)
    references = [random.Random(f"{seed}:{congest_id}")
                  for congest_id in congest_ids]
    for draw_round in range(max(draw_counts)):
        indices = np.array([node for node, count in enumerate(draw_counts)
                            if draw_round < count])
        expected = [references[node].random() if space is None
                    else references[node].randrange(space)
                    for node in indices]
        assert table.draw(indices).tolist() == expected, (
            f"seed={seed} ids={congest_ids} space={space} "
            f"head_draws={head_draws} round={draw_round}")
    # Only the nodes that ran past the head hold a generator.
    assert sorted(table.tails) == [node for node, count
                                   in enumerate(draw_counts)
                                   if count > head_draws]
