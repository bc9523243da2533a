"""Experiment F3 -- distance-k ball graphs (Figure 3, Lemma 8.3).

Figure 3 illustrates the distance-``k`` ball graph: balls around ruling-set
nodes are extended by disjoint borders so that balls within distance ``k`` of
each other in ``G`` become close in the virtual graph.  The benchmark builds
the construction on shattered residual graphs (the situation in which
Theorem 1.2 uses it) and measures:

* validity (disjoint extended balls, adjacency preservation),
* the number of ball-graph components vs. the number of residual components,
* the weak diameter of the balls (paper: ``O(k^2 log log n)`` from the
  ruling-set Steiner trees; our greedy partition gives ``O(k)``-radius balls).
"""

from __future__ import annotations

import math
import random
import sys

import pytest

from harness import delta_of, print_and_store
from repro.decomposition import form_distance_k_ball_graph
from repro.graphs import random_regular_graph
from repro.graphs.power import k_connected_components, nearest_ruler_balls
from repro.mis.beeping import BeepingMISProcess
from repro.ruling.greedy import greedy_ruling_set

EXPERIMENT_ID = "F3-figure3-ball-graph"


def shattered_instance(n: int, degree: int, k: int, seed: int):
    """Run a truncated pre-shattering pass to obtain undecided nodes B."""
    graph = random_regular_graph(n, degree, seed=seed)
    process = BeepingMISProcess(graph, set(graph.nodes()), k=k, rng=random.Random(seed))
    process.run(max(2, int(math.log2(degree ** k))))
    return graph, process.undecided


def build_ball_graph(graph, undecided, k: int):
    ruling = greedy_ruling_set(graph, alpha=5 * k + 1, targets=undecided)
    balls = nearest_ruler_balls(graph, undecided, ruling)
    return ruling, balls, form_distance_k_ball_graph(graph, balls, k=k, undecided=undecided)


def experiment_rows(configs=((300, 4, 2), (400, 4, 2), (300, 4, 3)), seed: int = 1
                    ) -> list[dict[str, object]]:
    import networkx as nx
    rows = []
    for n, degree, k in configs:
        graph, undecided = shattered_instance(n, degree, k, seed)
        if not undecided:
            rows.append({"n": n, "Delta": degree, "k": k, "|B|": 0, "note": "fully decided"})
            continue
        ruling, balls, ball_graph = build_ball_graph(graph, undecided, k)
        ball_graph.validate(graph)
        residual_components = k_connected_components(graph, undecided, k)
        ball_components = list(nx.connected_components(ball_graph.graph))
        rows.append({
            "n": n,
            "Delta": delta_of(graph),
            "k": k,
            "|B|": len(undecided),
            "|R| (ball centers)": len(ruling),
            "residual G^k components": len(residual_components),
            "ball-graph components": len(ball_components),
            "max ball weak diameter": ball_graph.weak_diameter(graph),
            "valid": True,
        })
    return rows


# --------------------------------------------------------------------------
# pytest entry points.
# --------------------------------------------------------------------------
def test_ball_graph_is_valid_on_shattered_instance():
    graph, undecided = shattered_instance(120, 6, 2, seed=5)
    if not undecided:
        pytest.skip("pre-shattering decided everything")
    _, _, ball_graph = build_ball_graph(graph, undecided, 2)
    ball_graph.validate(graph)


def test_ball_graph_components_refine_residual_components():
    """Every ball-graph component maps into a single residual G^k component
    (the converse need not hold, but components never merge across them)."""
    import networkx as nx
    graph, undecided = shattered_instance(140, 8, 2, seed=6)
    if not undecided:
        pytest.skip("pre-shattering decided everything")
    ruling, balls, ball_graph = build_ball_graph(graph, undecided, 2)
    residual = k_connected_components(graph, undecided, 2)
    component_of = {}
    for index, component in enumerate(residual):
        for node in component:
            component_of[node] = index
    for ball_component in nx.connected_components(ball_graph.graph):
        indices = {component_of[center] for center in ball_component}
        assert len(indices) == 1


def test_ball_graph_construction(benchmark):
    graph, undecided = shattered_instance(120, 6, 2, seed=7)
    if not undecided:
        pytest.skip("pre-shattering decided everything")
    result = benchmark(lambda: build_ball_graph(graph, undecided, 2))
    assert result[2].centers


def main() -> None:
    rows = experiment_rows()
    print_and_store(EXPERIMENT_ID, rows,
                    notes="Lemma 8.3: extended balls are disjoint and preserve distance-k "
                          "adjacency; components of the ball graph can be finished "
                          "independently in the post-shattering phase.")


if __name__ == "__main__":
    sys.exit(main())
