"""Graph substrate: generators, power graphs, gadgets and property helpers.

Everything in the library operates on plain :class:`networkx.Graph` instances
whose nodes are hashable identifiers (the CONGEST layer assigns O(log n)-bit
IDs on top of them).  This subpackage bundles:

* :mod:`repro.graphs.generators` -- workload graph families used by the
  benchmark harness (random regular, Erdos-Renyi, unit disk, grids, trees,
  caterpillars, power-law).
* :mod:`repro.graphs.power` -- power graph ``G^k`` construction, its cached
  CSR rows and the set-source BFS (Section 2 of the paper).
* :mod:`repro.graphs.gadgets` -- the lower-bound / illustration gadgets from
  the paper (Figure 1).
* :mod:`repro.graphs.properties` -- degree / diameter / connectivity helpers.
"""

from repro.graphs.generators import (
    bipartite_crown,
    caterpillar_graph,
    dense_core_with_pendant_paths,
    disconnected_union,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    power_law_graph,
    random_regular_graph,
    random_tree,
    ring_of_cliques,
    star_graph,
    unit_disk_graph,
)
from repro.graphs.gadgets import figure1_gadget, two_cluster_gadget
from repro.graphs.power import (
    induced_power_subgraph,
    k_connected_components,
    power_graph,
)
from repro.graphs.properties import (
    ecc_lower_bound,
    graph_diameter,
    is_connected,
    max_degree,
    relabel_consecutive,
)

__all__ = [
    "bipartite_crown",
    "caterpillar_graph",
    "dense_core_with_pendant_paths",
    "disconnected_union",
    "ecc_lower_bound",
    "erdos_renyi_graph",
    "figure1_gadget",
    "graph_diameter",
    "grid_graph",
    "induced_power_subgraph",
    "is_connected",
    "k_connected_components",
    "max_degree",
    "path_graph",
    "power_graph",
    "power_law_graph",
    "random_regular_graph",
    "random_tree",
    "relabel_consecutive",
    "ring_of_cliques",
    "star_graph",
    "two_cluster_gadget",
    "unit_disk_graph",
]
