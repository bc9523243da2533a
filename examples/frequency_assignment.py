"""Frequency assignment on a wireless network (the paper's motivating example).

Section 1 of the paper motivates power-graph symmetry breaking with the
frequency assignment problem: in a network of wireless transmitters,
neighbors of a node must not share a frequency, which makes the conflict
graph the *square* ``G^2`` of the communication graph.

This example models the transmitters as a unit-disk graph and uses the
library to build an interference-aware frequency plan:

1. compute an MIS of ``G^2`` (Theorem 1.2) -- the first frequency class:
   transmitters that can safely share frequency 0;
2. iterate the MIS computation on the remaining transmitters to obtain a
   full distance-2 coloring (each color class is an independent set of
   ``G^2``), which is exactly a feasible frequency assignment;
3. verify that no two transmitters within two hops share a frequency and
   report how many frequencies were used compared with the trivial
   ``Delta^2 + 1`` bound.

Run with:  python examples/frequency_assignment.py
"""

from __future__ import annotations

import random

import numpy as np

import repro
from repro.analysis.tables import format_table
from repro.congest.topology import graph_csr
from repro.graphs import unit_disk_graph
from repro.graphs.properties import max_degree
from repro.mis.power_mis import power_graph_mis


def distance2_coloring(graph, rng: random.Random) -> dict:
    """Color the nodes so nodes within 2 hops get distinct colors.

    Repeatedly computes an MIS of ``G^2`` restricted to the still-uncolored
    transmitters; each MIS becomes one frequency class.  This is the classic
    reduction from distance-2 coloring to iterated MIS of the square graph.
    (The restricted ``candidates=`` form is the module-level API; the
    unrestricted first class below goes through ``repro.solve``.)
    """
    colors: dict = {}
    uncolored = set(graph.nodes())
    color = 0
    while uncolored:
        result = power_graph_mis(graph, 2, candidates=uncolored, rng=rng)
        for node in result.mis:
            colors[node] = color
        uncolored -= result.mis
        color += 1
    return colors


def verify_frequency_plan(graph, colors) -> tuple[bool, int]:
    """No two transmitters within two hops may share a frequency: each
    entry of the ``G^2`` CSR is an ordered pair within two hops."""
    structure, indptr, indices = graph_csr(graph, 2)
    color = np.array([colors[node] for node in structure.labels])
    owners = np.repeat(np.arange(structure.n), np.diff(indptr))
    conflicts = int((color[owners] == color[indices]).sum())
    return conflicts == 0, conflicts // 2


def main() -> None:
    rng = random.Random(3)
    transmitters = unit_disk_graph(150, seed=3)
    delta = max_degree(transmitters)
    print(f"Wireless network: {transmitters.number_of_nodes()} transmitters, "
          f"max degree {delta}\n")

    # Step 1: the first frequency class = MIS of G^2 (cluster heads that can
    # all use frequency 0 without interfering at any common neighbor),
    # dispatched and certified through the solver API.
    first_class = repro.solve(transmitters, "power-mis", k=2, seed=3)
    assert first_class.verified, first_class.certificate.summary()
    print(f"Frequency 0 can be shared by {len(first_class.output)} transmitters "
          f"(a certified MIS of G^2, computed in {first_class.rounds} CONGEST rounds).\n")

    # Step 2: the full plan.
    colors = distance2_coloring(transmitters, rng)
    ok, conflicts = verify_frequency_plan(transmitters, colors)
    used = max(colors.values()) + 1
    trivial_bound = delta * delta + 1

    class_sizes = {}
    for node, color in colors.items():
        class_sizes[color] = class_sizes.get(color, 0) + 1
    rows = [{"frequency": color, "transmitters": size}
            for color, size in sorted(class_sizes.items())]
    print(format_table(rows, title="Frequency plan (one row per frequency)"))
    print()
    print(f"Interference-free: {ok} (conflicting pairs: {conflicts})")
    print(f"Frequencies used: {used}  "
          f"(trivial distance-2 bound Delta^2 + 1 = {trivial_bound})")


if __name__ == "__main__":
    main()
