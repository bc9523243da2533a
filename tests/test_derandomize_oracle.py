"""The incremental per-variable derandomizer against the direct procedure.

:func:`repro.core.derandomize.conditional_expectations` keeps per-node
counters instead of re-deriving every conditional expectation from the
``fixed`` map.  Its contract is bit-identity: the same sampled set and, for
every variable, the same two float sums, because the affected set is built
with the same insertions and summed in the same order.  The oracle below is
the direct O(n * d) procedure: a full scan for the affected nodes and
``total_expectation`` for the sums.

The cases keep ``Phi`` and ``Psi`` live: a node only contributes a non-zero
term when it is high-degree (``Phi``) or has more than ``72 log n`` active
neighbors (``Psi``).  On the small registry cells every term is 0.0, so a
reordered sum could not show there.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.derandomize import (
    conditional_expectations,
    derandomize_stage_per_variable,
)
from repro.core.events import SparsificationStageEvents


def oracle(events: SparsificationStageEvents):
    """The direct procedure: rows ``(w, E0, E1, X_w)`` and the sampled set."""
    fixed: dict = {}
    rows = []
    for variable in sorted(events.active, key=str):
        if variable in fixed:
            continue
        affected = {variable}
        affected.update(node for node, neighbors in events.active_neighbors.items()
                        if variable in neighbors)
        fixed[variable] = False
        if_zero = events.total_expectation(fixed, nodes=affected)
        fixed[variable] = True
        if_one = events.total_expectation(fixed, nodes=affected)
        fixed[variable] = if_one < if_zero
        rows.append((variable, if_zero, if_one, fixed[variable]))
    return rows, {node for node, decision in fixed.items() if decision}


def _events(graph, *, power, stage, delta_a):
    return SparsificationStageEvents(graph=graph, active=set(graph.nodes()),
                                     stage=stage, delta_a=delta_a, power=power)


def _regular_case(cutoff):
    # G^2 is nearly complete (d_2 <= 129): degree cutoffs above 24 ln n ~ 117
    # keep Phi live while the sampling probability stays below 1, so the
    # Phi terms are tiny non-zero powers of 1 - p.
    graph = nx.random_regular_graph(16, 130, seed=2)
    return _events(graph, power=2, stage=1, delta_a=2 * cutoff)


CASES = {
    # Psi is live at the centre: 499 leaves > 72 ln 500.
    "star-499-power-1": lambda: _events(nx.star_graph(499), power=1, stage=1,
                                        delta_a=499),
    # The centre sorts last, so a leaf is sampled while Psi is live and the
    # centre's sampled-neighbour count moves.
    "star-520-centre-last-power-1": lambda: _events(
        nx.Graph([("zz", leaf) for leaf in range(520)]),
        power=1, stage=1, delta_a=1000),
    # Two live Psi terms per leaf, summed in set order.
    "bipartite-2x498-power-1": lambda: _events(
        nx.complete_bipartite_graph(2, 498), power=1, stage=1, delta_a=498),
    "regular-16-130-power-2-cutoff-117": lambda: _regular_case(117),
    "regular-16-130-power-2-cutoff-118": lambda: _regular_case(118),
    "regular-16-130-power-2-cutoff-120": lambda: _regular_case(120),
    # p = 1: Phi terms are exactly 0.0 or 1.0.
    "gnp-60-0.5-power-1": lambda: _events(nx.gnp_random_graph(60, 0.5, seed=3),
                                          power=1, stage=2, delta_a=100),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_incremental_derandomizer_matches_direct_procedure(case):
    events = CASES[case]()
    expected_rows, expected_sampled = oracle(events)
    assert any(zero or one for _, zero, one, _ in expected_rows), \
        "the case must compare a non-zero expectation"
    order = sorted(events.active, key=str)
    actual_rows = list(conditional_expectations(events, order))
    assert [row[0] for row in actual_rows] == [row[0] for row in expected_rows]
    for actual, expected in zip(actual_rows, expected_rows):
        # Bitwise: equal floats, not approximately equal ones.
        assert actual[1:] == expected[1:], f"variable {actual[0]!r}"
        assert actual[1].hex() == expected[1].hex()
        assert actual[2].hex() == expected[2].hex()
    outcome = derandomize_stage_per_variable(events)
    assert outcome.sampled == expected_sampled
    assert list(outcome.sampled) == list(expected_sampled)

