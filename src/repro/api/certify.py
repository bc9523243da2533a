"""Named verification checks and the :class:`Certificate` attached to solves.

This module is the single home of the library's executable guarantees: each
function turns one of the paper's predicates (MIS of ``G^k``, the
``(alpha, beta)``-ruling distances, the sparsification invariants, the
decomposition properties) into a list of named pass/fail :class:`Check`
objects with human-readable failure details.  The solver facade bundles the
checks of a problem's certifier into a :class:`Certificate` on every
``solve(..., verify=True)`` call, and that certificate is the scenario
runner's per-cell verdict, so there is exactly one implementation of every
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

import networkx as nx

from repro.core.invariants import (
    check_power_sparsification,
    check_sparsification,
    verify_invariants,
)
from repro.graphs.power import domination_distance
from repro.ruling.greedy import lexicographic_mis
from repro.ruling.verify import verify_ruling_set

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.decomposition.ball_graph import BallGraph
    from repro.decomposition.network_decomposition import NetworkDecomposition

Node = Hashable

__all__ = [
    "Certificate",
    "Check",
    "ball_graph_checks",
    "decomposition_checks",
    "domination_checks",
    "greedy_reference_checks",
    "mis_power_checks",
    "ruling_set_checks",
    "single_sparsification_checks",
    "sparsification_checks",
]


@dataclass(frozen=True)
class Check:
    """One named pass/fail verification with a human-readable detail."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Certificate:
    """All checks a problem's certifier applied to one solve."""

    problem: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]

    def summary(self) -> str:
        if self.ok:
            return f"{self.problem}: {len(self.checks)} checks ok"
        details = "; ".join(f"{check.name}: {check.detail or 'failed'}"
                            for check in self.failures())
        return f"{self.problem}: FAILED [{details}]"

    def to_row(self) -> dict[str, object]:
        """A JSON-serialisable summary (check names and failure details)."""
        return {
            "problem": self.problem,
            "ok": self.ok,
            "checks": len(self.checks),
            "failures": [f"{check.name}: {check.detail or 'failed'}"
                         for check in self.failures()],
        }


def ruling_set_checks(graph: nx.Graph, subset: Iterable[Node], *,
                      alpha: int, beta: int,
                      targets: Iterable[Node] | None = None) -> list[Check]:
    """``(alpha, beta)``-ruling-set distances measured in ``G``."""
    report = verify_ruling_set(graph, set(subset), alpha, beta, targets=targets)
    return [
        Check("independence", report.independent_ok,
              f"independence radius {report.independence} < alpha {alpha}"
              if not report.independent_ok else ""),
        Check("domination", report.dominating_ok,
              f"domination radius {report.domination} > beta {beta}"
              if not report.dominating_ok else ""),
        Check("non-trivial", report.size > 0 or graph.number_of_nodes() == 0,
              "empty output on a non-empty graph" if report.size == 0
              and graph.number_of_nodes() else ""),
    ]


def mis_power_checks(graph: nx.Graph, subset: Iterable[Node], k: int, *,
                     targets: Iterable[Node] | None = None) -> list[Check]:
    """Independence + maximality of an MIS of ``G^k`` (a (k+1, k)-ruling set).

    For an independent set of ``G^k``, domination within ``k`` hops of every
    target is exactly maximality, so the two ruling-set distances certify
    the full MIS property -- including one member per connected component on
    disconnected workloads (an unreachable component shows up as an infinite
    domination radius).
    """
    return ruling_set_checks(graph, subset, alpha=k + 1, beta=k, targets=targets)


def sparsification_checks(graph: nx.Graph, sequence: Sequence[set[Node]],
                          k: int) -> list[Check]:
    """Lemma 3.1 at ``k`` for ``Q = sequence[-1]`` against ``Q_0 =
    sequence[0]``, plus invariants I1.1 / I1.2 / I2 of every iteration when
    ``sequence`` is the whole chain ``Q_0 ⊇ ... ⊇ Q_k`` (Lemma 5.8 keeps
    only ``[Q_0, Q]``); a sequence of any other length fails."""
    checks: list[Check] = []
    if len(sequence) not in (2, k + 1):
        checks.append(Check("sequence-length", False,
                            f"{len(sequence)} sets: neither [Q_0, Q] nor "
                            f"the chain Q_0..Q_{k}"))
    reports = verify_invariants(graph, sequence) if len(sequence) == k + 1 else []
    for report in reports:
        checks.append(Check(
            f"I1.1[s={report.s}]", report.i11_max_degree <= report.i11_bound,
            f"d_s(v, Q_s) = {report.i11_max_degree} > {report.i11_bound:.1f}"
            if report.i11_max_degree > report.i11_bound else ""))
        checks.append(Check(
            f"I1.2[s={report.s}]", report.i12_max_degree <= report.i12_bound,
            f"d_(s+1)(v, Q_s) = {report.i12_max_degree} > {report.i12_bound:.1f}"
            if report.i12_max_degree > report.i12_bound else ""))
        checks.append(Check(
            f"I2[s={report.s}]", report.i2_max_excess <= report.i2_bound,
            f"domination excess {report.i2_max_excess} > {report.i2_bound}"
            if report.i2_max_excess > report.i2_bound else ""))
        checks.append(Check(
            f"nested[s={report.s}]", report.nested,
            "Q_s is not a subset of Q_(s-1)" if not report.nested else ""))
    if len(sequence) >= 2:
        lemma = check_power_sparsification(graph, set(sequence[0]),
                                           set(sequence[-1]), k)
        checks.append(Check(
            "lemma3.1-degree", lemma.degree_ok,
            f"d_k(v, Q) = {lemma.max_q_degree} > {lemma.q_degree_bound:.1f}"
            if not lemma.degree_ok else ""))
        checks.append(Check(
            "lemma3.1-domination", lemma.domination_ok,
            f"domination excess {lemma.max_domination} > {lemma.domination_bound:.1f}"
            if not lemma.domination_ok else ""))
    return checks


def single_sparsification_checks(graph: nx.Graph, active: set[Node],
                                 q: set[Node], *, power: int = 1) -> list[Check]:
    """Lemma 5.1's guarantees for one (Det)Sparsification run on ``G^power``."""
    lemma = check_sparsification(graph, set(active), set(q), power=power)
    return [
        Check("subset", q <= set(active) or not active,
              f"{len(q - set(active))} output nodes outside the active set"
              if active and not q <= set(active) else ""),
        Check("lemma5.1-degree", lemma.degree_ok,
              f"d_{power}(v, Q) = {lemma.max_q_degree} > {lemma.q_degree_bound:.1f}"
              if not lemma.degree_ok else ""),
        Check("lemma5.1-domination", lemma.domination_ok,
              f"domination excess {lemma.max_domination} > {lemma.domination_bound}"
              if not lemma.domination_ok else ""),
    ]


def domination_checks(graph: nx.Graph, dominators: Iterable[Node],
                      targets: Iterable[Node], *, radius: int) -> list[Check]:
    """Every target has a dominator within ``radius`` hops (in ``G``)."""
    dominators = set(dominators)
    targets = set(targets)
    measured = domination_distance(graph, dominators, targets=targets)
    ok = measured <= radius
    return [
        Check("non-trivial", bool(dominators) or not targets,
              "empty dominator set for non-empty targets"
              if targets and not dominators else ""),
        Check("domination", ok,
              f"domination radius {measured} > {radius}" if not ok else ""),
    ]


def greedy_reference_checks(graph: nx.Graph, subset: Iterable[Node],
                            node_ids: Mapping[Node, int]) -> list[Check]:
    """Differential check: iterated-ID-minima MIS == centralized greedy MIS.

    The distributed protocol in which every round all local ID minima join
    simultaneously computes exactly the lexicographically-first MIS in
    increasing-ID order, so the simulator output must *equal* the
    centralized reference -- not merely satisfy the same predicate.
    """
    subset = set(subset)
    reference = lexicographic_mis(graph, key=lambda node: node_ids[node])
    missing = reference - subset
    extra = subset - reference
    return [Check(
        "greedy-reference", subset == reference,
        f"differs from centralized greedy MIS (missing={sorted(map(str, missing))[:5]}, "
        f"extra={sorted(map(str, extra))[:5]})" if subset != reference else "")]


def decomposition_checks(graph: nx.Graph, decomposition: "NetworkDecomposition",
                         *, covered: Iterable[Node] | None = None) -> list[Check]:
    """Coverage, disjointness, separation and weak diameter of a decomposition."""
    try:
        decomposition.validate(graph, covered=covered)
    except AssertionError as error:
        return [Check("decomposition", False, str(error))]
    return [
        Check("decomposition", True),
        Check("colored", decomposition.num_colors >= 1,
              "decomposition has no color classes"
              if decomposition.num_colors < 1 else ""),
    ]


def ball_graph_checks(graph: nx.Graph, ball_graph: "BallGraph") -> list[Check]:
    """The Lemma 8.3 guarantees: disjoint extended balls, distance-k adjacency."""
    try:
        ball_graph.validate(graph)
    except AssertionError as error:
        return [Check("ball-graph", False, str(error))]
    assigned = set()
    for members in ball_graph.balls.values():
        assigned |= members
    return [
        Check("ball-graph", True),
        Check("centers-covered", ball_graph.centers <= assigned,
              "some centers are missing from their own balls"
              if not ball_graph.centers <= assigned else ""),
    ]
