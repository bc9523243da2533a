"""Typed problem families and their certifiers.

The paper's results all share one shape -- *compute a symmetry-breaking
structure on* ``G^k``, *then certify it* -- and a :class:`Problem` captures
exactly that: a name (``mis-power``, ``ruling-set``, ``sparsify-power``,
...), a description, and a certifier mapping ``(graph, output, config,
payload)`` to the named checks of :mod:`repro.api.certify`.  Every
registered algorithm declares the problem it solves, so ``solve`` knows how
to verify any algorithm without per-algorithm dispatch tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

import networkx as nx

from repro.api import certify
from repro.api.certify import Certificate, Check

Node = Hashable

Certifier = Callable[[nx.Graph, set, Mapping[str, Any], Mapping[str, Any]],
                     "list[Check]"]

__all__ = ["BUILTIN_PROBLEMS", "Problem"]


@dataclass(frozen=True)
class Problem:
    """A named problem family with a uniform certifier."""

    name: str
    description: str = ""
    certifier: Certifier | None = None

    def certify(self, graph: nx.Graph, output: set[Node], *,
                config: Mapping[str, Any],
                payload: Mapping[str, Any]) -> Certificate:
        """Apply the problem's certifier and bundle the checks."""
        if self.certifier is None:
            checks = [Check("certifier", False,
                            f"problem {self.name!r} has no certifier")]
        else:
            checks = self.certifier(graph, output, config, payload)
        return Certificate(problem=self.name, checks=list(checks))


def _certify_mis_power(graph: nx.Graph, output: set[Node],
                       config: Mapping[str, Any],
                       payload: Mapping[str, Any]) -> list[Check]:
    k = int(config.get("k", 1))
    checks = certify.mis_power_checks(graph, output, k,
                                      targets=payload.get("targets"))
    reference_ids = payload.get("greedy_reference_ids")
    if reference_ids is not None:
        checks += certify.greedy_reference_checks(graph, output, reference_ids)
    return checks


def _certify_ruling_set(graph: nx.Graph, output: set[Node],
                        config: Mapping[str, Any],
                        payload: Mapping[str, Any]) -> list[Check]:
    k = int(config.get("k", 1))
    alpha = int(payload.get("alpha", k + 1))
    beta = payload.get("beta_bound")
    if beta is None:
        return [Check("has-bounds", False,
                      "payload carries no 'beta_bound' domination guarantee")]
    return certify.ruling_set_checks(graph, output, alpha=alpha, beta=int(beta),
                                     targets=payload.get("targets"))


def _certify_sparsify_power(graph: nx.Graph, output: set[Node],
                            config: Mapping[str, Any],
                            payload: Mapping[str, Any]) -> list[Check]:
    sequence = payload.get("sequence")
    if not sequence:
        return [Check("has-sequence", False,
                      "payload carries no sparsification 'sequence'")]
    return certify.sparsification_checks(graph, sequence, int(config.get("k", 1)))


def _certify_sparsify_stage(graph: nx.Graph, output: set[Node],
                            config: Mapping[str, Any],
                            payload: Mapping[str, Any]) -> list[Check]:
    active = payload.get("active", set(graph.nodes()))
    power = int(config.get("power", 1))
    return certify.single_sparsification_checks(graph, set(active), set(output),
                                                power=power)


def _certify_degree_reduction(graph: nx.Graph, output: set[Node],
                              config: Mapping[str, Any],
                              payload: Mapping[str, Any]) -> list[Check]:
    k = int(config.get("k", 1))
    candidates = payload.get("candidates", set(graph.nodes()))
    return certify.domination_checks(graph, output, candidates, radius=k)


def _certify_decomposition(graph: nx.Graph, output: set[Node],
                           config: Mapping[str, Any],
                           payload: Mapping[str, Any]) -> list[Check]:
    decomposition = payload.get("decomposition")
    if decomposition is None:
        return [Check("has-decomposition", False,
                      "payload carries no 'decomposition' object")]
    return certify.decomposition_checks(graph, decomposition,
                                        covered=payload.get("covered"))


def _certify_ball_graph(graph: nx.Graph, output: set[Node],
                        config: Mapping[str, Any],
                        payload: Mapping[str, Any]) -> list[Check]:
    ball_graph = payload.get("ball_graph")
    if ball_graph is None:
        return [Check("has-ball-graph", False,
                      "payload carries no 'ball_graph' object")]
    return certify.ball_graph_checks(graph, ball_graph)


BUILTIN_PROBLEMS: tuple[Problem, ...] = (
    Problem("mis-power",
            "maximal independent set of G^k (a (k+1, k)-ruling set of G)",
            _certify_mis_power),
    Problem("ruling-set",
            "(alpha, beta)-ruling set of G, bounds taken from the payload",
            _certify_ruling_set),
    Problem("sparsify-power",
            "Lemma 3.1 chain Q_0 ⊇ ... ⊇ Q_k sparse in G^k, invariants I1/I2",
            _certify_sparsify_power),
    Problem("sparsify-stage",
            "Lemma 5.1 single-stage sparsification on G^power",
            _certify_sparsify_stage),
    Problem("degree-reduction",
            "KP12 degree reduction: output dominates the candidates within k",
            _certify_degree_reduction),
    Problem("decomposition",
            "weak-diameter network decomposition with separation",
            _certify_decomposition),
    Problem("ball-graph",
            "Lemma 8.3 distance-k ball graph over a ruling set",
            _certify_ball_graph),
)
