"""Ruling sets: verification, baselines and the deterministic Theorem 1.1.

An ``(alpha, beta)``-ruling set of ``G`` is a set of nodes that is
``alpha``-independent (pairwise distance at least ``alpha``) and
``beta``-dominating (every node has a ruling node within ``beta`` hops).  An
MIS of ``G^k`` is exactly a ``(k+1, k)``-ruling set of ``G``; the paper's
headline deterministic result (Theorem 1.1) computes a ``(k+1, k^2)``-ruling
set -- i.e. a ``k``-ruling set of ``G^k`` -- in polylogarithmic CONGEST time.
"""

from repro.ruling.aglp import aglp_ruling_set, id_based_ruling_set
from repro.ruling.distributed import DetRulingSetNode
from repro.ruling.det_ruling_set import (
    DetRulingSetResult,
    deterministic_mis_of_virtual_graph,
    deterministic_power_ruling_set,
    ruling_set_via_sparsification,
)
from repro.ruling.greedy import greedy_mis, greedy_ruling_set, lexicographic_mis
from repro.ruling.verify import (
    RulingSetReport,
    domination_radius,
    independence_radius,
    is_alpha_independent,
    is_beta_dominating,
    is_mis_of_power_graph,
    is_ruling_set,
    verify_ruling_set,
)

__all__ = [
    "DetRulingSetNode",
    "DetRulingSetResult",
    "RulingSetReport",
    "aglp_ruling_set",
    "deterministic_mis_of_virtual_graph",
    "deterministic_power_ruling_set",
    "domination_radius",
    "greedy_mis",
    "greedy_ruling_set",
    "id_based_ruling_set",
    "independence_radius",
    "is_alpha_independent",
    "is_beta_dominating",
    "is_mis_of_power_graph",
    "is_ruling_set",
    "lexicographic_mis",
    "ruling_set_via_sparsification",
    "verify_ruling_set",
]
