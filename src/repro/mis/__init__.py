"""Randomized symmetry breaking: MIS and ruling sets on ``G`` and ``G^k``.

Contents
--------
``luby``
    Luby's algorithm on ``G`` (message-passing simulator) and on ``G^k``
    (Section 8.1's baseline, ``O(k log n)`` rounds).
``beeping``
    The BeepingMIS algorithm of [Gha17] on ``G`` and its ID-tagged
    simulation on ``G^k`` (Lemma 8.2).
``shattering``
    Theorem 1.4 -- the revisited shattering MIS of ``G`` with the paper's
    two post-shattering approaches (Section 7).
``kp12``
    The degree-reduction sparsification of [KP12]/[BKP14] used by
    Corollary 1.3.
``power_mis``
    Theorem 1.2 -- randomized MIS of ``G^k`` via shattering, ball graphs and
    network decomposition (Section 8.2).
``power_ruling``
    Corollary 1.3 -- ``beta``-ruling sets of ``G^k`` (Section 8.3).
"""

from repro.mis.beeping import (
    BeepingMISNode,
    BeepingMISProcess,
    beeping_mis,
    beeping_mis_power,
)
from repro.mis.kp12 import kp12_sparsify
from repro.mis.luby import LubyMISNode, luby_mis, luby_mis_power
from repro.mis.power_mis import PowerMISResult, power_graph_mis
from repro.mis.power_ruling import PowerRulingSetResult, power_graph_ruling_set
from repro.mis.shattering import (
    ShatteringMISResult,
    component_size_bound,
    is_s_connected,
    pre_shattering,
    shattering_mis,
)

__all__ = [
    "BeepingMISNode",
    "BeepingMISProcess",
    "LubyMISNode",
    "PowerMISResult",
    "PowerRulingSetResult",
    "ShatteringMISResult",
    "beeping_mis",
    "beeping_mis_power",
    "component_size_bound",
    "is_s_connected",
    "kp12_sparsify",
    "luby_mis",
    "luby_mis_power",
    "power_graph_mis",
    "power_graph_ruling_set",
    "pre_shattering",
    "shattering_mis",
]
