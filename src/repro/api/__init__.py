"""The unified typed solver API: ``repro.solve(graph, algorithm_or_problem)``.

Every algorithm in the library -- MIS variants, ruling sets (including the
AGLP / ID-based baselines), sparsification, network decomposition, ball
graphs and the simulator-native algorithms -- is registered in one
:class:`SolverRegistry` as an :class:`Algorithm` with a declared
:class:`Problem`, a frozen typed config and a uniform entry point::

    import networkx as nx
    from repro import api

    graph = nx.random_regular_graph(4, 60, seed=1)
    report = api.solve(graph, "power-mis", k=2, seed=7)
    report.output          # the MIS of G^2
    report.rounds          # charged CONGEST rounds
    report.certificate.ok  # verified by the problem's certifier
    report.provenance      # algorithm, config, derived seed, graph fingerprint

Solves are **verified by default**: the problem family's certifier (the
same checks the scenario runner's oracle layer applies) runs on every
``solve(..., verify=True)`` and its :class:`Certificate` is attached to the
report.  Passing a problem-family name (``"mis-power"``) instead of an
algorithm dispatches to the family's default algorithm.  ``replay`` re-runs
a report's provenance block bit-for-bit.

The scenario runner (:mod:`repro.scenarios`), the benchmark sweeps and the
``repro`` CLI all dispatch through :data:`REGISTRY`, so registering an
algorithm here makes it available everywhere at once.
"""

from repro.api.adapters import register_builtin_algorithms
from repro.api.certify import Certificate, Check
from repro.api.problems import Problem
from repro.api.registry import (
    AdapterOutcome,
    Algorithm,
    SolveContext,
    SolvePlan,
    SolverRegistry,
    new_registry,
)
from repro.api.report import (
    Provenance,
    RunReport,
    graph_fingerprint,
    invalidate_fingerprint,
)
from repro.api.serialize import report_from_json, report_to_json

__all__ = [
    "AdapterOutcome",
    "Algorithm",
    "Certificate",
    "Check",
    "Problem",
    "Provenance",
    "REGISTRY",
    "RunReport",
    "SolveContext",
    "SolvePlan",
    "SolverRegistry",
    "default_solver_registry",
    "graph_fingerprint",
    "invalidate_fingerprint",
    "new_registry",
    "replay",
    "report_from_json",
    "report_to_json",
    "solve",
    "solve_batch",
]


def default_solver_registry() -> SolverRegistry:
    """Build a fresh registry with all builtin problems and algorithms."""
    return register_builtin_algorithms(new_registry())


#: The shared default registry (rebuilt on import in worker processes, so
#: its contents must stay a pure function of the library code).
REGISTRY = default_solver_registry()

#: Uniform solve against the default registry (also ``repro.solve``).
solve = REGISTRY.solve

#: Batched seed sweep against the default registry (``repro.solve_batch``):
#: one certified RunReport per seed, bit-identical to per-seed ``solve``
#: calls, executed as a single replica batch when the algorithm supports it.
solve_batch = REGISTRY.solve_batch

#: Re-run a provenance block bit-for-bit (also ``repro.replay``).
replay = REGISTRY.replay
