"""Public-API snapshot: locks ``repro.__all__`` and the registered names.

An accidental export, a dropped export or a renamed algorithm changes the
library's public surface; these snapshots make any such change an explicit,
reviewed test edit instead of a silent drift.
"""

from __future__ import annotations

import importlib

import repro
from repro.api import REGISTRY

EXPECTED_ALL = [
    "Algorithm",
    "Certificate",
    "CongestNetwork",
    "NodeAlgorithm",
    "Problem",
    "Provenance",
    "RoundLedger",
    "RoundObserver",
    "RunReport",
    "Simulator",
    "SolverRegistry",
    "SyncEngine",
    "api",
    "check_power_sparsification",
    "check_sparsification",
    "is_mis_of_power_graph",
    "is_ruling_set",
    "power_graph",
    "replay",
    "solve",
    "solve_batch",
    "verify_invariants",
    "verify_ruling_set",
    "__version__",
]

EXPECTED_ALGORITHMS = [
    "aglp",
    "ball-graph",
    "beeping",
    "beeping-power",
    "beeping-sim",
    "det-power-ruling",
    "det-ruling-sim",
    "det-sparsify",
    "greedy-mis",
    "greedy-ruling",
    "id-ruling",
    "kp12-sparsify",
    "luby",
    "luby-power",
    "luby-sim",
    "network-decomposition",
    "power-det-ruling-sim",
    "power-luby-sim",
    "power-mis",
    "power-ruling",
    "randomized-sparsify",
    "shattering-mis",
    "sparsify",
    "sparsify-low-diameter",
]

EXPECTED_PROBLEMS = [
    "ball-graph",
    "decomposition",
    "degree-reduction",
    "mis-power",
    "ruling-set",
    "sparsify-power",
    "sparsify-stage",
]

#: Default algorithm per problem family (``solve(graph, "<problem>")``).
EXPECTED_DEFAULTS = {
    "ball-graph": "ball-graph",
    "decomposition": "network-decomposition",
    "degree-reduction": "kp12-sparsify",
    "mis-power": "power-mis",
    "ruling-set": "det-power-ruling",
    "sparsify-power": "sparsify",
    "sparsify-stage": "det-sparsify",
}

#: Each free function behind a registered algorithm, by its
#: implementation module, and the algorithm name it is registered under.
FUNCTION_TO_ALGORITHM = {
    "repro.core.detsparsify.det_sparsification": "det-sparsify",
    "repro.core.power_sparsify.power_graph_sparsification": "sparsify",
    "repro.core.power_sparsify.power_graph_sparsification_low_diameter":
        "sparsify-low-diameter",
    "repro.core.sampling.randomized_sparsification": "randomized-sparsify",
    "repro.decomposition.ball_graph.form_distance_k_ball_graph": "ball-graph",
    "repro.decomposition.network_decomposition.network_decomposition":
        "network-decomposition",
    "repro.mis.beeping.beeping_mis": "beeping",
    "repro.mis.beeping.beeping_mis_power": "beeping-power",
    "repro.mis.luby.luby_mis": "luby",
    "repro.mis.luby.luby_mis_power": "luby-power",
    "repro.mis.power_mis.power_graph_mis": "power-mis",
    "repro.mis.power_ruling.power_graph_ruling_set": "power-ruling",
    "repro.mis.shattering.shattering_mis": "shattering-mis",
    "repro.ruling.aglp.aglp_ruling_set": "aglp",
    "repro.ruling.aglp.id_based_ruling_set": "id-ruling",
    "repro.ruling.det_ruling_set.deterministic_power_ruling_set":
        "det-power-ruling",
    "repro.ruling.greedy.greedy_mis": "greedy-mis",
}


def test_top_level_all_snapshot():
    assert repro.__all__ == EXPECTED_ALL


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"missing export {name}"


def test_registered_algorithm_names_snapshot():
    assert REGISTRY.algorithm_names() == EXPECTED_ALGORITHMS


def test_registered_problem_names_snapshot():
    assert REGISTRY.problem_names() == EXPECTED_PROBLEMS


def test_default_algorithm_per_problem_snapshot():
    for problem, expected in EXPECTED_DEFAULTS.items():
        assert REGISTRY.default_algorithm(problem).name == expected


def test_every_free_function_has_a_registered_counterpart():
    for path, algorithm in FUNCTION_TO_ALGORITHM.items():
        module_name, _, name = path.rpartition(".")
        assert callable(getattr(importlib.import_module(module_name), name))
        assert not hasattr(repro, name), f"repro.{name} is not an export"
        assert algorithm in EXPECTED_ALGORITHMS, path
        spec = REGISTRY.algorithm(algorithm)
        assert spec.problem in EXPECTED_PROBLEMS


def test_algorithm_defaults_are_hashable_and_frozen():
    """The typed configs must stay frozen (tuples of (key, value) pairs)."""
    for name in REGISTRY.algorithm_names():
        spec = REGISTRY.algorithm(name)
        assert isinstance(spec.defaults, tuple)
        hash(spec.defaults)  # frozen = hashable
