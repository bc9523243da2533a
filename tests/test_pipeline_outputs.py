"""Pinned outputs of the paper pipelines at sizes the ``G^k`` CSR serves.

The golden seeds run on a 24-node graph, where every sparsification
expectation is 0.0.  This suite pins the exact output set, round count
and per-label round ledger of ``sparsify``, ``det-power-ruling``,
``power-mis``, ``power-ruling`` and ``beeping-power`` on three larger
registry cells (graph seed = solve seed
in 1..3, ``k`` in 2..3), of ``shattering-mis`` on the same cells, and of
``power-mis`` at ``k = 3`` on ``regular-n384-d8``, so a change to how the
pipelines read ``G^s`` -- CSR rows instead of per-node BFS, an incremental
derandomizer, an array BeepingMIS step -- must reproduce them bit for bit.
The same grid pins ``ball-graph`` and ``sparsify-low-diameter``, the
single-stage ``det-sparsify`` and ``randomized-sparsify`` (their ``power``
takes the place of ``k``) and ``network-decomposition`` (no ``k``), whose
distance reads go through the set-source BFS and the ``G^s`` CSR, and the
row-reading MIS family: ``kp12-sparsify`` and ``luby-power`` on the grid,
``luby`` (no ``k``) on the same cells.  ``sparsify`` also runs with the
``seed-bits`` and ``randomized`` stage methods: unlike the single-stage
solvers at their default ``Delta_A``, which run no stage on these cells,
its iterations at ``s >= 2`` run three to four stages each, so those rows
pin the stages' sampled sets under both derandomizers and the sampling.
The five simulator-native algorithms run on the same cells and seeds
(``power-luby-sim`` and ``power-det-ruling-sim`` also over the powers)
under the ``sync`` and ``vector`` engines; their rows pin the message
and bit totals and the engine that executed in place of a round ledger.

The snapshot lives in ``tests/pipeline_outputs.json``; regenerate it with::

    PYTHONPATH=src python tests/test_pipeline_outputs.py --update

and review the diff: a changed row is a changed algorithm.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import pytest

FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "pipeline_outputs.json")

CELLS = ("regular-n128-d6", "er-n48", "grid-8x8")
ALGORITHMS = ("sparsify", "det-power-ruling", "power-mis", "power-ruling",
              "beeping-power", "ball-graph", "sparsify-low-diameter",
              "det-sparsify", "randomized-sparsify", "kp12-sparsify",
              "luby-power", "sparsify/method=seed-bits",
              "sparsify/method=randomized")
#: Algorithms whose power is called ``power`` rather than ``k``.
POWER_KEYED = ("det-sparsify", "randomized-sparsify")
#: Algorithms that take no power ``k`` (keyed ``k=None``).
PLAIN_ALGORITHMS = ("shattering-mis", "network-decomposition", "luby")
SEEDS = (1, 2, 3)
POWERS = (2, 3)
#: Extra ``(cell, algorithm, k)`` inputs beyond the grid above.
EXTRA = (("regular-n384-d8", "power-mis", 3),)
#: Simulator-native algorithms, each run as ``name/engine=e``.
ENGINES = ("sync", "vector")
SIM_PLAIN = ("luby-sim", "beeping-sim", "det-ruling-sim")
SIM_POWERED = ("power-luby-sim", "power-det-ruling-sim")
#: What a simulator row pins besides the output and the round count.
SIM_METRICS = ("messages", "bits", "engine_used")


def _key(cell: str, algorithm: str, seed: int, k: int) -> str:
    return f"{cell}/{algorithm}/seed={seed}/k={k}"


def _cases() -> list[tuple[str, str, int, int]]:
    cases = [(cell, algorithm, seed, k) for cell in CELLS
             for algorithm in ALGORITHMS for seed in SEEDS for k in POWERS]
    cases += [(cell, algorithm, seed, None) for cell in CELLS
              for algorithm in PLAIN_ALGORITHMS for seed in SEEDS]
    cases += [(cell, algorithm, seed, k) for cell, algorithm, k in EXTRA
              for seed in SEEDS]
    cases += [(cell, f"{algorithm}/engine={engine}", seed, None)
              for cell in CELLS for algorithm in SIM_PLAIN
              for engine in ENGINES for seed in SEEDS]
    cases += [(cell, f"{algorithm}/engine={engine}", seed, k)
              for cell in CELLS for algorithm in SIM_POWERED
              for engine in ENGINES for seed in SEEDS for k in POWERS]
    return cases


def _is_sim(algorithm: str) -> bool:
    return "/engine=" in algorithm


def _solve(cell: str, algorithm: str, seed: int, k: int | None, *, verify: bool):
    """Solve one case; an ``algorithm`` of the form ``name/method=m`` runs
    ``name`` with ``method=m``, and ``name/engine=e`` runs it with
    ``engine=e``."""
    from repro.api import solve
    from repro.scenarios.registry import DEFAULT_REGISTRY

    graph = DEFAULT_REGISTRY.build_cell(cell, seed=seed)
    algorithm, _, engine = algorithm.partition("/engine=")
    algorithm, _, method = algorithm.partition("/method=")
    config = {} if k is None else {
        "power" if algorithm in POWER_KEYED else "k": k}
    if method:
        config["method"] = method
    if engine:
        config["engine"] = engine
    return solve(graph, algorithm, seed=seed, verify=verify, **config)


@functools.lru_cache(maxsize=None)
def _solve_row(cell: str, algorithm: str, seed: int, k: int | None) -> dict:
    report = _solve(cell, algorithm, seed, k, verify=False)
    row = {"output": sorted(report.output), "rounds": report.rounds}
    if _is_sim(algorithm):
        row.update((key, report.metrics[key]) for key in SIM_METRICS)
    else:
        row["by_label"] = ({} if report.result is None
                           else report.result.ledger.rounds_by_label())
    structure = _structure(report.payload)
    if structure is not None:
        row["structure"] = structure
    return row


def _structure(payload: dict) -> list | None:
    """The partition a clustering output hides: each ball with its members
    (``ball-graph``), each cluster with its members, color and radius
    (``network-decomposition``); labels as strings so grid tuples fit JSON."""
    if "ball_graph" in payload:
        balls = payload["ball_graph"].balls
        return sorted([str(center), sorted(map(str, members))]
                      for center, members in balls.items())
    if "decomposition" in payload:
        return sorted([str(cluster.center), sorted(map(str, cluster.nodes)),
                       cluster.color, cluster.radius]
                      for cluster in payload["decomposition"].clusters)
    return None


def regenerate() -> dict:
    return {
        "_meta": {"regenerate": "PYTHONPATH=src python "
                                "tests/test_pipeline_outputs.py --update"},
        "rows": {_key(*case): _solve_row(*case) for case in _cases()},
    }


def _load() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_case():
    assert set(_load()["rows"]) == {_key(*case) for case in _cases()}


@pytest.mark.parametrize("cell,algorithm,seed,k", _cases())
def test_output_and_rounds_match_fixture(cell, algorithm, seed, k):
    expected = _load()["rows"][_key(cell, algorithm, seed, k)]
    actual = _solve_row(cell, algorithm, seed, k)
    assert actual["output"] == expected["output"], "output set drifted"
    assert actual["rounds"] == expected["rounds"], "round count drifted"


@pytest.mark.parametrize("cell,algorithm,seed,k", [
    case for case in _cases() if not _is_sim(case[1])])
def test_round_ledger_by_label_matches_fixture(cell, algorithm, seed, k):
    expected = _load()["rows"][_key(cell, algorithm, seed, k)]
    actual = _solve_row(cell, algorithm, seed, k)
    assert actual["by_label"] == expected["by_label"], "ledger labels drifted"


@pytest.mark.parametrize("cell,algorithm,seed,k", [
    case for case in _cases() if _is_sim(case[1])])
def test_simulator_traffic_matches_fixture(cell, algorithm, seed, k):
    expected = _load()["rows"][_key(cell, algorithm, seed, k)]
    actual = _solve_row(cell, algorithm, seed, k)
    for key in SIM_METRICS:
        assert actual[key] == expected[key], f"{key} drifted"


@pytest.mark.parametrize("cell,algorithm,seed,k", _cases())
def test_output_certifies(cell, algorithm, seed, k):
    """Every pinned input also passes its certificate -- at its own ``k``
    (``sparsify-low-diameter`` is certified against Lemma 3.1 at ``k``)."""
    report = _solve(cell, algorithm, seed, k, verify=True)
    assert report.verified, report.certificate.summary()


@pytest.mark.parametrize("cell,algorithm,seed,k", [
    case for case in _cases()
    if case[1] in ("ball-graph", "network-decomposition")])
def test_cluster_structure_matches_fixture(cell, algorithm, seed, k):
    expected = _load()["rows"][_key(cell, algorithm, seed, k)]
    actual = _solve_row(cell, algorithm, seed, k)
    assert actual["structure"] == expected["structure"], "partition drifted"


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_pipeline_outputs.py --update")
    fixture = regenerate()
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE_PATH}")
