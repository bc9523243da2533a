"""Property-based fuzzing of the engine backends.

Hypothesis generates random graphs (several structural regimes), seeds, ID
assignments and engine choices, then asserts two properties for every
vectorized algorithm family:

* **cross-engine equality** -- the run under a randomly drawn engine is
  bit-for-bit the run under :class:`SyncEngine` for the same seed: outputs,
  rounds, message totals, bit totals and per-edge congestion (the vector
  engine must consume the per-node RNG streams identically);
* **certified validity** -- the produced set passes the same checks
  ``repro.solve(..., verify=True)`` applies (:mod:`repro.api.certify`):
  MIS independence + maximality for Luby and the deterministic ruling set,
  independence for BeepingMIS (which may legally time out undecided).

Every assertion message embeds the generated parameters as a repro hint.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.certify import mis_power_checks
from repro.congest import CongestNetwork, Simulator
from repro.mis.beeping import BeepingMISNode
from repro.mis.luby import LubyMISNode
from repro.ruling.distributed import DetRulingSetNode

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ENGINE_NAMES = ("sync", "vector")


# ---------------------------------------------------------------- strategies
@st.composite
def graphs(draw) -> tuple[str, nx.Graph]:
    """A random graph from one of several structural regimes."""
    kind = draw(st.sampled_from(["gnp", "regular", "tree", "disjoint",
                                 "star", "empty-ish"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    if kind == "gnp":
        n = draw(st.integers(min_value=1, max_value=40))
        p = draw(st.floats(min_value=0.0, max_value=0.5))
        graph = nx.gnp_random_graph(n, p, seed=seed)
    elif kind == "regular":
        degree = draw(st.integers(min_value=1, max_value=6))
        n = draw(st.integers(min_value=degree + 1, max_value=40))
        if (n * degree) % 2:
            n += 1
        graph = nx.random_regular_graph(degree, n, seed=seed)
    elif kind == "tree":
        n = draw(st.integers(min_value=1, max_value=40))
        graph = nx.random_labeled_tree(n, seed=seed)
    elif kind == "disjoint":
        sizes = draw(st.lists(st.integers(min_value=1, max_value=8),
                              min_size=2, max_size=4))
        graph = nx.disjoint_union_all(
            [nx.complete_graph(size) for size in sizes])
    elif kind == "star":
        n = draw(st.integers(min_value=2, max_value=30))
        graph = nx.star_graph(n - 1)
    else:  # isolated nodes + one edge
        n = draw(st.integers(min_value=2, max_value=20))
        graph = nx.empty_graph(n)
        graph.add_edge(0, 1)
    return f"{kind}(seed={seed})", graph


def _run_pair(graph: nx.Graph, factory, *, seed: int, engine: str,
              max_rounds: int = 1_200):
    network = CongestNetwork(graph, id_seed=seed)
    sync = Simulator(network, factory, seed=seed, engine="sync").run(max_rounds)
    other = Simulator(network, factory, seed=seed, engine=engine).run(max_rounds)
    return sync, other


def _assert_bit_identical(sync, other, hint: str) -> None:
    assert other.outputs == sync.outputs, f"outputs diverge: {hint}"
    assert other.rounds == sync.rounds, f"rounds diverge: {hint}"
    assert other.total_messages == sync.total_messages, \
        f"message totals diverge: {hint}"
    assert other.total_bits == sync.total_bits, f"bit totals diverge: {hint}"
    assert other.edge_message_counts == sync.edge_message_counts, \
        f"per-edge congestion diverges: {hint}"
    assert other.halted == sync.halted, f"halted flag diverges: {hint}"


def _mis_ok(graph: nx.Graph, subset: set, hint: str) -> None:
    checks = mis_power_checks(graph, subset, 1)
    failures = [check for check in checks if not check.ok]
    assert not failures, f"oracle failures {failures}: {hint}"


@SETTINGS
@given(workload=graphs(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       engine=st.sampled_from(ENGINE_NAMES))
def test_luby_engine_equivalence_and_validity(workload, seed, engine):
    name, graph = workload
    hint = f"luby {name} seed={seed} engine={engine}"
    sync, other = _run_pair(graph, LubyMISNode, seed=seed, engine=engine)
    _assert_bit_identical(sync, other, hint)
    mis = {node for node, joined in sync.outputs.items() if joined}
    _mis_ok(graph, mis, hint)


@SETTINGS
@given(workload=graphs(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       engine=st.sampled_from(ENGINE_NAMES))
def test_det_ruling_engine_equivalence_and_validity(workload, seed, engine):
    name, graph = workload
    hint = f"det-ruling {name} seed={seed} engine={engine}"
    sync, other = _run_pair(graph, DetRulingSetNode, seed=seed, engine=engine)
    _assert_bit_identical(sync, other, hint)
    ruling_set = {node for node, joined in sync.outputs.items() if joined}
    _mis_ok(graph, ruling_set, hint)


@SETTINGS
@given(workload=graphs(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
       engine=st.sampled_from(ENGINE_NAMES),
       max_steps=st.integers(min_value=1, max_value=200))
def test_beeping_engine_equivalence_and_validity(workload, seed, engine,
                                                 max_steps):
    name, graph = workload
    hint = f"beeping {name} seed={seed} engine={engine} max_steps={max_steps}"
    sync, other = _run_pair(
        graph, lambda node: BeepingMISNode(max_steps=max_steps),
        seed=seed, engine=engine)
    _assert_bit_identical(sync, other, hint)
    # BeepingMIS may time out before deciding every node, so only
    # independence is guaranteed unconditionally; with a generous budget the
    # run must also have halted by decision or timeout.
    mis = {node for node, joined in sync.outputs.items() if joined}
    for node in mis:
        overlap = set(graph.neighbors(node)) & mis
        assert not overlap, f"not independent ({node!r} vs {overlap}): {hint}"


@SETTINGS
@given(workload=graphs(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_vector_solve_reports_match_sync(workload, seed):
    """API-level fuzz: ``repro.solve(..., engine=...)`` agrees across
    engines on outputs, rounds and aggregate transport metrics."""
    from repro.api import solve

    name, graph = workload
    hint = f"solve det-ruling-sim {name} seed={seed}"
    reports = {engine: solve(graph, "det-ruling-sim", seed=seed, engine=engine)
               for engine in ENGINE_NAMES}
    reference = reports["sync"]
    assert reference.verified, f"certificate failed: {hint}"
    for engine, report in reports.items():
        assert report.output == reference.output, f"{engine}: {hint}"
        assert report.rounds == reference.rounds, f"{engine}: {hint}"
        assert report.metrics["messages"] == reference.metrics["messages"], \
            f"{engine}: {hint}"
        assert report.metrics["bits"] == reference.metrics["bits"], \
            f"{engine}: {hint}"
