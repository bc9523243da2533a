"""Property-based differential tests over seeded registry scenarios.

Random ``(scenario, seed)`` cells are drawn from the registry's
``property``-tagged pool and the algorithm outputs are checked against
*centralized references* computed by entirely independent code paths:

* the simulator-native deterministic ruling set must **equal** the
  lexicographically-first MIS computed by :func:`repro.ruling.greedy.
  lexicographic_mis` from the same ID assignment (iterated local ID minima
  is exactly the sequential greedy);
* the randomized MIS algorithms of ``G^k`` must be independent and maximal
  on the *materialised* power graph (:func:`repro.graphs.power.power_graph`),
  cross-checked against :func:`repro.ruling.greedy.greedy_mis`;
* the sparsification chain must satisfy invariants I1.1 / I1.2 / I2 and
  Lemma 3.1, the checks ``repro.solve(..., verify=True)`` certifies.

Every assertion message embeds the scenario name and the failing seed so a
red example reproduces with one registry call.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.api.certify import mis_power_checks
from repro.graphs.power import power_graph
from repro.ruling.greedy import greedy_mis, lexicographic_mis
from repro.scenarios import DEFAULT_REGISTRY, scenario_config

PROPERTY_POOL = DEFAULT_REGISTRY.select(tags={"property", "smoke"})
SIM_POOL = [s for s in PROPERTY_POOL if s.algorithm == "det-ruling-sim"]
POWER_POOL = [s for s in PROPERTY_POOL if s.algorithm in ("power-mis", "luby-power")]
SPARSIFY_POOL = DEFAULT_REGISTRY.select(tags={"property"}, algorithm="sparsify")

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _repro_hint(scenario, seed: int) -> str:
    return (f"failing scenario={scenario.name!r} seed={seed}; reproduce with "
            f"_solve(DEFAULT_REGISTRY.scenario({scenario.name!r}), {seed})")


def _solve(scenario, seed: int):
    """The scenario's certified solve on its task graph, as the runner
    submits it (graph seed = solve seed)."""
    graph = DEFAULT_REGISTRY.build_graph(scenario, seed=seed)
    return graph, repro.solve(graph, scenario.algorithm, seed=seed,
                              verify=True, **scenario_config(scenario))


@SETTINGS
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_det_ruling_sim_equals_centralized_greedy(data, seed):
    """Differential: distributed ID-minima MIS == sequential greedy by ID."""
    scenario = data.draw(st.sampled_from(SIM_POOL))
    graph, report = _solve(scenario, seed)
    reference = lexicographic_mis(graph, key=report.payload["node_ids"].get)
    assert report.output == reference, _repro_hint(scenario, seed)
    assert report.metrics["halted"], _repro_hint(scenario, seed)


@SETTINGS
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_power_mis_valid_on_materialized_power_graph(data, seed):
    """Differential: certificate verdict == explicit check on a materialised G^k."""
    scenario = data.draw(st.sampled_from(POWER_POOL))
    graph, report = _solve(scenario, seed)
    mis = report.output
    power = power_graph(graph, scenario.k)
    for node in mis:
        overlap = set(power.neighbors(node)) & mis
        assert not overlap, f"{_repro_hint(scenario, seed)}: not independent in G^k"
    for node in power.nodes():
        assert node in mis or set(power.neighbors(node)) & mis, \
            f"{_repro_hint(scenario, seed)}: {node!r} undominated, not maximal"
    assert report.ok, f"{_repro_hint(scenario, seed)}: {report.summary()}"


@SETTINGS
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_centralized_greedy_reference_passes_oracles(data, seed):
    """Certifier self-check: the greedy reference must pass the MIS checks."""
    scenario = data.draw(st.sampled_from(POWER_POOL))
    graph = DEFAULT_REGISTRY.build_graph(scenario, seed=seed)
    reference = greedy_mis(graph, k=scenario.k)
    checks = mis_power_checks(graph, reference, scenario.k)
    assert all(check.ok for check in checks), \
        f"{_repro_hint(scenario, seed)}: certifier rejected the greedy reference " \
        f"[{'; '.join(c.name for c in checks if not c.ok)}]"


@SETTINGS
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sparsification_invariants_hold(data, seed):
    """I1.1 / I1.2 / I2 and Lemma 3.1 hold for random seeded runs."""
    scenario = data.draw(st.sampled_from(SPARSIFY_POOL))
    _, report = _solve(scenario, seed)
    assert report.verified, f"{_repro_hint(scenario, seed)}: {report.summary()}"


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_full_runner_cells_verify(seed):
    """End to end: an arbitrary-seed batch over the smoke pool is all-green."""
    scenario = PROPERTY_POOL[seed % len(PROPERTY_POOL)]
    _, report = _solve(scenario, seed)
    assert report.verified, f"{_repro_hint(scenario, seed)}: {report.summary()}"
