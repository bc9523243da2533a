"""The sparsification stages against the dict-built stage they replaced.

Until the stages read the graph's ``G^s`` CSR, every stage of
:func:`~repro.core.detsparsify.det_sparsification` and
:func:`~repro.core.sampling.randomized_sparsification` worked on label
sets: the rows ``{v: N^s(v) ∩ A}`` of the enclosing call's active set
``A`` (the old ``power_adjacency``, each row filled in ascending node-index
order), intersected with the stage's ``H_i`` node by node, and a reverse
index ``w -> [v : w in N^s(v) ∩ H_i]`` scanned from every row.
``_FrozenStage`` and the functions below are a frozen copy of that code,
the derandomizers and the two stage loops included.

The contract they pin: the live code must give the same rows in the same
key order, the same high-degree set, every ``dependent_nodes(w)`` in the
same iteration order (the conditional-expectation sums run in that order),
every ``conditional_expectations`` row float for float, and the same
per-stage sampled sets and output, drawn from the same generator states.
The inputs cover live ``Phi``/``Psi`` terms (the cases of
``test_derandomize_oracle.py``), tuple labels (grid), string labels,
labels whose hashes share their low bits, and self-loops, at powers 1-3;
each run passes an explicit ``delta_a`` large enough that stages run.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.core.derandomize import conditional_expectations
from repro.core.detsparsify import det_sparsification
from repro.core.events import (
    SparsificationStageEvents,
    degree_bound,
    sampling_probability,
    stage_count,
)
from repro.core.sampling import randomized_sparsification
from repro.graphs import random_regular_graph
from repro.graphs.power import bounded_bfs
from repro.hashing.kwise import KWiseHashFamily
from repro.hashing.seeds import BitSeed
from tests.conftest import distance_neighborhood
from tests.test_derandomize_oracle import CASES as LIVE_TERM_CASES


# --------------------------------------------------------------------------
# The frozen dict-built stage.
# --------------------------------------------------------------------------
def _frozen_power_adjacency(graph, s, restrict_to):
    """``{v: N^s(v) ∩ X}`` for every node in graph order, each row a set
    filled in ascending node-index order (the replaced ``power_adjacency``)."""
    position = {node: index for index, node in enumerate(graph)}
    columns = set(restrict_to)
    return {node: set(sorted(distance_neighborhood(graph, node, s, restrict_to=columns),
                             key=position.__getitem__))
            for node in graph}


class _FrozenStage:
    """The replaced ``SparsificationStageEvents`` with precomputed rows."""

    def __init__(self, graph, active, stage, delta_a, power, neighborhoods):
        self.graph = graph
        self.active = set(active)
        self.stage = stage
        self.n = graph.number_of_nodes()
        self.probability = sampling_probability(stage, delta_a, self.n)
        self.threshold = degree_bound(self.n)
        cutoff = delta_a / (2 ** stage)
        self.active_neighbors = {node: set(neighborhoods.get(node, ())) & self.active
                                 for node in graph.nodes()}
        self.high_degree_nodes = {v for v, neighbors in self.active_neighbors.items()
                                  if len(neighbors) >= cutoff}
        self.dependents = {}
        for node, neighbors in self.active_neighbors.items():
            for neighbor in neighbors:
                self.dependents.setdefault(neighbor, []).append(node)

    def dependent_nodes(self, variable):
        affected = {variable}
        affected.update(self.dependents.get(variable, ()))
        return affected

    def phi_occurs(self, node, sampled):
        if node not in self.high_degree_nodes or node in sampled:
            return False
        return not (self.active_neighbors[node] & sampled)

    def psi_occurs(self, node, sampled):
        return len(self.active_neighbors[node] & sampled) > self.threshold

    def bad_events(self, sampled):
        phi = {node for node in self.high_degree_nodes if self.phi_occurs(node, sampled)}
        psi = {node for node, neighbors in self.active_neighbors.items()
               if len(neighbors) > self.threshold and self.psi_occurs(node, sampled)}
        return phi, psi

    def psi_tail(self, fixed_sampled, unfixed):
        if fixed_sampled > self.threshold:
            return 1.0
        if unfixed == 0:
            return 0.0
        remaining = math.floor(self.threshold - fixed_sampled)
        if remaining >= unfixed:
            return 0.0
        from scipy import stats
        return float(stats.binom.sf(remaining, unfixed, self.probability))

    def evaluate_with_hash(self, hash_function, node_ids):
        cutoff = self.probability * hash_function.output_range
        return {node for node in self.active
                if hash_function(node_ids[node]) < cutoff}


def _frozen_conditional_expectations(events, order):
    neighbors = events.active_neighbors
    phi_live = events.high_degree_nodes
    psi_live = {node for node, row in neighbors.items() if len(row) > events.threshold}
    live = phi_live | psi_live
    active = events.active
    unsampled = 1.0 - events.probability
    psi_sampled = dict.fromkeys(psi_live, 0)
    psi_unfixed = {node: len(neighbors[node]) for node in psi_live}
    phi_unfixed = {node: len(neighbors[node])
                   + (node in active and node not in neighbors[node])
                   for node in phi_live}
    phi_sampled = set()
    watchers = {}
    for node in live:
        for neighbor in neighbors[node]:
            watchers.setdefault(neighbor, []).append(node)
    decided = set()
    for variable in order:
        if variable in decided:
            continue
        decided.add(variable)
        watching = watchers.get(variable, ())
        if not watching and variable not in live:
            yield variable, 0.0, 0.0, False
            continue
        in_own_row = variable in neighbors.get(variable, ())
        if_zero = if_one = 0.0
        for node in events.dependent_nodes(variable):
            if node not in live:
                continue
            member = node != variable or in_own_row
            if node in phi_live and node not in phi_sampled:
                phi_member = member or variable in active
                term = unsampled ** (phi_unfixed[node] - phi_member)
                if_zero += term
                if not phi_member:
                    if_one += term
            if node in psi_live:
                sampled, unfixed = psi_sampled[node], psi_unfixed[node]
                if member:
                    if_zero += events.psi_tail(sampled, unfixed - 1)
                    if_one += events.psi_tail(sampled + 1, unfixed - 1)
                else:
                    term = events.psi_tail(sampled, unfixed)
                    if_zero += term
                    if_one += term
        decision = if_one < if_zero
        yield variable, if_zero, if_one, decision
        for node in watching:
            if node in psi_live:
                psi_unfixed[node] -= 1
                psi_sampled[node] += decision
            if node in phi_live:
                phi_unfixed[node] -= 1
                if decision:
                    phi_sampled.add(node)
        if variable in phi_live and variable in active and not in_own_row:
            phi_unfixed[variable] -= 1
            if decision:
                phi_sampled.add(variable)


def _frozen_per_variable(events):
    order = sorted(events.active, key=str)
    sampled = {variable for variable, _, _, decision
               in _frozen_conditional_expectations(events, order) if decision}
    return sampled, events.bad_events(sampled), "per-variable"


def _frozen_estimate(events, family, node_ids, prefix, rng, samples):
    remaining = family.seed_bits - len(prefix)
    completions = []
    if remaining <= 0:
        completions.append(prefix)
    elif 2 ** remaining <= samples:
        for value in range(2 ** remaining):
            bits = [(value >> shift) & 1 for shift in range(remaining - 1, -1, -1)]
            completions.append(BitSeed(list(prefix) + bits))
    else:
        for _ in range(samples):
            bits = [rng.randrange(2) for _ in range(remaining)]
            completions.append(BitSeed(list(prefix) + bits))
    total = 0.0
    for completion in completions:
        phi, psi = events.bad_events(
            events.evaluate_with_hash(family.from_seed(completion), node_ids))
        total += len(phi) + len(psi)
    return total / max(1, len(completions))


def _frozen_seed_bits(events, node_ids, rng, samples_per_bit):
    if not events.active:
        return set(), (set(), set()), "seed-bits"
    family = KWiseHashFamily(independence=4, domain=max(node_ids.values()) + 1,
                             output_range=2 ** 16)
    prefix = BitSeed()
    for _ in range(family.seed_bits):
        zero = _frozen_estimate(events, family, node_ids, prefix.extended(0), rng,
                                samples_per_bit)
        one = _frozen_estimate(events, family, node_ids, prefix.extended(1), rng,
                               samples_per_bit)
        prefix = prefix.extended(0 if zero <= one else 1)
    sampled = events.evaluate_with_hash(family.from_seed(prefix), node_ids)
    phi, psi = events.bad_events(sampled)
    if not phi and not psi:
        return sampled, (phi, psi), "seed-bits"
    sampled, residual, _ = _frozen_per_variable(events)
    return sampled, residual, "seed-bits+repair"


def _frozen_sample_stage(events, rng, node_ids, use_kwise):
    if not events.active:
        return set()
    if not use_kwise:
        return {node for node in events.active if rng.random() < events.probability}
    independence = max(2, min(8 * max(1, int(round(math.log2(max(2, events.n))))), 64))
    family = KWiseHashFamily(independence=independence,
                             domain=max(node_ids.values()) + 1, output_range=2 ** 20)
    return events.evaluate_with_hash(family.sample(rng), node_ids)


def _node_ids(graph):
    return {node: index + 1 for index, node in enumerate(sorted(graph.nodes(), key=str))}


def _frozen_run(graph, delta_a, power, stage_sampler):
    """The stage loop both sparsifications share, on frozen stages.

    Returns ``(q, stages, rows)``: one ``(stage, active, sampled, residual,
    method)`` tuple per stage, and the rows of the call's active set;
    ``stage_sampler(events)`` picks ``M_i``."""
    active = set(graph.nodes())
    r = stage_count(max(1.0, float(delta_a)), graph.number_of_nodes())
    neighborhoods = _frozen_power_adjacency(graph, power, active) if r else {}
    q, stages, current = set(), [], set(active)
    for stage in range(1, r + 1):
        events = _FrozenStage(graph, current, stage, max(1.0, float(delta_a)), power,
                              neighborhoods)
        sampled, residual, method = stage_sampler(events)
        stages.append((stage, set(current), set(sampled), residual, method))
        q |= sampled
        current = current - current.intersection(bounded_bfs(graph, sampled, 2 * power))
    q |= current
    return q, stages, neighborhoods


def _frozen_det(graph, delta_a, power, method, rng):
    node_ids = _node_ids(graph)

    def sampler(events):
        if method == "per-variable":
            return _frozen_per_variable(events)
        if method == "seed-bits":
            return _frozen_seed_bits(events, node_ids, rng, samples_per_bit=6)
        sampled = _frozen_sample_stage(events, rng, node_ids, use_kwise=True)
        return sampled, events.bad_events(sampled), "randomized"

    return _frozen_run(graph, delta_a, power, sampler)


def _frozen_randomized(graph, delta_a, power, rng, use_kwise):
    node_ids = _node_ids(graph)

    def sampler(events):
        sampled = _frozen_sample_stage(events, rng, node_ids, use_kwise)
        return sampled, events.bad_events(sampled), None

    return _frozen_run(graph, delta_a, power, sampler)


# --------------------------------------------------------------------------
# Inputs.
# --------------------------------------------------------------------------
def _looped_graph():
    """Self-loops on a hub joined to every third node, on two ordinary
    nodes and on an otherwise isolated node."""
    graph = nx.gnp_random_graph(60, 0.08, seed=5)
    graph.add_edges_from((99, node) for node in range(0, 60, 3))
    graph.add_edges_from([(99, 99), (4, 4), (17, 17), (300, 300)])
    return graph


GRAPHS = {
    "grid-8x8": nx.grid_2d_graph(8, 8),  # tuple labels
    "strings-n96-d5": nx.relabel_nodes(random_regular_graph(96, 5, seed=3),
                                       lambda node: f"v{node}"),
    # Labels sharing their low hash bits: set layouts depend on how each
    # set was built.
    "regular-n96-d5-x1024": nx.relabel_nodes(random_regular_graph(96, 5, seed=4),
                                             lambda node: 1024 * node),
    "looped": _looped_graph(),
}

#: ``Delta_A`` per graph: two stages (``stage_count`` = 2) at every power.
DELTA_A = {"grid-8x8": 600, "strings-n96-d5": 700, "regular-n96-d5-x1024": 700,
           "looped": 700}

#: ``(graph, power, delta_a)`` for every run: the sparse graphs at powers
#: 1-3 and the graphs of the live-term cases at their own power.
RUNS = {f"{name}-power-{power}": (GRAPHS[name], power, DELTA_A[name])
        for name in GRAPHS for power in (1, 2, 3)}
RUNS.update({
    "star-499-power-1": (nx.star_graph(499), 1, 499),
    "star-520-centre-last-power-1": (nx.Graph([("zz", leaf) for leaf in range(520)]),
                                     1, 1000),
    "bipartite-2x498-power-1": (nx.complete_bipartite_graph(2, 498), 1, 498),
    "regular-16-130-power-2": (random_regular_graph(130, 16, seed=2), 2, 320),
})
for _name, (_graph, _, _delta) in RUNS.items():
    assert stage_count(_delta, _graph.number_of_nodes()) >= 1, _name


def _stage_inputs():
    """Stage-level inputs ``name -> (graph, power, active, stage, delta_a)``:
    the live-term cases as they are, and the sparse graphs at powers 1-3 in
    stages 1 and 2 over all nodes and over a 60% subset, with ``Delta_A``
    at four times the largest ``G^s`` degree so ``Phi`` is live."""
    inputs = {}
    for name, factory in LIVE_TERM_CASES.items():
        events = factory()
        inputs[name] = (events.graph, events.power, set(events.active),
                        events.stage, events.delta_a)
    for name, graph in GRAPHS.items():
        chooser = random.Random(len(name))
        subset = {node for node in graph if chooser.random() < 0.6}
        for power in (1, 2, 3):
            top = max(len(distance_neighborhood(graph, node, power)) for node in graph)
            for stage in (1, 2):
                for label, active in (("all", set(graph)), ("subset", subset)):
                    inputs[f"{name}-power-{power}-stage-{stage}-{label}"] = (
                        graph, power, active, stage, 4 * top)
    return inputs


STAGE_INPUTS = _stage_inputs()


# --------------------------------------------------------------------------
# Checks.
# --------------------------------------------------------------------------
def _assert_stage_matches(graph, power, active, stage, delta_a, neighborhoods):
    frozen = _FrozenStage(graph, active, stage, delta_a, power, neighborhoods)
    live = SparsificationStageEvents(graph=graph, active=set(active), stage=stage,
                                     delta_a=delta_a, power=power)
    assert list(live.active) == list(frozen.active)
    assert list(live.active_neighbors) == list(frozen.active_neighbors)
    assert list(live.active_neighbors.items()) == list(frozen.active_neighbors.items())
    assert list(live.high_degree_nodes) == list(frozen.high_degree_nodes)
    for node in graph:
        assert list(live.dependent_nodes(node)) == list(frozen.dependent_nodes(node)), node
    order = sorted(active, key=str)
    actual = list(conditional_expectations(live, order))
    expected = list(_frozen_conditional_expectations(frozen, order))
    assert [row[0] for row in actual] == [row[0] for row in expected]
    for row, reference in zip(actual, expected):
        assert row[3] == reference[3], row[0]
        # Bitwise: equal floats, not approximately equal ones.
        assert row[1].hex() == reference[1].hex(), row[0]
        assert row[2].hex() == reference[2].hex(), row[0]
    sampled = {row[0] for row in actual if row[3]}
    assert live.bad_events(sampled) == frozen.bad_events(sampled)
    return expected


@pytest.mark.parametrize("name", sorted(STAGE_INPUTS))
def test_stage_matches_frozen_stage(name):
    graph, power, active, stage, delta_a = STAGE_INPUTS[name]
    neighborhoods = _frozen_power_adjacency(graph, power, graph.nodes())
    rows = _assert_stage_matches(graph, power, active, stage, delta_a, neighborhoods)
    if name in LIVE_TERM_CASES:
        assert any(zero or one for _, zero, one, _ in rows), \
            "the case must compare a non-zero expectation"


def _assert_stages_match(live_stages, frozen_stages):
    assert len(live_stages) == len(frozen_stages)
    for record, (stage, active, sampled, _, _) in zip(live_stages, frozen_stages):
        assert record.stage == stage
        assert record.active_before == len(active)
        assert list(record.sampled) == list(sampled)


@pytest.mark.parametrize("method", ["per-variable", "seed-bits", "randomized"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_det_sparsification_matches_frozen_run(name, method):
    graph, power, delta_a = RUNS[name]
    frozen_rng = random.Random(11)
    q, stages, neighborhoods = _frozen_det(graph, delta_a, power, method, frozen_rng)
    rng = random.Random(11)
    result = det_sparsification(graph, delta_a=delta_a, power=power, method=method,
                                rng=rng)
    assert result.q == q
    _assert_stages_match(result.stages, stages)
    for record, (_, _, _, (phi, psi), frozen_method) in zip(result.stages, stages):
        assert record.outcome.method == frozen_method
        assert record.outcome.residual_phi == phi
        assert record.outcome.residual_psi == psi
    # Same draws, in the same number: the generators end in the same state.
    assert rng.random() == frozen_rng.random()
    if method == "per-variable":
        for stage, active, _, _, _ in stages:
            _assert_stage_matches(graph, power, active, stage, max(1.0, float(delta_a)),
                                  neighborhoods)


@pytest.mark.parametrize("use_kwise", [True, False])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_randomized_sparsification_matches_frozen_run(name, use_kwise):
    graph, power, delta_a = RUNS[name]
    frozen_rng = random.Random(5)
    q, stages, neighborhoods = _frozen_randomized(graph, delta_a, power, frozen_rng,
                                                  use_kwise)
    rng = random.Random(5)
    result = randomized_sparsification(graph, delta_a=delta_a, power=power, rng=rng,
                                       use_kwise=use_kwise)
    assert result.q == q
    _assert_stages_match(result.stages, stages)
    for record, (_, _, _, (phi, psi), _) in zip(result.stages, stages):
        assert record.phi_violations == phi
        assert record.psi_violations == psi
    assert rng.random() == frozen_rng.random()
    if not use_kwise:
        for stage, active, _, _, _ in stages:
            _assert_stage_matches(graph, power, active, stage, max(1.0, float(delta_a)),
                                  neighborhoods)
