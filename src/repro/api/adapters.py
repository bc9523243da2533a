"""Registered adapters: every algorithm in the library behind ``solve``.

Each adapter wraps one of the library's solver entry points in the uniform
``run(graph, ctx) -> AdapterOutcome`` shape.  Adapters never construct
randomness: graph-level algorithms receive ``ctx.rng`` (the single
``random.Random`` built by the solve path) and the simulator-native runners
receive ``ctx.seed`` for the CONGEST ID assignment and per-node RNGs --
the no-fan-out rule that keeps a RunReport reproducible from its provenance
block alone.

With an explicit ``seed=s`` the dispatch is bit-identical to calling the
legacy free function with ``rng=random.Random(s)`` /
``CongestNetwork(graph, id_seed=s)``; the parity suite in
``tests/test_api_parity.py`` locks this in for every pair.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.api.registry import AdapterOutcome, Algorithm, SolveContext, SolverRegistry
from repro.congest.batch import simulate_replicas
from repro.congest.network import CongestNetwork
from repro.core.detsparsify import det_sparsification
from repro.core.power_sparsify import (
    power_graph_sparsification,
    power_graph_sparsification_low_diameter,
)
from repro.core.sampling import randomized_sparsification
from repro.decomposition.ball_graph import form_distance_k_ball_graph
from repro.decomposition.network_decomposition import network_decomposition
from repro.graphs.power import nearest_ruler_balls
from repro.mis.beeping import BeepingMISNode, beeping_mis, beeping_mis_power
from repro.mis.kp12 import kp12_sparsify
from repro.mis.luby import LubyMISNode, luby_mis, luby_mis_power
from repro.mis.power_mis import power_graph_mis
from repro.mis.power_ruling import power_graph_ruling_set
from repro.mis.power_sim import PowerDetRulingNode, PowerLubyMISNode
from repro.mis.shattering import shattering_mis
from repro.ruling.aglp import aglp_ruling_set, id_based_ruling_set
from repro.ruling.det_ruling_set import deterministic_power_ruling_set
from repro.ruling.distributed import DetRulingSetNode
from repro.ruling.greedy import greedy_mis, greedy_ruling_set

Node = Hashable

__all__ = ["register_builtin_algorithms"]


def _default_node_ids(graph: nx.Graph) -> dict[Node, int]:
    """The library-wide canonical ID assignment (1-based, str-sorted)."""
    return {node: index + 1
            for index, node in enumerate(sorted(graph.nodes(), key=str))}


# --------------------------------------------------------------------- MIS
def _run_luby(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = luby_mis(graph, rng=ctx.rng)
    return AdapterOutcome(output=result.mis, rounds=result.rounds,
                          metrics={"steps": result.steps},
                          payload={"result": result})


def _run_luby_power(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = luby_mis_power(graph, ctx["k"], rng=ctx.rng)
    return AdapterOutcome(output=result.mis, rounds=result.rounds,
                          metrics={"steps": result.steps},
                          payload={"result": result})


def _run_beeping(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = beeping_mis(graph, steps=ctx["steps"], rng=ctx.rng)
    return AdapterOutcome(output=result.mis, rounds=result.rounds,
                          metrics={"steps": result.steps,
                                   "undecided": len(result.undecided)},
                          payload={"result": result})


def _run_beeping_power(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = beeping_mis_power(graph, ctx["k"], steps=ctx["steps"], rng=ctx.rng)
    return AdapterOutcome(output=result.mis, rounds=result.rounds,
                          metrics={"steps": result.steps,
                                   "undecided": len(result.undecided)},
                          payload={"result": result})


def _run_shattering_mis(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = shattering_mis(graph, approach=ctx["approach"],
                            pre_steps=ctx["pre_steps"], rng=ctx.rng)
    return AdapterOutcome(
        output=result.mis, rounds=result.rounds,
        metrics={"approach": result.approach,
                 "undecided_after_pre": len(result.undecided_after_pre),
                 "component_sizes": sorted(result.component_sizes, reverse=True)[:8]},
        payload={"result": result})


def _run_power_mis(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = power_graph_mis(graph, ctx["k"], rng=ctx.rng,
                             pre_steps=ctx["pre_steps"],
                             post_instances=ctx["post_instances"])
    return AdapterOutcome(
        output=result.mis, rounds=result.rounds,
        metrics={"ruling_set_size": result.ruling_set_size,
                 "undecided_after_pre": len(result.undecided_after_pre),
                 "component_sizes": sorted(result.component_sizes, reverse=True)[:8],
                 "phase_rounds": dict(result.phase_rounds)},
        payload={"result": result})


def _run_greedy_mis(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    mis = greedy_mis(graph, ctx["k"])
    return AdapterOutcome(output=mis, rounds=0,
                          metrics={"centralized": True})


# -------------------------------------------------------------- ruling sets
def _run_power_ruling(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    beta = int(ctx["beta"])
    result = power_graph_ruling_set(graph, ctx["k"], beta, rng=ctx.rng)
    return AdapterOutcome(
        output=result.ruling_set, rounds=result.rounds,
        metrics={"beta": beta, "chain_sizes": list(result.chain_sizes),
                 "phase_rounds": dict(result.phase_rounds)},
        payload={"alpha": result.alpha, "beta_bound": result.domination_bound,
                 "result": result})


def _run_det_power_ruling(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = deterministic_power_ruling_set(
        graph, ctx["k"], method=ctx["method"],
        use_network_decomposition=ctx["use_network_decomposition"], rng=ctx.rng)
    return AdapterOutcome(
        output=result.ruling_set, rounds=result.rounds,
        metrics={"q_size": len(result.q),
                 "phase_rounds": dict(result.phase_rounds)},
        payload={"alpha": result.alpha, "beta_bound": result.beta_bound,
                 "result": result})


def _run_aglp(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    k = ctx["k"]
    coloring = _default_node_ids(graph)
    result = aglp_ruling_set(graph, k, coloring, base=ctx["base"])
    return AdapterOutcome(
        output=result.ruling_set, rounds=result.rounds,
        metrics={"base": result.base, "digits": result.digits},
        payload={"alpha": k + 1, "beta_bound": result.domination_bound,
                 "result": result})


def _run_id_ruling(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    k = ctx["k"]
    result = id_based_ruling_set(graph, k, ctx["c"])
    return AdapterOutcome(
        output=result.ruling_set, rounds=result.rounds,
        metrics={"base": result.base, "digits": result.digits, "c": ctx["c"]},
        payload={"alpha": k + 1, "beta_bound": result.domination_bound,
                 "result": result})


def _run_greedy_ruling(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    alpha = int(ctx["alpha"])
    ruling = greedy_ruling_set(graph, alpha)
    return AdapterOutcome(output=ruling, rounds=0,
                          metrics={"centralized": True},
                          payload={"alpha": alpha, "beta_bound": alpha - 1})


# ------------------------------------------------------------ sparsification
def _run_sparsify(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = power_graph_sparsification(graph, ctx["k"], method=ctx["method"],
                                        rng=ctx.rng)
    return AdapterOutcome(
        output=result.q, rounds=result.rounds,
        metrics={"chain_sizes": [len(q) for q in result.sequence]},
        payload={"sequence": [set(q) for q in result.sequence],
                 "result": result})


def _run_sparsify_low_diameter(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = power_graph_sparsification_low_diameter(
        graph, ctx["k"], method=ctx["method"], rng=ctx.rng)
    return AdapterOutcome(
        output=result.q, rounds=result.rounds,
        metrics={"chain_sizes": [len(q) for q in result.sequence]},
        payload={"sequence": [set(q) for q in result.sequence],
                 "result": result})


def _run_det_sparsify(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = det_sparsification(graph, power=ctx["power"], method=ctx["method"],
                                rng=ctx.rng)
    return AdapterOutcome(
        output=result.q, rounds=result.rounds,
        metrics={"stages": len(result.stages), "method": result.method,
                 "violations": result.total_violations},
        payload={"active": set(graph.nodes()), "result": result})


def _run_randomized_sparsify(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = randomized_sparsification(graph, power=ctx["power"],
                                       use_kwise=ctx["use_kwise"], rng=ctx.rng)
    return AdapterOutcome(
        output=result.q, rounds=result.rounds,
        metrics={"stages": len(result.stages)},
        payload={"active": set(graph.nodes()), "result": result})


def _run_kp12_sparsify(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    result = kp12_sparsify(graph, ctx["k"], ctx["f"], rng=ctx.rng)
    return AdapterOutcome(
        output=result.q, rounds=result.rounds,
        metrics={"stages": result.stages, "f": result.f},
        payload={"candidates": set(graph.nodes()), "result": result})


# -------------------------------------------------------------- clustering
def _run_network_decomposition(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    decomposition = network_decomposition(graph, separation=ctx["separation"],
                                          rng=ctx.rng)
    centers = {cluster.center for cluster in decomposition.clusters}
    return AdapterOutcome(
        output=centers, rounds=0,
        metrics={"num_colors": decomposition.num_colors,
                 "num_clusters": len(decomposition.clusters),
                 "max_weak_diameter": decomposition.max_weak_diameter},
        payload={"decomposition": decomposition})


def _run_ball_graph(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
    k = ctx["k"]
    node_ids = _default_node_ids(graph)
    rulers = greedy_ruling_set(graph, alpha=2 * k + 1, key=str)
    # The greedy (2k+1, 2k)-ruling set dominates every node within 2k hops;
    # assign each node to its closest ruler (ties by string label).
    balls = nearest_ruler_balls(graph, graph.nodes(), rulers)
    ball_graph = form_distance_k_ball_graph(graph, balls, k=k, node_ids=node_ids)
    return AdapterOutcome(
        output=set(ball_graph.centers), rounds=0,
        metrics={"num_balls": len(balls),
                 "max_ball": max((len(b) for b in balls.values()), default=0)},
        payload={"ball_graph": ball_graph})


# ------------------------------------------------ simulator-native runners
def _sim_metrics(result) -> dict[str, object]:
    """Uniform metrics of a ``SimulationResult``, incl. engine observability.

    ``engine_requested`` is what the caller asked for; ``engine_used`` is
    what actually executed (they differ exactly when ``engine="vector"``
    fell back to its scalar reference -- also surfaced as a
    :class:`~repro.congest.vector_engine.VectorFallbackWarning`).
    """
    return {"messages": result.total_messages, "bits": result.total_bits,
            "engine": result.engine,
            "engine_requested": result.engine,
            "engine_used": result.engine_used or result.engine,
            "halted": result.halted}


def _batch_sim(graph: nx.Graph, ctxs: list[SolveContext], node_factory, *,
               greedy_reference: bool = False) -> list[AdapterOutcome]:
    """Run the contexts of one seed sweep as a single replica batch.

    The solve path guarantees all contexts share one config and differ only
    in seed, so the sweep maps onto
    :func:`repro.congest.batch.simulate_replicas` with the network
    construction ``CongestNetwork(graph, id_seed=seed)``; each outcome is
    bit-identical to the solo ``Simulator`` run of its seed.
    ``greedy_reference`` adds the run's IDs as the certifier's greedy-by-ID
    reference.
    """
    seeds = [ctx.seed for ctx in ctxs]
    networks = [CongestNetwork(graph, id_seed=seed) for seed in seeds]
    network_iter = iter(networks)
    # The factories built here close over the sweep's config and ignore the
    # node label, so the batch may verify one template per replica instead
    # of constructing all B * n node instances.
    results = simulate_replicas(
        graph, node_factory, seeds,
        engine=ctxs[0]["engine"], max_rounds=ctxs[0]["max_rounds"],
        network_factory=lambda seed: next(network_iter),
        uniform_factory=True)
    outcomes = []
    for network, result in zip(networks, results):
        node_ids = dict(network.ids)
        payload = {"node_ids": node_ids, "result": result}
        if greedy_reference:
            payload["greedy_reference_ids"] = node_ids
        outcomes.append(AdapterOutcome(
            output={node for node, joined in result.outputs.items() if joined},
            rounds=result.rounds, metrics=_sim_metrics(result),
            payload=payload))
    return outcomes


def _sim_algorithm(name: str, nodes, *, extra_defaults=(), randomized=True,
                   greedy_reference=False, description: str) -> Algorithm:
    """A simulator-native algorithm; ``nodes(config)`` is its node factory.

    ``run_batch`` sweeps its contexts as one replica batch and ``run`` is
    that batch with one context, so a solo solve and a seed sweep share one
    path.  The ``engine`` key selects the round engine ("sync" /
    "active-set" / "vector") and is seed-neutral: all engines derive the
    same seed and produce bit-identical reports, so a provenance recorded
    under one engine replays on any other.
    """
    def run_batch(graph: nx.Graph,
                  ctxs: list[SolveContext]) -> list[AdapterOutcome]:
        return _batch_sim(graph, ctxs, nodes(ctxs[0].config),
                          greedy_reference=greedy_reference)

    def run(graph: nx.Graph, ctx: SolveContext) -> AdapterOutcome:
        return run_batch(graph, [ctx])[0]

    return Algorithm(
        name, "mis-power", run,
        defaults=(("engine", "sync"), *extra_defaults, ("max_rounds", 10_000)),
        seed_neutral=("engine",), simulator_native=True,
        randomized=randomized, run_batch=run_batch, description=description)


def register_builtin_algorithms(registry: SolverRegistry) -> SolverRegistry:
    """Register every solver in the codebase (one registration = everywhere).

    The names are stable public API (locked by the surface snapshot test);
    the scenario runner, the benchmarks and the CLI all resolve them through
    this registry.
    """
    register = registry.register
    # MIS of G^k.
    register(Algorithm(
        "power-mis", "mis-power", _run_power_mis,
        defaults=(("k", 1), ("pre_steps", None), ("post_instances", None)),
        description="Theorem 1.2: randomized MIS of G^k via shattering"),
        default=True)
    register(Algorithm(
        "luby", "mis-power", _run_luby,
        description="Luby's MIS of G [Lub86] (graph-level, 2 rounds per step)"))
    register(Algorithm(
        "luby-power", "mis-power", _run_luby_power, defaults=(("k", 1),),
        description="Luby's algorithm on G^k (Section 8.1 baseline, O(k log n))"))
    register(Algorithm(
        "beeping", "mis-power", _run_beeping, defaults=(("steps", None),),
        description="BeepingMIS of G [Gha17]"))
    register(Algorithm(
        "beeping-power", "mis-power", _run_beeping_power,
        defaults=(("k", 1), ("steps", None)),
        description="BeepingMIS simulated on G^k with ID-tagged beeps (Lemma 8.2)"))
    register(Algorithm(
        "shattering-mis", "mis-power", _run_shattering_mis,
        defaults=(("approach", "two-phase"), ("pre_steps", None)),
        description="Theorem 1.4: revisited shattering MIS of G"))
    register(Algorithm(
        "greedy-mis", "mis-power", _run_greedy_mis, defaults=(("k", 1),),
        randomized=False,
        description="Centralized greedy MIS of G^k (reference, 0 rounds)"))
    # Ruling sets.
    register(Algorithm(
        "det-power-ruling", "ruling-set", _run_det_power_ruling,
        defaults=(("k", 1), ("method", "per-variable"),
                  ("use_network_decomposition", False)),
        description="Theorem 1.1: deterministic (k+1, k^2)-ruling set"),
        default=True)
    register(Algorithm(
        "power-ruling", "ruling-set", _run_power_ruling,
        defaults=(("k", 1), ("beta", 2)),
        description="Corollary 1.3: (k+1, beta*k)-ruling set of G^k"))
    register(Algorithm(
        "aglp", "ruling-set", _run_aglp, defaults=(("k", 1), ("base", 2)),
        randomized=False,
        description="Theorem 6.1 [AGLP89]: digit iteration over the ID coloring"))
    register(Algorithm(
        "id-ruling", "ruling-set", _run_id_ruling, defaults=(("k", 1), ("c", 2)),
        randomized=False,
        description="Corollary 6.2 [SEW13/KMW18]: (k+1, ck) in O(k c n^{1/c})"))
    register(Algorithm(
        "greedy-ruling", "ruling-set", _run_greedy_ruling, defaults=(("alpha", 2),),
        randomized=False,
        description="Centralized greedy (alpha, alpha-1)-ruling set (reference)"))
    # Sparsification.
    register(Algorithm(
        "sparsify", "sparsify-power", _run_sparsify,
        defaults=(("k", 1), ("method", "per-variable")),
        description="Lemma 3.1 / Algorithm 3: power-graph sparsification"),
        default=True)
    register(Algorithm(
        "sparsify-low-diameter", "sparsify-power", _run_sparsify_low_diameter,
        defaults=(("k", 1), ("method", "per-variable")),
        description="Lemma 5.8: diameter-free sparsification via decomposition"))
    register(Algorithm(
        "det-sparsify", "sparsify-stage", _run_det_sparsify,
        defaults=(("power", 1), ("method", "per-variable")),
        description="Algorithm 2 / Lemma 5.1: one DetSparsification run"),
        default=True)
    register(Algorithm(
        "randomized-sparsify", "sparsify-stage", _run_randomized_sparsify,
        defaults=(("power", 1), ("use_kwise", True)),
        description="Algorithm 1: randomized sparsification via sampling"))
    register(Algorithm(
        "kp12-sparsify", "degree-reduction", _run_kp12_sparsify,
        defaults=(("k", 1), ("f", 4.0)),
        description="[KP12/BKP14] degree reduction on G^k"),
        default=True)
    # Clustering.
    register(Algorithm(
        "network-decomposition", "decomposition", _run_network_decomposition,
        defaults=(("separation", 2),),
        description="Theorem A.1: weak-diameter decomposition with separation"),
        default=True)
    register(Algorithm(
        "ball-graph", "ball-graph", _run_ball_graph, defaults=(("k", 1),),
        randomized=False,
        description="Lemma 8.3: distance-k ball graph over a greedy ruling set"),
        default=True)
    # Simulator-native algorithms: the message-passing runtime.
    register(_sim_algorithm(
        "det-ruling-sim", lambda config: DetRulingSetNode,
        randomized=False, greedy_reference=True,
        description="Deterministic greedy MIS by ID minima on the "
                    "message-passing runtime"))
    register(_sim_algorithm(
        "luby-sim", lambda config: LubyMISNode,
        description="Luby's MIS of G on the message-passing runtime"))
    register(_sim_algorithm(
        "beeping-sim",
        lambda config: lambda node: BeepingMISNode(config["max_steps"]),
        extra_defaults=(("max_steps", 200),),
        description="BeepingMIS of G on the message-passing runtime"))
    register(_sim_algorithm(
        "power-luby-sim", lambda config: lambda node: PowerLubyMISNode(config["k"]),
        extra_defaults=(("k", 1),),
        description="Luby's MIS of G^k by k-hop flooding (2k rounds per "
                    "G^k step) on the message-passing runtime"))
    register(_sim_algorithm(
        "power-det-ruling-sim",
        lambda config: lambda node: PowerDetRulingNode(config["k"]),
        extra_defaults=(("k", 1),), randomized=False,
        description="Deterministic greedy MIS of G^k by ID minima "
                    "((k+1,k)-ruling set of G) on the message-passing runtime"))
    return registry
