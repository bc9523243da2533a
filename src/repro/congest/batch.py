"""Batched-replica execution: B seeds of one algorithm as one array program.

A seed sweep runs the same algorithm on the same graph under ``B`` different
seeds.  Run one replica at a time (or one process per replica, as the
solve scheduler's process shards do), every replica pays the full per-round
numpy dispatch overhead and its own copy of the graph.  The replica runner
instead executes all ``B`` replicas in *lockstep* on the vector engine's
array kernels (:class:`~repro.congest.vector_engine.ArrayKernel`, the same
kernels that run a solo ``engine="vector"`` run as ``B = 1``): per-node
state is a ``(B, n)`` array, every round is one set of segment reductions
over the **shared** base CSR arrays, and only the CONGEST identifiers (and
hence the RNG streams) differ per replica -- exactly what differs between
the corresponding solo runs, because ``CongestNetwork(graph, id_seed=seed)``
re-randomises the identifier assignment per seed while the adjacency
structure is fixed.

Bit-identity contract
---------------------
:func:`simulate_replicas` returns one :class:`SimulationResult` per seed that
is **bit-for-bit equal** to the result of the corresponding solo run::

    Simulator(CongestNetwork(graph, id_seed=s), factory,
              seed=s, engine="vector").run(max_rounds)

including outputs, round counts, total messages/bits and per-edge congestion.
Each replica takes the same successive values of its per-node
``random.Random(f"{seed}:{id}")`` streams as its solo run (a node-uniform
batch without holding a generator per node: see
:class:`~repro.congest.vector_engine._DrawTable`), and keeps its own
:class:`~repro.congest.transport.Transport` (so bandwidth enforcement and
congestion accounting stay per-replica) and its own round counter
(replicas that converge early simply stop contributing).  The
hypothesis suite in ``tests/test_replica_batch.py`` locks this down.

A batch takes the array path under the vector engine's one eligibility
rule (:func:`~repro.congest.vector_engine.eligible_kernel`), ambient
observers included.  Run-level (``vector_compatible``) observers see each
replica's ``on_run_start`` and ``on_run_end``: all B starts before the
kernel runs, then the B ends in replica order.  Any other observer, a
workload without a kernel, or structurally incompatible replicas make the
runner fall back to sequential solo runs -- still correct, observable via
:class:`BatchFallbackWarning` (a batch of one is a solo run: only the
vector engine's own fallback warning reports it).  The solver registry
runs every simulator-native solve, solo or sweep, through this runner.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

try:  # numpy is an optional accelerator, not a hard dependency
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None  # type: ignore[assignment]

from repro.congest.engine import resolve_engine
from repro.congest.network import CongestNetwork
from repro.congest.observers import RunContext, ambient_observers
from repro.congest.simulator import LazyEdgeCounts, SimulationResult, Simulator
from repro.congest.transport import Transport
from repro.congest.vector_engine import ArrayKernel, VectorEngine, eligible_kernel

__all__ = ["BatchFallbackWarning", "select_batch_kernel", "simulate_replicas"]


class BatchFallbackWarning(RuntimeWarning):
    """Emitted when a replica batch executes as sequential solo runs.

    The fallback is always correct (solo runs are the reference semantics),
    but a sweep that believes it measured the batched backend while the runs
    executed one by one would report numbers for the wrong code path.
    """


def _same_structure(topologies, graphs) -> bool:
    """Do all replicas share one adjacency structure (same graph object, or
    equal labels and CSR)?"""
    t0, first_graph = topologies[0], graphs[0]
    for topology, graph in zip(topologies, graphs):
        if topology is t0 or graph is first_graph:
            continue  # same graph -> identical structure by construction
        if (topology.labels != t0.labels
                or topology.indptr != t0.indptr
                or topology.neighbor_indices != t0.neighbor_indices):
            return False
    return True


def _start_runs(observer_rows, networks, topologies, transports) -> None:
    """Each replica's ``on_run_start``, as its solo run would call it."""
    for observers, network, topology, transport in zip(
            observer_rows, networks, topologies, transports):
        if observers:
            context = RunContext(network=network, topology=topology,
                                 transport=transport,
                                 engine=VectorEngine.name)
            for observer in observers:
                observer.on_run_start(context)


def _end_runs(observer_rows, results: Sequence[SimulationResult]) -> None:
    for observers, result in zip(observer_rows, results):
        for observer in observers:
            observer.on_run_end(result)


# ------------------------------------------------------------------- runner
def select_batch_kernel(sims: Sequence[Simulator],
                        ) -> type[ArrayKernel] | None:
    """The kernel that would batch ``sims``, or ``None`` (fallback).

    Pre-``initialize`` checks only: the vector engine's eligibility rule
    per replica (explicit and ambient observers alike), one kernel across
    every replica, and structurally identical topologies.  Exposed for
    tests and the benchmark gate.
    """
    if np is None or not sims:
        return None
    ambient = ambient_observers()
    kernels = {eligible_kernel(sim._instances, tuple(sim.observers) + ambient,
                               half_duplex=sim.half_duplex)
               for sim in sims}
    if len(kernels) != 1:
        return None
    if not _same_structure([sim.topology for sim in sims],
                           [sim.network.graph for sim in sims]):
        return None
    return kernels.pop()


def _run_batched(sims: Sequence[Simulator],
                 kernel_class: type[ArrayKernel],
                 max_rounds: int) -> list[SimulationResult] | None:
    """Run the batch kernel; ``None`` if the post-init gate rejects.

    Mirrors ``Simulator.run``'s envelope per replica: initialize, execute,
    finalize, collect -- so results are exactly what each solo vector run
    would have produced.  On ``None`` the instances are already initialized
    and the caller must rebuild its simulators.
    """
    for sim in sims:
        for instance in sim._instances:
            instance.initialize()
    rows = [sim._instances for sim in sims]
    if not kernel_class.supports(rows):
        return None
    topologies = [sim.topology for sim in sims]
    transports = [Transport(sim.topology,
                            bandwidth_bits=sim.network.bandwidth_bits,
                            enforce=sim.enforce_bandwidth)
                  for sim in sims]
    ambient = ambient_observers()
    observer_rows = [tuple(sim.observers) + ambient for sim in sims]
    _start_runs(observer_rows, [sim.network for sim in sims], topologies,
                transports)
    kernel = kernel_class.over_instances(topologies, rows, transports)
    rounds = kernel.run(max_rounds)
    kernel.writeback()
    results = [sim._finish(transport, int(rounds[replica]),
                           VectorEngine.name)
               for replica, (sim, transport)
               in enumerate(zip(sims, transports))]
    _end_runs(observer_rows, results)
    return results


def _run_batched_uniform(networks: Sequence[CongestNetwork],
                         algorithm_factory, seeds: Sequence[int],
                         max_rounds: int, enforce_bandwidth: bool,
                         ) -> list[SimulationResult] | None:
    """Batch without building per-node instances; ``None`` when no kernel
    applies (the caller falls back to the exact path).

    The caller vouches that ``algorithm_factory`` is *node-uniform*: it
    returns identically-configured instances for every node label, and
    ``initialize`` depends only on ``(class, parameters, n)`` and never
    halts.  Under that contract one template instance per replica pins down
    everything the kernel needs -- class, parameters, priority space -- and
    each replica draws from a table of its ``seed:id`` streams
    (:meth:`ArrayKernel.over_templates`), so results are still
    bit-identical to the solo runs while skipping the ``O(B * n)`` instance
    construction, the per-node generators and the scalar route tables.
    """
    if np is None or not networks:
        return None
    topologies = [network.topology() for network in networks]
    t0 = topologies[0]
    if t0.n == 0 or not _same_structure(
            topologies, [network.graph for network in networks]):
        return None

    labels = t0.labels
    # Node 0's neighbours from the CSR: the route tables stay unbuilt.
    neighbors = tuple(map(labels.__getitem__, t0.neighbors(0)))
    templates = []
    for topology, seed in zip(topologies, seeds):
        template = Simulator._instantiate(algorithm_factory, labels[0])
        Simulator._bind(template, topology, 0, seed, neighbors)
        template.initialize()
        if template.halted:
            return None  # initialize() halts: outside the uniform contract
        templates.append(template)
    observers = ambient_observers()
    kernel_class = eligible_kernel(templates, observers)
    if kernel_class is None or not kernel_class.supports(
            [[template] for template in templates]):
        return None

    transports = [Transport(topology,
                            bandwidth_bits=network.bandwidth_bits,
                            enforce=enforce_bandwidth)
                  for topology, network in zip(topologies, networks)]
    observer_rows = [observers] * len(networks)
    _start_runs(observer_rows, networks, topologies, transports)
    kernel = kernel_class.over_templates(topologies, templates, transports,
                                         seeds)
    rounds = kernel.run(max_rounds)

    # Every kernel's node class settles each node in finalize() with output
    # ``in the set``, so the result is fully determined by the kernel's
    # membership mask (the contract the exact path's writeback + finalize
    # envelope arrives at instance by instance).
    in_set = kernel.outcome["in_set"]
    results = [SimulationResult(
                   rounds=int(rounds[replica]),
                   total_messages=transport.total_messages,
                   total_bits=transport.total_bits,
                   outputs=dict(zip(labels, in_set[replica].tolist())),
                   halted=True,
                   edge_message_counts=LazyEdgeCounts(transport),
                   engine=VectorEngine.name,
                   engine_used=VectorEngine.name)
               for replica, transport in enumerate(transports)]
    _end_runs(observer_rows, results)
    return results


def simulate_replicas(graph, algorithm_factory, seeds: Sequence[int], *,
                      engine="vector", max_rounds: int = 10_000,
                      enforce_bandwidth: bool = True,
                      network_factory: Callable[[int], CongestNetwork] | None = None,
                      uniform_factory: bool = False,
                      ) -> list[SimulationResult]:
    """Run one algorithm under many seeds; one ``SimulationResult`` per seed.

    Each seed ``s`` reproduces exactly the solo run over
    ``network_factory(s)`` (default ``CongestNetwork(graph, id_seed=s)``)
    with ``Simulator(..., seed=s, engine=engine)``: the seed re-randomises
    both the identifier assignment and the per-node RNG streams, as the
    solver registry does.  When ``engine="vector"`` and an array kernel covers
    the algorithm, all replicas execute in lockstep as one ``(B, n)`` array
    program over the shared CSR; otherwise the runner warns
    (:class:`BatchFallbackWarning`, for more than one seed) and runs the
    replicas sequentially.

    ``uniform_factory=True`` asserts that ``algorithm_factory`` ignores the
    node label (and that ``initialize`` depends only on the class,
    parameters and ``n`` -- true for every kernel's node class).  The
    batch then skips building the ``B * n`` node instances and verifies the
    factory against one template instance per replica instead; outputs stay
    bit-identical.  By default (``False``) every instance is built and
    checked, so arbitrary per-node factories are detected and safely fall
    back to sequential runs.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    if network_factory is None:
        if graph is None:
            raise ValueError("either graph or network_factory is required")
        network_factory = lambda seed: CongestNetwork(graph, id_seed=seed)
    networks = [network_factory(seed) for seed in seeds]

    if uniform_factory and resolve_engine(engine).name == VectorEngine.name:
        results = _run_batched_uniform(networks, algorithm_factory, seeds,
                                       max_rounds, enforce_bandwidth)
        if results is not None:
            return results

    def build() -> list[Simulator]:
        return [Simulator(network, algorithm_factory, seed=seed,
                          engine=engine,
                          enforce_bandwidth=enforce_bandwidth)
                for network, seed in zip(networks, seeds)]

    sims = build()
    if sims[0].engine.name == VectorEngine.name:
        kernel_class = select_batch_kernel(sims)
        if kernel_class is not None:
            results = _run_batched(sims, kernel_class, max_rounds)
            if results is not None:
                return results
            sims = build()  # the failed attempt initialized the instances
        if len(sims) > 1:  # a batch of one is a solo run: its engine warns
            node_class = (type(sims[0]._instances[0]).__name__
                          if sims[0]._instances else "(no instances)")
            warnings.warn(
                f"replica batch fell back to sequential runs for {node_class} "
                f"(no array kernel applies; results are bit-identical, "
                f"performance is not)", BatchFallbackWarning, stacklevel=2)
    return [sim.run(max_rounds) for sim in sims]
