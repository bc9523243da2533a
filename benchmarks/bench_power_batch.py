"""Experiment POWER-BATCH -- virtual ``G^k`` solves and batched replicas.

Two perf claims of the virtual-power-view layer, measured together because
they share the workload:

* **Power solves stay vectorized and never materialize ``G^k``.**  The
  registered power programs (Luby MIS of ``G^k``, deterministic ruling set
  of ``G^k``) run as batched array rounds over the *base* CSR -- ``2k``
  sub-rounds per ``G^k`` step -- so the speedup of ``vector`` over ``sync``
  must hold at power scale.  The full sweep (``n = 10^5``) asserts a
  **>= 10x geometric-mean speedup** and, via :mod:`tracemalloc`, that the
  vector run's peak allocation stays **below the estimated bytes of a
  materialized ``G^k`` CSR** (:meth:`PowerView.estimated_power_csr_bytes`).
* **Replica batches beat sequential sweeps.**  ``simulate_replicas`` runs
  ``B = 8`` seeds as one ``(B, n)`` array program over the shared CSR
  (``uniform_factory=True``: the sweep's factories are node-uniform, so no
  per-node instances are built).  The baseline is the schedule the scenario
  sweep actually ran before the batch runner existed: one solo solve per
  seed on the **default sync engine**.  The sweep asserts a **>= B/2
  effective-replica speedup** (total sequential time over batch time,
  geometric mean across rows) after checking every batched replica
  bit-identical to its sequential reference -- the cross-engine equivalence
  suite is what makes that comparison apples-to-apples.

Both modes -- ``--smoke`` (CI) and the full sweep -- **fail loudly on
silent fallback**: every row run under ``engine="vector"`` must report
``engine_used == "vector"``, and the replica batch must not raise
:class:`BatchFallbackWarning` (warnings are promoted to errors).  A nonzero
exit here is the CI gate of the batched-replica PR.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
import tracemalloc
import warnings
from typing import Callable, Hashable, Mapping

from harness import ensure_results_dir, print_and_store, time_rounds_per_sec
from repro.analysis.tables import format_table
from repro.congest import CongestNetwork, NodeAlgorithm, Simulator
from repro.congest.batch import BatchFallbackWarning, simulate_replicas
from repro.congest.simulator import SimulationResult
from repro.graphs import random_regular_graph
from repro.mis.power_sim import PowerDetRulingNode, PowerLubyMISNode
from repro.ruling.distributed import DetRulingSetNode

Node = Hashable

EXPERIMENT_ID = "power_batch"
K = 2
REPLICAS = 8
POWER_SPEEDUP_TARGET = 10.0        # geomean, vector vs sync, full sweep only
REPLICA_SPEEDUP_FLOOR = REPLICAS / 2  # geomean, batch vs sequential, any mode
SEED = 1


def _power_workloads(*, smoke: bool):
    if smoke:
        return [("regular(n=2000,d=8)", random_regular_graph(2000, 8, seed=SEED))]
    return [("regular(n=100000,d=10)",
             random_regular_graph(100_000, 10, seed=SEED))]


def _replica_workloads(*, smoke: bool):
    if smoke:
        return [("regular(n=2000,d=8)", random_regular_graph(2000, 8, seed=SEED))]
    return [("regular(n=20000,d=8)", random_regular_graph(20_000, 8, seed=SEED))]


def _power_algorithms() -> list[tuple[str, Callable[[Node], NodeAlgorithm]]]:
    return [
        (f"power-luby(k={K})", lambda node: PowerLubyMISNode(K)),
        (f"power-det-ruling(k={K})", lambda node: PowerDetRulingNode(K)),
    ]


def _replica_algorithms() -> list[tuple[str, Callable[[Node], NodeAlgorithm]]]:
    return [
        ("det-ruling", DetRulingSetNode),
        (f"power-det-ruling(k={K})", lambda node: PowerDetRulingNode(K)),
        (f"power-luby(k={K})", lambda node: PowerLubyMISNode(K)),
    ]


def _assert_identical(name: str, result: SimulationResult,
                      reference: SimulationResult) -> None:
    same = (result.outputs == reference.outputs
            and result.rounds == reference.rounds
            and result.total_messages == reference.total_messages
            and result.total_bits == reference.total_bits
            and result.edge_message_counts == reference.edge_message_counts)
    if not same:
        raise AssertionError(
            f"{name}: results diverge from the reference "
            f"(rounds {result.rounds} vs {reference.rounds}, messages "
            f"{result.total_messages} vs {reference.total_messages}) -- "
            f"bit-identity must hold before throughput means anything")


def _require_vectorized(name: str, result: SimulationResult,
                        fallbacks: list[str]) -> None:
    if result.engine_used != "vector":
        fallbacks.append(f"{name}: engine_used={result.engine_used!r}")


# ------------------------------------------------------- power-solve family
def _built_simulator(network, factory, engine: str) -> Simulator:
    """A simulator with its per-node RNG streams already bound.

    ``time_rounds_per_sec`` excludes the builder from the timed region so the
    number measures the round loop, not instance construction -- but the n
    RNG streams are bound lazily on first draw, which would otherwise charge
    ~n Mersenne seedings (the same cost on every engine) to whichever run
    draws first.  Forcing them here keeps the builder contract honest for
    both engines.
    """
    simulator = Simulator(network, factory, seed=SEED, engine=engine)
    for instance in simulator._instances:
        instance.rng
    return simulator


def experiment_power_vector(*, smoke: bool,
                            fallbacks: list[str]) -> list[dict[str, object]]:
    """Vector-vs-sync throughput of the power programs + the memory gate."""
    repeats = 1 if smoke else 3
    rows: list[dict[str, object]] = []
    for workload, graph in _power_workloads(smoke=smoke):
        network = CongestNetwork(graph, id_seed=SEED)
        snapshot = network.topology()  # shared, built outside the timing
        power_csr_bytes = snapshot.power_view(K).estimated_power_csr_bytes()
        for algo_name, factory in _power_algorithms():
            name = f"{workload}/{algo_name}"
            results: dict[str, SimulationResult] = {}
            samples: dict[str, list[float]] = {"sync": [], "vector": []}
            for engine in samples:  # untimed warmup (caches, allocator)
                Simulator(network, factory, seed=SEED, engine=engine).run(10_000)
            for _ in range(repeats):
                for engine in samples:
                    rate, results[engine] = time_rounds_per_sec(
                        lambda engine=engine: _built_simulator(
                            network, factory, engine),
                        max_rounds=10_000, repeats=1)
                    samples[engine].append(rate)
            rates = {engine: statistics.median(values)
                     for engine, values in samples.items()}
            _assert_identical(name, results["vector"], results["sync"])
            _require_vectorized(name, results["vector"], fallbacks)

            # Memory gate: the vector round loop must stay below what a
            # materialized G^k CSR would cost -- G^k is never built.  The
            # simulator (including the n per-node RNG streams, ~2.5 KB of
            # Mersenne state each -- dwarfing any CSR at this scale) is built
            # outside the traced region: the claim is about the solve, not
            # protocol state.
            simulator = _built_simulator(network, factory, "vector")
            tracemalloc.start()
            simulator.run(10_000)
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            if not smoke and peak_bytes >= power_csr_bytes:
                # Asserted at power scale (n >= 10^5); at smoke sizes both
                # numbers are a few hundred KiB and the comparison is noise.
                raise AssertionError(
                    f"{name}: vector solve peaked at {peak_bytes} bytes, not "
                    f"below the materialized-G^k estimate {power_csr_bytes}")

            speedup = (rates["vector"] / rates["sync"]
                       if rates["sync"] else float("inf"))
            rows.append({
                "workload": workload,
                "algorithm": algo_name,
                "rounds": results["sync"].rounds,
                "sync_rps": round(rates["sync"], 1),
                "vector_rps": round(rates["vector"], 1),
                "speedup": round(speedup, 2),
                "peak_mib": round(peak_bytes / 2 ** 20, 2),
                "gk_csr_mib": round(power_csr_bytes / 2 ** 20, 2),
            })
    return rows


# --------------------------------------------------------- replica family
def _time_batch(graph, factory, seeds) -> tuple[float, list[SimulationResult]]:
    with warnings.catch_warnings():
        warnings.simplefilter("error", BatchFallbackWarning)
        start = time.perf_counter()
        results = simulate_replicas(
            None, factory, seeds, engine="vector", uniform_factory=True,
            network_factory=lambda seed: CongestNetwork(graph, id_seed=seed))
        elapsed = time.perf_counter() - start
    return elapsed, results


def _time_sequential(graph, factory, seeds) -> tuple[float, list[SimulationResult]]:
    """The pre-batch sweep schedule: one solo solve per seed, default engine."""
    networks = [CongestNetwork(graph, id_seed=seed) for seed in seeds]
    for network in networks:
        network.topology()  # snapshot construction is not the claim
    start = time.perf_counter()
    results = [Simulator(network, factory, seed=seed, engine="sync").run(10_000)
               for network, seed in zip(networks, seeds)]
    elapsed = time.perf_counter() - start
    return elapsed, results


def experiment_replica_batch(*, smoke: bool,
                             fallbacks: list[str]) -> list[dict[str, object]]:
    """Batched B-replica sweeps vs the sequential per-seed sweep schedule."""
    # Median of 3 in smoke mode too: the replica geomean is a hard CI gate,
    # and a single noisy repeat on a shared runner is not worth a red build.
    repeats = 3
    seeds = [SEED + 13 * index for index in range(REPLICAS)]
    rows: list[dict[str, object]] = []
    for workload, graph in _replica_workloads(smoke=smoke):
        for algo_name, factory in _replica_algorithms():
            name = f"{workload}/{algo_name}/B={REPLICAS}"
            _time_batch(graph, factory, seeds)  # untimed warmup
            batch_times, seq_times = [], []
            batch_results = seq_results = None
            for _ in range(repeats):
                elapsed, batch_results = _time_batch(graph, factory, seeds)
                batch_times.append(elapsed)
                elapsed, seq_results = _time_sequential(graph, factory, seeds)
                seq_times.append(elapsed)
            for seed, batched, solo in zip(seeds, batch_results, seq_results):
                _assert_identical(f"{name}/seed={seed}", batched, solo)
                _require_vectorized(f"{name}/seed={seed}", batched, fallbacks)
            batch_s = statistics.median(batch_times)
            seq_s = statistics.median(seq_times)
            speedup = seq_s / batch_s if batch_s else float("inf")
            rows.append({
                "workload": workload,
                "algorithm": algo_name,
                "replicas": REPLICAS,
                "seq_s": round(seq_s, 4),
                "batch_s": round(batch_s, 4),
                "speedup": round(speedup, 2),
            })
    return rows


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _write_json(path: str, power_rows, replica_rows, *, smoke: bool,
                fallbacks: list[str]) -> None:
    document = {
        "experiment": EXPERIMENT_ID,
        "smoke": smoke,
        "k": K,
        "replicas": REPLICAS,
        "power_rows": power_rows,
        "replica_rows": replica_rows,
        "fallbacks": fallbacks,
        "summary": {
            "power_geomean_speedup": round(_geomean(
                [float(row["speedup"]) for row in power_rows]), 3),
            "replica_geomean_speedup": round(_geomean(
                [float(row["speedup"]) for row in replica_rows]), 3),
            "power_target_geomean": POWER_SPEEDUP_TARGET,
            "replica_target_geomean": REPLICA_SPEEDUP_FLOOR,
        },
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv or os.environ.get("SMOKE") == "1"
    output = None
    if "--output" in argv:
        output = argv[argv.index("--output") + 1]
    fallbacks: list[str] = []
    power_rows = experiment_power_vector(smoke=smoke, fallbacks=fallbacks)
    replica_rows = experiment_replica_batch(smoke=smoke, fallbacks=fallbacks)

    notes = (f"power rows: rounds/sec, median of repeats; speedup = vector "
             f"vs sync; peak_mib = tracemalloc peak of the vector solve, "
             f"asserted < gk_csr_mib (estimated materialized-G^k CSR). "
             f"replica rows: wall time for B={REPLICAS} seeds; speedup = "
             f"sequential per-seed solves on the default sync engine (the "
             f"pre-batch sweep schedule) vs one batched vector run, "
             f"bit-identity checked per replica.")
    if smoke:
        # Print only: the reduced smoke sweep must not overwrite the stored
        # full-sweep results that the perf trajectory cites.
        print()
        print(format_table(power_rows, title=f"[{EXPERIMENT_ID}/power/smoke]"))
        print(format_table(replica_rows,
                           title=f"[{EXPERIMENT_ID}/replicas/smoke]"))
        print(notes)
    else:
        print_and_store(f"{EXPERIMENT_ID}_power", power_rows, notes=notes)
        print_and_store(f"{EXPERIMENT_ID}_replicas", replica_rows)
    if output:
        ensure_results_dir()
        _write_json(output, power_rows, replica_rows, smoke=smoke,
                    fallbacks=fallbacks)

    status = 0
    if fallbacks:
        # The CI gate: a registered vector program silently degrading to the
        # scalar path invalidates every number above.
        print("FAIL: silent sync fallback on a registered vector program:",
              file=sys.stderr)
        for line in fallbacks:
            print(f"  {line}", file=sys.stderr)
        status = 1
    power_geomean = _geomean([float(row["speedup"]) for row in power_rows])
    replica_geomean = _geomean([float(row["speedup"]) for row in replica_rows])
    print(f"power-solve speedup: geomean {power_geomean:.2f}x "
          f"(target {POWER_SPEEDUP_TARGET}x, full sweep only)")
    print(f"replica-batch speedup: geomean {replica_geomean:.2f}x "
          f"(target {REPLICA_SPEEDUP_FLOOR}x)")
    if not smoke and power_geomean < POWER_SPEEDUP_TARGET:
        print(f"FAIL: power-solve target is geomean >= "
              f"{POWER_SPEEDUP_TARGET}x over the sync engine", file=sys.stderr)
        status = 1
    if replica_geomean < REPLICA_SPEEDUP_FLOOR:
        print(f"FAIL: replica-batch target is geomean >= "
              f"{REPLICA_SPEEDUP_FLOOR}x over sequential runs", file=sys.stderr)
        status = 1
    if status == 0:
        print("OK: vectorized power solves and batched replicas on target")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
