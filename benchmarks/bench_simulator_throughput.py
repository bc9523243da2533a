"""Experiment SIM-THROUGHPUT -- round throughput of the layered CONGEST runtime.

Measures simulator throughput (rounds per second) on the Table-1 landscape
workload (``regular(n=2000, d=4)``) for two schedulers:

* ``legacy`` -- a frozen copy of the pre-refactor monolithic round loop
  (networkx adjacency queries, per-message ``str()`` edge keys, a fresh
  inbox dict for every node every round), kept here as the baseline the
  perf trajectory is tracked against;
* ``sync`` -- the layered runtime's scalar :class:`SyncEngine`.

Workloads: Luby MIS (long halting tail), the deterministic ruling set,
BeepingMIS and BFS layering (flooding -- the dense case).  Both schedulers
must produce identical outputs, rounds and message totals before their
timings count.  Each timing covers building the simulator and running it:
the legacy loop binds every node's RNG and neighbour-ID table when it is
built, ``Simulator`` binds them lazily during the run, and a solve pays
for both.  The two share one prebuilt network and topology snapshot.

The acceptance bar of the layered-runtime refactor is ``sync``
achieving >= 2x the legacy rounds/sec on the regular(n=2000,d=4) landscape
workload, measured as the geometric mean across its algorithm rows (with a
1.5x floor on every individual row); the run fails loudly if that
regresses.  ``--smoke`` (or ``SMOKE=1``) runs a reduced n=300 sweep without
the assertion, for CI.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
import time
from typing import Any, Callable, Hashable, Mapping, Type

from harness import print_and_store
from repro.analysis.tables import format_table
from repro.congest import CongestNetwork, NodeAlgorithm
from repro.congest.message import message_bits
from repro.congest.primitives import BFSLayering
from repro.congest.simulator import BandwidthExceededError, SimulationResult, Simulator
from repro.graphs import random_regular_graph
from repro.mis.beeping import BeepingMISNode
from repro.mis.luby import LubyMISNode
from repro.ruling.distributed import DetRulingSetNode

Node = Hashable

EXPERIMENT_ID = "sim_throughput"
SPEEDUP_TARGET = 2.0     # geometric mean across the workload's rows
ROW_SPEEDUP_FLOOR = 1.5  # every individual row must clear this


# --------------------------------------------------------------------- legacy
class LegacySimulator:
    """The pre-refactor monolithic scheduler, frozen as the perf baseline.

    This is the seed repository's ``Simulator`` verbatim (modulo the class
    name): per-round inbox dicts for all nodes, ``network.has_edge`` per
    message, ``str()``-normalised edge keys, inlined counters.  Do not
    "improve" it -- its whole point is to stay what the refactor is measured
    against.
    """

    def __init__(self, network: CongestNetwork,
                 algorithm_factory: Type[NodeAlgorithm] | Callable[[Node], NodeAlgorithm],
                 *, seed: int = 0, enforce_bandwidth: bool = True) -> None:
        self.network = network
        self.seed = seed
        self.enforce_bandwidth = enforce_bandwidth
        self.nodes: dict[Node, NodeAlgorithm] = {}
        for node in network.nodes():
            if isinstance(algorithm_factory, type) and issubclass(algorithm_factory,
                                                                  NodeAlgorithm):
                instance = algorithm_factory()
            else:
                instance = algorithm_factory(node)
            instance.node = node
            instance.node_id = network.node_id(node)
            instance.neighbors = tuple(network.neighbors(node))
            instance.neighbor_ids = {nbr: network.node_id(nbr)
                                     for nbr in instance.neighbors}
            instance.n = network.n
            instance.rng = random.Random(f"{self.seed}:{network.node_id(node)}")
            self.nodes[node] = instance

    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        for instance in self.nodes.values():
            instance.initialize()

        total_messages = 0
        total_bits = 0
        edge_counts: dict[tuple[Node, Node], int] = {}
        rounds = 0

        for round_number in range(1, max_rounds + 1):
            if all(instance.halted for instance in self.nodes.values()):
                break
            rounds = round_number

            inboxes: dict[Node, dict[Node, Any]] = {node: {} for node in self.nodes}
            edge_load: dict[tuple[Node, Node], int] = {}
            any_message = False
            for node, instance in self.nodes.items():
                if instance.halted:
                    continue
                outbox = instance.send(round_number) or {}
                for neighbor, payload in outbox.items():
                    if payload is Ellipsis:
                        continue
                    if not self.network.has_edge(node, neighbor):
                        raise ValueError(
                            f"node {node!r} attempted to send to non-neighbor {neighbor!r}")
                    size = message_bits(payload)
                    key = ((node, neighbor) if str(node) <= str(neighbor)
                           else (neighbor, node))
                    edge_load[key] = edge_load.get(key, 0) + size
                    if self.enforce_bandwidth and size > self.network.bandwidth_bits:
                        raise BandwidthExceededError(
                            f"message of {size} bits from {node!r} to {neighbor!r} "
                            f"exceeds bandwidth {self.network.bandwidth_bits}")
                    inboxes[neighbor][node] = payload
                    edge_counts[key] = edge_counts.get(key, 0) + 1
                    total_messages += 1
                    total_bits += size
                    any_message = True

            for node, instance in self.nodes.items():
                if instance.halted:
                    continue
                instance.receive(round_number, inboxes[node])

            if not any_message and all(inst.halted for inst in self.nodes.values()):
                break

        for instance in self.nodes.values():
            instance.finalize()

        outputs = {node: instance.output for node, instance in self.nodes.items()}
        halted = all(instance.halted for instance in self.nodes.values())
        return SimulationResult(
            rounds=rounds,
            total_messages=total_messages,
            total_bits=total_bits,
            outputs=outputs,
            halted=halted,
            edge_message_counts=edge_counts,
            engine="legacy-monolith",
        )


# ------------------------------------------------------------------ workloads
def _algorithms(graph) -> list[tuple[str, Callable[[Node], NodeAlgorithm] | type, int]]:
    source = next(iter(graph.nodes()))
    return [
        ("luby-mis", LubyMISNode, 2_000),
        ("det-ruling", DetRulingSetNode, 4_000),
        ("beeping-mis",
         lambda node: BeepingMISNode(max_steps=600), 2_000),
        ("bfs-layering",
         lambda node: BFSLayering(is_source=(node == source)), 2_000),
    ]


def _check_agreement(name: str, results: Mapping[str, SimulationResult]) -> None:
    reference = results["legacy"]
    for scheduler, result in results.items():
        same = (result.outputs == reference.outputs
                and result.rounds == reference.rounds
                and result.total_messages == reference.total_messages
                and result.total_bits == reference.total_bits)
        if not same:
            raise AssertionError(
                f"{name}: scheduler {scheduler!r} disagrees with the legacy "
                f"baseline (rounds {result.rounds} vs {reference.rounds}, "
                f"messages {result.total_messages} vs {reference.total_messages})")


def _time_build_and_run(make: Callable[[], Any], max_rounds: int,
                        ) -> tuple[float, SimulationResult]:
    """Rounds per second of one ``make().run(max_rounds)``, building the
    simulator inside the timed region."""
    start = time.perf_counter()
    result = make().run(max_rounds)
    elapsed = time.perf_counter() - start
    return (result.rounds / elapsed if elapsed > 0 else 0.0), result


def experiment_throughput(*, smoke: bool = False) -> list[dict[str, object]]:
    sizes = [300] if smoke else [2000]
    repeats = 1 if smoke else 5
    seed = 1
    rows: list[dict[str, object]] = []
    for n in sizes:
        graph = random_regular_graph(n, 4, seed=seed)
        workload = f"regular(n={n},d=4)"
        for algo_name, factory, max_rounds in _algorithms(graph):
            network = CongestNetwork(graph, id_seed=seed)
            network.topology()  # build the snapshot once, outside the timing
            makers = {
                "legacy": lambda: LegacySimulator(network, factory,
                                                  seed=seed),
                "sync": lambda: Simulator(network, factory, seed=seed),
            }
            results: dict[str, SimulationResult] = {}
            samples: dict[str, list[float]] = {name: [] for name in makers}
            for make in makers.values():  # untimed warmup (caches, allocator)
                make().run(max_rounds)
            # Interleave the schedulers across repeats so CPU frequency
            # drift hits both equally; the median per scheduler is
            # robust against a single lucky or throttled run.
            for _ in range(repeats):
                for name, make in makers.items():
                    rate, results[name] = _time_build_and_run(make,
                                                              max_rounds)
                    samples[name].append(rate)
            rates = {name: statistics.median(values)
                     for name, values in samples.items()}

            _check_agreement(f"{workload}/{algo_name}", results)
            speedup = (rates["sync"] / rates["legacy"]
                       if rates["legacy"] else float("inf"))
            rows.append({
                "workload": workload,
                "algorithm": algo_name,
                "rounds": results["legacy"].rounds,
                "messages": results["legacy"].total_messages,
                "legacy_rps": round(rates["legacy"], 1),
                "sync_rps": round(rates["sync"], 1),
                "speedup": round(speedup, 2),
            })
    return rows


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv or os.environ.get("SMOKE") == "1"
    rows = experiment_throughput(smoke=smoke)
    notes = ("rounds/sec, median of interleaved repeats, each timing "
             "simulator construction plus the run; speedup = sync vs the "
             "frozen pre-refactor loop. Outputs/rounds/messages verified "
             "identical across both schedulers before timing counts.")
    if smoke:
        # Print only: a reduced smoke sweep must not overwrite the stored
        # full-sweep results that the perf trajectory cites.
        print()
        print(format_table(rows, title=f"[{EXPERIMENT_ID}/smoke]"))
        print(notes)
    else:
        print_and_store(EXPERIMENT_ID, rows, notes=notes)
    if not smoke:
        speedups = [float(row["speedup"]) for row in rows]
        geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        worst = min(speedups)
        print(f"workload speedup: geomean {geomean:.2f}x, worst row {worst:.2f}x")
        if geomean < SPEEDUP_TARGET or worst < ROW_SPEEDUP_FLOOR:
            print(f"FAIL: target is geomean >= {SPEEDUP_TARGET}x with every "
                  f"row >= {ROW_SPEEDUP_FLOOR}x", file=sys.stderr)
            return 1
        print(f"OK: >= {SPEEDUP_TARGET}x (geomean) over the legacy simulator")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
