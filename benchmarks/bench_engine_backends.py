"""Experiment ENGINE-BACKENDS -- round throughput of the vectorized engine.

Measures simulator round throughput (rounds per second) for the three
engine backends of the layered CONGEST runtime:

* ``sync`` -- the scalar reference :class:`SyncEngine`;
* ``active-set`` -- :class:`ActiveSetEngine` (skips halted nodes);
* ``vector`` -- :class:`VectorEngine`, which executes whole rounds as
  batched numpy array operations over the CSR topology snapshot.

Workloads are the large-graph mix the vector engine was built for:
``regular(n=20000, d=8)`` (the Table-1 landscape workload scaled 10x past
what the scalar engines serve comfortably) and a dense-core-with-pendant-
paths family (wildly heterogeneous degrees -- the adversarial regime for
anything assuming near-regularity).  Algorithms are the three vectorized
programs: Luby MIS, BeepingMIS and the deterministic ruling set.

Every row is agreement-checked first: outputs, rounds, message totals, bit
totals and per-edge congestion must be bit-identical across all three
engines before any timing counts (the differential matrix of
``tests/test_engine_equivalence.py``, re-run at benchmark scale).

The acceptance bar of the vector-engine PR is a **>= 3x geometric-mean
speedup of ``vector`` over ``sync``** across the full-sweep rows (with a
1.5x floor on every individual row); the run fails loudly if that
regresses.  ``--smoke`` (or ``SMOKE=1``) runs a reduced sweep without the
assertion, for CI; ``--output PATH`` additionally writes the rows plus
summary as JSON (the CI artifact next to the service-throughput numbers).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Callable, Hashable, Mapping

from harness import ensure_results_dir, print_and_store, time_rounds_per_sec
from repro.analysis.tables import format_table
from repro.congest import CongestNetwork, NodeAlgorithm, Simulator
from repro.congest.simulator import SimulationResult
from repro.graphs import random_regular_graph
from repro.graphs.generators import dense_core_with_pendant_paths
from repro.mis.beeping import BeepingMISNode
from repro.mis.luby import LubyMISNode
from repro.ruling.distributed import DetRulingSetNode

Node = Hashable

EXPERIMENT_ID = "engine_backends"
SPEEDUP_TARGET = 3.0     # geometric mean of vector vs sync across all rows
ROW_SPEEDUP_FLOOR = 1.5  # every individual row must clear this
ENGINES = ("sync", "active-set", "vector")


def _workloads(*, smoke: bool):
    if smoke:
        return [
            ("regular(n=2000,d=8)", random_regular_graph(2000, 8, seed=1)),
            ("dense-core(64x128x6)",
             dense_core_with_pendant_paths(64, 128, 6)),
        ]
    return [
        ("regular(n=20000,d=8)", random_regular_graph(20000, 8, seed=1)),
        ("dense-core(256x512x8)",
         dense_core_with_pendant_paths(256, 512, 8)),
    ]


def _algorithms() -> list[tuple[str, Callable[[Node], NodeAlgorithm] | type, int]]:
    return [
        ("luby-mis", LubyMISNode, 2_000),
        ("beeping-mis", lambda node: BeepingMISNode(max_steps=600), 2_000),
        ("det-ruling", DetRulingSetNode, 4_000),
    ]


def _check_agreement(name: str, results: Mapping[str, SimulationResult]) -> None:
    reference = results["sync"]
    for engine, result in results.items():
        same = (result.outputs == reference.outputs
                and result.rounds == reference.rounds
                and result.total_messages == reference.total_messages
                and result.total_bits == reference.total_bits
                and result.edge_message_counts == reference.edge_message_counts)
        if not same:
            raise AssertionError(
                f"{name}: engine {engine!r} disagrees with the sync "
                f"reference (rounds {result.rounds} vs {reference.rounds}, "
                f"messages {result.total_messages} vs "
                f"{reference.total_messages}) -- the differential matrix "
                f"must pass before throughput means anything")


def experiment_engine_backends(*, smoke: bool = False) -> list[dict[str, object]]:
    repeats = 1 if smoke else 5
    seed = 1
    rows: list[dict[str, object]] = []
    for workload, graph in _workloads(smoke=smoke):
        network = CongestNetwork(graph, id_seed=seed)
        network.topology()  # build the snapshot once, outside the timing
        for algo_name, factory, max_rounds in _algorithms():
            makers = {
                engine: (lambda engine=engine: Simulator(
                    network, factory, seed=seed, engine=engine))
                for engine in ENGINES
            }
            results: dict[str, SimulationResult] = {}
            samples: dict[str, list[float]] = {name: [] for name in makers}
            for make in makers.values():  # untimed warmup (caches, allocator)
                make().run(max_rounds)
            # Interleave the engines across repeats so CPU frequency drift
            # hits all three equally; medians are robust to a single
            # throttled run.
            for _ in range(repeats):
                for name, make in makers.items():
                    rate, results[name] = time_rounds_per_sec(
                        make, max_rounds=max_rounds, repeats=1)
                    samples[name].append(rate)
            rates = {name: statistics.median(values)
                     for name, values in samples.items()}

            _check_agreement(f"{workload}/{algo_name}", results)
            speedup = (rates["vector"] / rates["sync"]
                       if rates["sync"] else float("inf"))
            rows.append({
                "workload": workload,
                "algorithm": algo_name,
                "rounds": results["sync"].rounds,
                "messages": results["sync"].total_messages,
                "sync_rps": round(rates["sync"], 1),
                "active_rps": round(rates["active-set"], 1),
                "vector_rps": round(rates["vector"], 1),
                "speedup": round(speedup, 2),
            })
    return rows


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _write_json(path: str, rows: list[dict[str, object]], *,
                smoke: bool) -> None:
    speedups = [float(row["speedup"]) for row in rows]
    document = {
        "experiment": EXPERIMENT_ID,
        "smoke": smoke,
        "engines": list(ENGINES),
        "rows": rows,
        "summary": {
            "geomean_speedup": round(_geomean(speedups), 3),
            "worst_row_speedup": round(min(speedups), 3),
            "target_geomean": SPEEDUP_TARGET,
            "target_row_floor": ROW_SPEEDUP_FLOOR,
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
    rows = experiment_engine_backends(smoke=smoke)
    notes = ("rounds/sec, median of interleaved repeats; speedup = vector vs "
             "sync. Outputs/rounds/messages/bits/per-edge congestion "
             "verified identical across all three engines before timing "
             "counts.")
    if smoke:
        # Print only: a reduced smoke sweep must not overwrite the stored
        # full-sweep results that the perf trajectory cites.
        print()
        print(format_table(rows, title=f"[{EXPERIMENT_ID}/smoke]"))
        print(notes)
    else:
        print_and_store(EXPERIMENT_ID, rows, notes=notes)
    if output:
        ensure_results_dir()
        _write_json(output, rows, smoke=smoke)
    speedups = [float(row["speedup"]) for row in rows]
    geomean = _geomean(speedups)
    worst = min(speedups)
    print(f"vector-engine speedup: geomean {geomean:.2f}x, "
          f"worst row {worst:.2f}x")
    if not smoke:
        if geomean < SPEEDUP_TARGET or worst < ROW_SPEEDUP_FLOOR:
            print(f"FAIL: target is geomean >= {SPEEDUP_TARGET}x with every "
                  f"row >= {ROW_SPEEDUP_FLOOR}x", file=sys.stderr)
            return 1
        print(f"OK: >= {SPEEDUP_TARGET}x (geomean) over the sync engine")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
