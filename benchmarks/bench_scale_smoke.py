"""Scale smoke -- certified solves on large random 4-regular graphs.

Three gated groups, each solve on a freshly built graph so no per-graph
cache carries over; each solve time is printed:

* the paper pipelines ``sparsify``, ``det-power-ruling`` and ``power-mis``
  (``k = 2``) at ``n = 10^4``, together within ``BUDGET_S`` seconds;
* the solvers that read ``G^s`` rows and distances from a set --
  ``det-sparsify``, ``randomized-sparsify``, ``ball-graph`` and
  ``sparsify-low-diameter`` (both ``k = 2``) and ``network-decomposition``,
  default config otherwise -- at ``n = 10^5``, together within
  ``GUARD_BUDGET_S`` seconds.
  A per-node BFS or an O(n) rebuild per node makes them quadratic, which
  at this size is minutes, not seconds;
* every other registered algorithm, default config, at ``n = 10^5``,
  together within ``REST_BUDGET_S`` seconds -- with the group above, all
  of them certify at that size.

Exit code is the gate: any uncertified result, or a group over its
budget, fails.

    PYTHONPATH=src python benchmarks/bench_scale_smoke.py
"""

from __future__ import annotations

import sys
import time

from repro.api import REGISTRY, solve
from repro.graphs import random_regular_graph

ALGORITHMS = ("sparsify", "det-power-ruling", "power-mis")
N = 10_000
K = 2
DEGREE = 4
GRAPH_SEED = 1
#: Wall-clock budget for the three certified solves together.
BUDGET_S = 30.0

#: ``(algorithm, config)`` of the near-linear-time guard.
GUARD = (("det-sparsify", {}), ("randomized-sparsify", {}),
         ("ball-graph", {"k": K}), ("sparsify-low-diameter", {"k": K}),
         ("network-decomposition", {}))
GUARD_N = 100_000
#: Wall-clock budget for the five guard solves together: 3.8x the 15.8 s
#: they took on a 2-vCPU host, 9.6 s of it ``sparsify-low-diameter`` at
#: ``k = 2`` (a per-node BFS makes ``det-sparsify`` alone take 100 s there).
GUARD_BUDGET_S = 60.0

#: Every registered algorithm the two groups above leave out.
REST = tuple((name, {}) for name in REGISTRY.algorithm_names()
             if name not in {guard_name for guard_name, _ in GUARD})
#: Wall-clock budget for the 19 solves together, fingerprints included:
#: 2.9x the 48.1-51.5 s of three runs on a 2-vCPU host, 9.2 s of it
#: ``power-luby-sim``.
REST_BUDGET_S = 150.0


def run_group(runs, n: int, budget_s: float) -> bool:
    """Solve each ``(name, config)`` on a fresh graph of ``n`` nodes; True
    iff every report is certified and the solves fit ``budget_s``."""
    total = 0.0
    failed = []
    for name, config in runs:
        graph = random_regular_graph(n, DEGREE, seed=GRAPH_SEED)
        start = time.perf_counter()
        report = solve(graph, name, seed=GRAPH_SEED, **config)
        elapsed = time.perf_counter() - start
        total += elapsed
        ok = report.certificate is not None and report.certificate.ok
        shown = "".join(f" {key}={value}" for key, value in config.items())
        print(f"{name:<18} n={n}{shown}: {elapsed:6.2f} s  "
              f"certified={ok}  |output|={len(report.output)}  "
              f"rounds={report.rounds}", flush=True)
        if not ok:
            failed.append(name)
    print(f"total {total:.2f} s (budget {budget_s:.0f} s)")
    if failed:
        print(f"FAIL: uncertified: {', '.join(failed)}", file=sys.stderr)
        return False
    if total > budget_s:
        print(f"FAIL: {total:.2f} s over the {budget_s:.0f} s budget",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    pipelines = run_group([(name, {"k": K}) for name in ALGORITHMS], N,
                          BUDGET_S)
    guard = run_group(GUARD, GUARD_N, GUARD_BUDGET_S)
    rest = run_group(REST, GUARD_N, REST_BUDGET_S)
    return 0 if pipelines and guard and rest else 1


if __name__ == "__main__":
    sys.exit(main())
