"""Scale smoke -- the paper pipelines, certified, on a 10^4-node graph.

Runs ``repro.solve`` with certificates for ``sparsify``, ``det-power-ruling``
and ``power-mis`` (``k = 2``) on a random 4-regular graph with ``n = 10^4``,
each on a freshly built graph so no per-graph cache carries over, and
prints each solve time.  Exit code is the gate: any uncertified result, or
more than ``BUDGET_S`` seconds for the three solves together, fails.

    PYTHONPATH=src python benchmarks/bench_scale_smoke.py
"""

from __future__ import annotations

import sys
import time

from repro.api import solve
from repro.graphs import random_regular_graph

ALGORITHMS = ("sparsify", "det-power-ruling", "power-mis")
N = 10_000
K = 2
DEGREE = 4
GRAPH_SEED = 1
#: Wall-clock budget for the three certified solves together.
BUDGET_S = 30.0


def main() -> int:
    total = 0.0
    failed = []
    for name in ALGORITHMS:
        graph = random_regular_graph(N, DEGREE, seed=GRAPH_SEED)
        start = time.perf_counter()
        report = solve(graph, name, k=K, seed=GRAPH_SEED)
        elapsed = time.perf_counter() - start
        total += elapsed
        ok = report.certificate is not None and report.certificate.ok
        print(f"{name:<18} n={N} k={K}: {elapsed:6.2f} s  "
              f"certified={ok}  |output|={len(report.output)}  "
              f"rounds={report.rounds}", flush=True)
        if not ok:
            failed.append(name)
    print(f"total {total:.2f} s (budget {BUDGET_S:.0f} s)")
    if failed:
        print(f"FAIL: uncertified: {', '.join(failed)}", file=sys.stderr)
        return 1
    if total > BUDGET_S:
        print(f"FAIL: {total:.2f} s over the {BUDGET_S:.0f} s budget",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
