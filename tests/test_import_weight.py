"""Start-up weight: what each process role loads.

``scipy.stats`` alone costs a process ~0.7 s and ~50 MB at start-up, and
only the binomial tail of ``SparsificationStageEvents.psi_expectation``
needs it.  Every process (the CLI, ``repro serve`` and its pool children,
the fleet coordinator and workers) imports ``repro``, so these tests pin
the rule that a heavy optional dependency is imported at the call site
that needs it.

The same rule decides the start-up of each role.  The fleet coordinator
never solves, so it must never load numpy, networkx or ``repro.api``.
``repro serve`` solves in forked pool children, so it must load what they
run before the pool forks; otherwise each child imports it again.  Each
check runs in a fresh interpreter and asserts module presence, not timing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = ["repro", "repro.cli", "repro.service.server",
                "repro.fleet.coordinator", "repro.fleet.worker"]

#: The six algorithms of the benchmark's solve-power workload, each on a
#: small registry cell.
SOLVES = [
    ("regular-n24-d3", "det-power-ruling", {"k": 2}),
    ("regular-n24-d3", "sparsify", {"k": 2}),
    ("regular-n24-d3", "power-mis", {"k": 3}),
    ("regular-n24-d3", "shattering-mis", {}),
    ("regular-n24-d3", "power-luby-sim", {"k": 3, "engine": "vector"}),
    ("regular-n24-d3", "power-det-ruling-sim", {"k": 3, "engine": "vector"}),
]

_REPORT = """
import sys
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(len(loaded), loaded[:5])
sys.exit(1 if loaded else 0)
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_import_leaves_scipy_out(module):
    result = run_fresh(f"import {module}\n")
    assert result.returncode == 0, (
        f"importing {module} loaded scipy: {result.stdout}{result.stderr}")


def test_solve_power_algorithms_leave_scipy_out():
    code = (
        "import repro\n"
        "from repro.scenarios.registry import DEFAULT_REGISTRY\n"
        f"for cell, algorithm, config in {SOLVES!r}:\n"
        "    graph = DEFAULT_REGISTRY.build_cell(cell, seed=0)\n"
        "    report = repro.solve(graph, algorithm, seed=1, **config)\n"
        "    assert report.certificate.ok, (algorithm, report.certificate)\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, (
        f"a solve loaded scipy or failed: {result.stdout}{result.stderr}")


#: The modules a fleet coordinator process imports on its way to serving.
COORDINATOR_PATH = ["repro.service.cache", "repro.cli", "repro.fleet.cli",
                    "repro.fleet.coordinator"]

_SOLVER_LOADED = """
solver = sorted(name for name in sys.modules
                if name.split(".")[0] in ("numpy", "networkx")
                or name == "repro.api" or name.startswith("repro.api."))
print(len(solver), solver[:5])
if solver:
    sys.exit(1)
"""


def test_coordinator_never_loads_the_solver():
    code = (
        "import sys\n"
        + "".join(f"import {module}\n" for module in COORDINATOR_PATH)
        + "from repro.fleet.coordinator import FleetCoordinator\n"
        "coordinator = FleetCoordinator(port=0)\n"
        "coordinator.start()\n"
        "coordinator.stop()\n"
        + _SOLVER_LOADED
    )
    result = run_fresh(code)
    assert result.returncode == 0, (
        f"the coordinator loaded solver modules: "
        f"{result.stdout}{result.stderr}")


def test_scheduler_loads_what_its_pool_children_run():
    code = (
        "import sys\n"
        "import repro.service.scheduler\n"
        "missing = [name for name in ('repro.scenarios.registry',\n"
        "                             'repro.api.adapters')\n"
        "           if name not in sys.modules]\n"
        "print('missing before fork:', missing)\n"
        "if missing:\n"
        "    sys.exit(1)\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, (
        f"serve would import these in every forked child: "
        f"{result.stdout}{result.stderr}")
