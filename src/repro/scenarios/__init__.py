"""Scenario registry, parallel batch runner and verification oracles.

This package is the experiment-orchestration layer of the library: the
paper's evaluation landscape (graph family x (n, Delta, k) x algorithm x
engine) lives here as *data*, and both the benchmark sweeps and the
randomized differential tests consume it instead of hand-rolling private
workload lists.

Registry (``repro.scenarios.registry``)
---------------------------------------
:data:`DEFAULT_REGISTRY` names three kinds of objects:

* **graph families** -- every generator in :mod:`repro.graphs.generators`
  plus the adversarial families (``disconnected-union``,
  ``dense-core-pendant``, ``bipartite-crown``);
* **graph cells** -- a family with concrete parameters
  (``regular-n128-d6``), tagged for selection (``smoke``, ``suite``,
  ``adversarial``, ``table1``, ``power-mis-*``, ``beta-tradeoff``);
* **scenarios** -- a cell x algorithm x (k, engine, params), the runnable
  unit (``regular-n24-d3/power-mis-k2``).

Typical queries::

    from repro.scenarios import DEFAULT_REGISTRY
    DEFAULT_REGISTRY.select(tags={"smoke"})              # the CI sweep
    DEFAULT_REGISTRY.cells(tags={"table1"})              # a benchmark sweep
    DEFAULT_REGISTRY.build_cell("regular-n128-d6", seed=1)
    DEFAULT_REGISTRY.task_seed(scenario, repeat=0, base_seed=0)

Runner (``repro.scenarios.runner``)
-----------------------------------
:func:`run_batch` expands scenarios into ``(scenario, repeat)`` tasks, seeds
each deterministically via :func:`repro.hashing.seeds.derive_seed`, executes
them on a ``multiprocessing`` pool, verifies every result with the oracles,
and persists rows to a :class:`~repro.service.shardstore.ShardStore` keyed
by ``cell_key`` (``benchmarks/results/scenarios/`` by default).  Cells
already in the store are served from cache, so re-running a sweep only
executes the missing cells.

Oracles (``repro.scenarios.oracles``)
-------------------------------------
Reusable named checks promoted from :mod:`repro.ruling.verify` and
:mod:`repro.core.invariants`: MIS-of-``G^k`` independence + maximality,
``(alpha, beta)``-ruling-set distances, the sparsification invariants
I1.1 / I1.2 / I2 and Lemma 3.1's bounds, and the differential
greedy-reference equality for the deterministic simulator run.
:func:`verify_outcome` dispatches per algorithm; failure messages embed the
scenario name and derived seed for one-step reproduction.

Command line
------------
::

    python -m repro.scenarios list  [--tags suite --algorithm power-mis]
    python -m repro.scenarios families
    python -m repro.scenarios run --smoke            # tiny verified CI sweep
    python -m repro.scenarios run --tags suite --jobs 8 --repeats 3

``run`` exits non-zero when any cell fails its oracles; a second invocation
reports the previously executed cells as cached.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "AlgorithmSpec": "repro.scenarios.algorithms",
    "BatchSummary": "repro.scenarios.runner",
    "DEFAULT_REGISTRY": "repro.scenarios.registry",
    "GraphCell": "repro.scenarios.registry",
    "GraphFamily": "repro.scenarios.registry",
    "OracleCheck": "repro.scenarios.oracles",
    "OracleReport": "repro.scenarios.oracles",
    "Scenario": "repro.scenarios.registry",
    "ScenarioOutcome": "repro.scenarios.algorithms",
    "ScenarioRegistry": "repro.scenarios.registry",
    "default_registry": "repro.scenarios.registry",
    "greedy_reference_oracle": "repro.scenarios.oracles",
    "mis_power_oracle": "repro.scenarios.oracles",
    "plan_tasks": "repro.scenarios.runner",
    "ruling_set_oracle": "repro.scenarios.oracles",
    "run_batch": "repro.scenarios.runner",
    "run_task": "repro.scenarios.runner",
    "sparsification_oracle": "repro.scenarios.oracles",
    "verify_outcome": "repro.scenarios.oracles",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
