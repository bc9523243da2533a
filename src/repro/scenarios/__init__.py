"""Scenario registry and the batch runner that drives it through the solver.

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
* **scenarios** -- a cell x an algorithm of :data:`repro.api.REGISTRY` x
  (k, engine, params), the runnable unit (``regular-n24-d3/power-mis-k2``);
  :func:`scenario_config` maps one onto the algorithm's typed config.

Typical queries::

    from repro.scenarios import DEFAULT_REGISTRY
    DEFAULT_REGISTRY.select(tags={"smoke"})              # the CI sweep
    DEFAULT_REGISTRY.cells(tags={"table1"})              # a benchmark sweep
    DEFAULT_REGISTRY.build_cell("regular-n128-d6", seed=1)
    DEFAULT_REGISTRY.task_seed(scenario, repeat=0, base_seed=0)

Runner (``repro.scenarios.runner``)
-----------------------------------
:func:`run_batch` expands scenarios into ``(scenario, repeat)`` tasks, seeds
each deterministically via :func:`repro.hashing.seeds.derive_seed`, and
submits each as one request to a :class:`~repro.service.scheduler.
SolveScheduler` it owns for the batch (inline for ``jobs <= 1``, process
shards otherwise).  The certificate ``repro.solve(..., verify=True)``
attaches -- the checks of :mod:`repro.api.certify` -- is each row's
verdict; failure details name the cell key (scenario name and derived
seed) for one-step reproduction.  Rows persist to a
:class:`~repro.service.shardstore.ShardStore` keyed by ``cell_key``
(``benchmarks/results/scenarios/`` by default); cells already in the store
are served from it, so re-running a sweep only executes the missing cells.

Command line
------------
::

    python -m repro.scenarios list  [--tags suite --algorithm power-mis]
    python -m repro.scenarios families
    python -m repro.scenarios run --smoke            # tiny verified CI sweep
    python -m repro.scenarios run --tags suite --jobs 4 --repeats 3

``run`` exits non-zero when any cell fails its certificate; a second
invocation reports the previously executed cells as cached.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "BatchSummary": "repro.scenarios.runner",
    "DEFAULT_REGISTRY": "repro.scenarios.registry",
    "GraphCell": "repro.scenarios.registry",
    "GraphFamily": "repro.scenarios.registry",
    "Scenario": "repro.scenarios.registry",
    "ScenarioRegistry": "repro.scenarios.registry",
    "default_registry": "repro.scenarios.registry",
    "plan_tasks": "repro.scenarios.runner",
    "run_batch": "repro.scenarios.runner",
    "run_task": "repro.scenarios.runner",
    "scenario_config": "repro.scenarios.registry",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
