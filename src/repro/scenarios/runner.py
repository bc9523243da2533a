"""The parallel batch runner: registry scenarios -> verified result rows.

Execution model
---------------
A *task* is one ``(scenario, repeat)`` pair.  Its seed is derived
deterministically from the scenario name, the repeat index and the batch's
base seed via :func:`repro.hashing.seeds.derive_seed`, so results are
identical whatever the worker count or scheduling order.  Tasks already
present in the result store (a :class:`~repro.service.shardstore.ShardStore`
keyed by ``cell_key``) are served from cache; the remainder
is executed either serially or on a ``multiprocessing`` pool (workers
rebuild the default registry on import, which is why parallel execution is
only offered for the default registry -- custom registries run serially,
they may hold unpicklable builders).

Every executed task is verified by the oracle layer
(:mod:`repro.scenarios.oracles`) before its row is stored; a row records the
scenario identity, the derived seed, the graph size, rounds/metrics and the
oracle verdict with per-check failure details.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro._paths import results_path
from repro.scenarios.oracles import verify_outcome
from repro.scenarios.registry import DEFAULT_REGISTRY, Scenario, ScenarioRegistry
from repro.service.shardstore import ShardStore

__all__ = ["BatchSummary", "plan_tasks", "run_batch", "run_replica_batch",
           "run_task"]


@dataclass(frozen=True)
class _TaskSpec:
    """A picklable task handle resolved against the default registry."""

    scenario: str
    repeat: int
    base_seed: int
    verify: bool


@dataclass
class BatchSummary:
    """Aggregate outcome of one ``run_batch`` invocation."""

    requested: int
    executed: int
    cached: int
    rows: list[dict[str, Any]] = field(default_factory=list)
    store_path: str | None = None
    elapsed_s: float = 0.0

    @property
    def failed(self) -> list[dict[str, Any]]:
        return [row for row in self.rows if not row.get("ok", False)]

    @property
    def ok(self) -> bool:
        return not self.failed

    def format(self) -> str:
        lines = [
            f"[scenarios] {self.requested} tasks: {self.executed} executed, "
            f"{self.cached} cached"
            + (f" (store: {self.store_path})" if self.store_path else "")
            + f" in {self.elapsed_s:.1f}s",
        ]
        checked = [row for row in self.rows if row.get("checks", 0)]
        if checked:
            verified_ok = sum(1 for row in checked if row.get("ok", False))
            unverified = len(self.rows) - len(checked)
            lines.append(
                f"[scenarios] oracles: {verified_ok}/{len(checked)} cells verified ok"
                + (f" ({unverified} unverified)" if unverified else ""))
        else:
            lines.append("[scenarios] oracles: skipped (verification disabled)")
        for row in self.failed:
            lines.append(f"[scenarios]   FAILED {row['cell_key']}: "
                         f"{'; '.join(row.get('failures', [])) or 'unknown failure'}")
        return "\n".join(lines)


def plan_tasks(scenarios: Sequence[Scenario], *, repeats: int = 1,
               base_seed: int = 0,
               registry: ScenarioRegistry | None = None,
               ) -> list[tuple[Scenario, int, int]]:
    """Expand scenarios into ``(scenario, repeat, derived_seed)`` triples."""
    registry = registry or DEFAULT_REGISTRY
    tasks = []
    for scenario in scenarios:
        for repeat in range(max(1, repeats)):
            seed = registry.task_seed(scenario, repeat=repeat, base_seed=base_seed)
            tasks.append((scenario, repeat, seed))
    return tasks


def run_task(scenario: Scenario, *, seed: int, repeat: int = 0, base_seed: int = 0,
             registry: ScenarioRegistry | None = None,
             verify: bool = True, solve_cache=None) -> dict[str, Any]:
    """Execute one scenario cell and return its (JSON-serialisable) row.

    A crashing algorithm or oracle produces a failed row (with the exception
    recorded under ``failures``) rather than aborting the whole batch.

    ``solve_cache`` (a :class:`repro.service.cache.SolveCache`) routes the
    solve through the service layer's content-addressed tier: a repeated
    ``(graph, algorithm, config, seed)`` cell is served from the cache and
    its stored certificate is replayed as the row's verdict -- the
    certificate runs the same problem certifiers the oracle layer
    dispatches to, so the guarantee checked is identical.
    """
    registry = registry or DEFAULT_REGISTRY
    row: dict[str, Any] = {
        "cell_key": scenario.cell_key(seed),
        "scenario": scenario.name,
        "cell": scenario.cell,
        "algorithm": scenario.algorithm,
        "k": scenario.k,
        "engine": scenario.engine,
        "params": scenario.params_dict,
        "seed": seed,
        "repeat": repeat,
        "base_seed": base_seed,
    }
    start = time.perf_counter()
    try:
        row["family"] = registry.cell(scenario.cell).family
        graph = registry.build_graph(scenario, seed=seed)
        if solve_cache is not None:
            from repro.scenarios.algorithms import scenario_config

            cached = solve_cache.solve(
                graph, scenario.algorithm, seed=seed, verify=verify,
                **scenario_config(scenario))
            certificate = cached.report.certificate
            row.update({
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
                "rounds": cached.report.rounds,
                "output_size": len(cached.report.output),
                "metrics": dict(cached.report.metrics),
                "solve_cache_hit": cached.hit,
                "solve_cache_tier": cached.tier,
            })
            if verify and certificate is not None:
                row["ok"] = certificate.ok
                row["checks"] = len(certificate.checks)
                row["failures"] = [
                    f"{check.name}: {check.detail or 'failed'}"
                    for check in certificate.failures()]
            else:
                row["ok"] = True
                row["checks"] = 0
                row["failures"] = []
            row["elapsed_s"] = round(time.perf_counter() - start, 6)
            return row
        outcome = registry.algorithm(scenario.algorithm).run(graph, scenario, seed)
        row.update({
            "n": graph.number_of_nodes(),
            "m": graph.number_of_edges(),
            "rounds": outcome.rounds,
            "output_size": len(outcome.output),
            "metrics": outcome.metrics,
        })
        if verify:
            report = verify_outcome(graph, scenario, outcome, seed=seed)
            row["ok"] = report.ok
            row["checks"] = len(report.checks)
            row["failures"] = [f"{check.name}: {check.detail or 'failed'}"
                               for check in report.failures()]
        else:
            row["ok"] = True
            row["checks"] = 0
            row["failures"] = []
    except Exception as error:  # noqa: BLE001 - recorded per-row, batch survives
        row["ok"] = False
        row.setdefault("checks", 0)
        row["failures"] = [f"exception: {type(error).__name__}: {error}"]
    row["elapsed_s"] = round(time.perf_counter() - start, 6)
    return row


def run_replica_batch(scenario: Scenario | str, *, replicas: int = 8,
                      base_seed: int = 0,
                      registry: ScenarioRegistry | None = None,
                      verify: bool = True) -> dict[str, Any]:
    """Run one scenario as a batched replica sweep: one graph, many seeds.

    Builds the scenario's graph once (from the repeat-0 task seed) and
    solves it for ``replicas`` derived seeds through
    :meth:`repro.api.SolverRegistry.solve_batch`, so algorithms with a
    batched runner execute the whole sweep as a single replica batch over
    the shared topology.  Every report is bit-identical to the
    corresponding solo ``solve`` -- this is a faster schedule for repeated
    cells, not a different experiment.

    Returns a JSON-serialisable summary with one row per replica.
    """
    from repro.api import REGISTRY as SOLVER_REGISTRY
    from repro.scenarios.algorithms import scenario_config

    registry = registry or DEFAULT_REGISTRY
    if isinstance(scenario, str):
        scenario = registry.scenario(scenario)
    graph_seed = registry.task_seed(scenario, repeat=0, base_seed=base_seed)
    graph = registry.build_graph(scenario, seed=graph_seed)
    seeds = [registry.task_seed(scenario, repeat=repeat, base_seed=base_seed)
             for repeat in range(max(1, replicas))]
    config = scenario_config(scenario)
    start = time.perf_counter()
    reports = SOLVER_REGISTRY.solve_batch(graph, scenario.algorithm,
                                          seeds=seeds, verify=verify, **config)
    elapsed = time.perf_counter() - start
    rows = []
    for seed, report in zip(seeds, reports):
        row = report.to_row()
        row["cell_key"] = scenario.cell_key(seed)
        row["ok"] = report.ok
        rows.append(row)
    return {
        "scenario": scenario.name,
        "cell": scenario.cell,
        "algorithm": scenario.algorithm,
        "engine": scenario.engine,
        "graph_seed": graph_seed,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "replicas": len(seeds),
        "seeds": seeds,
        "ok": all(row["ok"] for row in rows),
        "elapsed_s": round(elapsed, 6),
        "rows": rows,
    }


def _run_spec(spec: _TaskSpec) -> dict[str, Any]:
    """Worker entry point: resolve against the default registry and execute."""
    scenario = DEFAULT_REGISTRY.scenario(spec.scenario)
    seed = DEFAULT_REGISTRY.task_seed(scenario, repeat=spec.repeat,
                                      base_seed=spec.base_seed)
    return run_task(scenario, seed=seed, repeat=spec.repeat,
                    base_seed=spec.base_seed, verify=spec.verify)


def _run_positioned(task: tuple[int, _TaskSpec]) -> tuple[int, dict[str, Any]]:
    """Pool entry point: execute one spec, keeping its task position."""
    position, spec = task
    return position, _run_spec(spec)


def _default_jobs(task_count: int) -> int:
    cores = os.cpu_count() or 1
    return max(1, min(8, cores, task_count))


def _cache_hit(row: dict[str, Any], *, verify: bool) -> bool:
    """Is a stored row acceptable as a cache hit for this batch?

    Failed rows are always re-executed (so a fixed algorithm clears a red
    cell without deleting the store), and rows produced with ``--no-verify``
    (``checks == 0``) never satisfy a verifying batch -- otherwise an
    unverified run would permanently exempt its cells from the oracle gate.
    """
    if not row.get("ok", False):
        return False
    if verify and not row.get("checks", 0):
        return False
    return True


def _is_registered_verbatim(scenario: Scenario) -> bool:
    """True iff the default registry resolves the scenario's name to an
    identical definition (what the worker processes will actually run)."""
    try:
        return DEFAULT_REGISTRY.scenario(scenario.name) == scenario
    except KeyError:
        return False


def run_batch(scenarios: Iterable[Scenario] | None = None, *,
              registry: ScenarioRegistry | None = None,
              jobs: int | None = None,
              repeats: int = 1,
              base_seed: int = 0,
              store_path: str | None = None,
              resume: bool = True,
              verify: bool = True,
              solve_cache_path: str | None = None,
              progress: Callable[[str], None] | None = None) -> BatchSummary:
    """Run a set of scenarios in parallel with resume-from-store caching.

    Parameters
    ----------
    scenarios:
        The scenarios to run (default: every scenario in the registry).
    registry:
        Registry to resolve against.  Parallel execution requires the
        default registry (workers rebuild it by import); custom registries
        run serially regardless of ``jobs``.
    jobs:
        Worker process count; ``None`` auto-sizes to the CPU count (capped),
        ``<= 1`` forces serial in-process execution.
    store_path:
        Result-store directory (default ``benchmarks/results/scenarios/``);
        ``""`` disables persistence.  A regular file there is refused with
        ``ValueError`` before any task runs.
    resume:
        Serve cells already present in the store from cache.
    verify:
        Apply the oracle layer to every executed result.
    solve_cache_path:
        Route executed solves through the service layer's content-addressed
        cache tier (:mod:`repro.service.cache`): ``None`` disables, ``""``
        uses a memory-only cache, a path uses/extends that persistent
        store.  The cache is an in-process object, so this forces serial
        execution (cache hits make the serial pass cheap).
    """
    start = time.perf_counter()
    is_default_registry = registry is None or registry is DEFAULT_REGISTRY
    registry = registry or DEFAULT_REGISTRY
    solve_cache = None
    if solve_cache_path is not None:
        from repro.service.cache import SolveCache

        solve_cache = SolveCache(solve_cache_path)
    chosen = list(scenarios) if scenarios is not None else registry.scenarios()
    tasks = plan_tasks(chosen, repeats=repeats, base_seed=base_seed,
                       registry=registry)

    if store_path is None:
        store_path = results_path("scenarios")
    store = (ShardStore(store_path, key_field="cell_key") if store_path
             else None)

    # Rows are returned in task order, whatever order cache hits and
    # executed tasks complete in.
    rows: list[dict[str, Any] | None] = [None] * len(tasks)
    pending: list[tuple[int, Scenario, int, int]] = []
    cached = 0
    for position, (scenario, repeat, seed) in enumerate(tasks):
        row = (store.get(scenario.cell_key(seed))
               if store is not None and resume else None)
        if row is not None and _cache_hit(row, verify=verify):
            row = dict(row)
            row["cached"] = True
            rows[position] = row
            cached += 1
        else:
            pending.append((position, scenario, repeat, seed))

    if progress:
        progress(f"[scenarios] {len(tasks)} tasks planned, {cached} cached, "
                 f"{len(pending)} to execute")

    def absorb(position: int, row: dict[str, Any]) -> None:
        # Persist each row as it completes, so a crashed or killed batch
        # loses at most the in-flight tasks, not the finished ones.
        row["cached"] = False
        if store is not None:
            store.put(row["cell_key"], row)
        rows[position] = row
        if progress and not row.get("ok", False):
            progress(f"[scenarios] FAILED {row['cell_key']}")

    if pending:
        if jobs is None:
            jobs = _default_jobs(len(pending))
        use_pool = (jobs > 1 and is_default_registry and solve_cache is None
                    and all(_is_registered_verbatim(scenario)
                            for _, scenario, _, _ in pending))
        if use_pool:
            import multiprocessing

            specs = [(position,
                      _TaskSpec(scenario.name, repeat, base_seed, verify))
                     for position, scenario, repeat, _ in pending]
            context = multiprocessing.get_context()
            with context.Pool(processes=min(jobs, len(specs))) as pool:
                for position, row in pool.imap_unordered(_run_positioned,
                                                         specs):
                    absorb(position, row)
        else:
            for position, scenario, repeat, seed in pending:
                absorb(position,
                       run_task(scenario, seed=seed, repeat=repeat,
                                base_seed=base_seed, registry=registry,
                                verify=verify, solve_cache=solve_cache))

    return BatchSummary(
        requested=len(tasks),
        executed=len(pending),
        cached=cached,
        rows=rows,
        store_path=store.root if store is not None else None,
        elapsed_s=time.perf_counter() - start,
    )
