"""The batch runner: registry scenarios -> certified result rows.

Execution model
---------------
A *task* is one ``(scenario, repeat)`` pair.  Its seed is derived
deterministically from the scenario name, the repeat index and the batch's
base seed via :func:`repro.hashing.seeds.derive_seed`, so results are
identical whatever the shard count or completion order.  Tasks already
present in the result store (a :class:`~repro.service.shardstore.ShardStore`
keyed by ``cell_key``) are served from it.

The runner is a client of the solve path: a batch owns one
:class:`~repro.service.scheduler.SolveScheduler` and submits each remaining
task as one :class:`~repro.service.request.SolveRequest` -- the scenario's
cell as the workload, the task seed as both graph seed and solve seed, and
:func:`~repro.scenarios.registry.scenario_config` as the config.  A request
is pure data, so any scenario over a default-registry cell runs on any
shard.  ``jobs <= 1`` runs the scheduler inline (one in-process shard),
otherwise on ``jobs`` process shards; ``solve_cache_path`` gives it a
persistent solve cache instead of a memory-only one.  Each repeat is its
own request, never a ``submit_batch`` seed sweep: every repeat builds its
own graph from its task seed.

The scheduler plans each request in this process: it builds the task's
graph and fingerprints it for the content address.  An inline shard then
solves that same graph from the process's graph memo; a process shard's
worker builds it again.  On the registry's small cells that second build,
the JSON hop of each report and each worker's own first-use imports cost
more than the solves: on 2 vCPUs ``--jobs 1`` ran them faster than two
process shards (ROADMAP.md has the measurement).

A row records the scenario identity, the derived seed, the graph size,
rounds and metrics, and the verdict of the certificate the solve path
attached, with per-check failure details.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro._paths import results_path
from repro.scenarios.registry import DEFAULT_REGISTRY, Scenario, scenario_config
from repro.service.request import SolveRequest
from repro.service.shardstore import ShardStore

__all__ = ["BatchSummary", "plan_tasks", "run_batch", "run_task"]

#: ``(position, scenario, repeat, seed)``: a task and its place in the batch.
_Task = tuple[int, Scenario, int, int]

#: Submits in flight per scheduler shard.  Measured on a 420-task sweep
#: (every registry scenario, 5 repeats, 2 vCPUs): one per shard leaves
#: process shards idle while the next task plans, and admitting all the
#: scheduler takes (256) slows inline runs, whose planning threads contend
#: for the GIL; 2 to 8 per shard were indistinguishable.
_IN_FLIGHT_PER_SHARD = 4


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
                f"[scenarios] certificates: {verified_ok}/{len(checked)} "
                f"cells verified ok"
                + (f" ({unverified} unverified)" if unverified else ""))
        else:
            lines.append(
                "[scenarios] certificates: skipped (verification disabled)")
        for row in self.failed:
            lines.append(f"[scenarios]   FAILED {row['cell_key']}: "
                         f"{'; '.join(row.get('failures', [])) or 'unknown failure'}")
        return "\n".join(lines)


def plan_tasks(scenarios: Sequence[Scenario], *, repeats: int = 1,
               base_seed: int = 0) -> list[tuple[Scenario, int, int]]:
    """Expand scenarios into ``(scenario, repeat, derived_seed)`` triples."""
    return [(scenario, repeat,
             DEFAULT_REGISTRY.task_seed(scenario, repeat=repeat,
                                        base_seed=base_seed))
            for scenario in scenarios for repeat in range(max(1, repeats))]


def _request(scenario: Scenario, seed: int, *, verify: bool) -> SolveRequest:
    """The solve request of one task: the scenario's cell built from the
    task seed, solved with that seed."""
    return SolveRequest(
        workload=scenario.cell, algorithm=scenario.algorithm,
        graph_seed=seed, seed=seed,
        config=tuple(sorted(scenario_config(scenario).items())),
        verify=verify)


async def _solve_row(scheduler, scenario: Scenario, *, seed: int,
                     repeat: int, base_seed: int,
                     verify: bool) -> dict[str, Any]:
    """Submit one task and build its (JSON-serialisable) row.

    A crashing algorithm, or a scenario the solve path refuses, produces a
    failed row (the exception recorded under ``failures``) rather than
    aborting the batch.
    """
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
        row["family"] = DEFAULT_REGISTRY.cell(scenario.cell).family
        response = await scheduler.submit(_request(scenario, seed,
                                                   verify=verify))
        report = response.report
        certificate = report.certificate if verify else None
        row.update({
            "n": report.provenance.n,
            "m": report.provenance.m,
            "rounds": report.rounds,
            "output_size": len(report.output),
            "metrics": dict(report.metrics),
            "solve_cache_hit": response.status == "hit",
            "solve_cache_tier": response.tier or "computed",
            "ok": certificate is None or certificate.ok,
            "checks": 0 if certificate is None else len(certificate.checks),
            "failures": [] if certificate is None else [
                f"{check.name}: {check.detail or 'failed'}"
                for check in certificate.failures()],
        })
    except Exception as error:  # noqa: BLE001 - recorded per-row, batch survives
        row["ok"] = False
        row["checks"] = 0
        row["failures"] = [f"exception: {type(error).__name__}: {error}"]
    row["elapsed_s"] = round(time.perf_counter() - start, 6)
    return row


async def _execute(tasks: Sequence[_Task], *, base_seed: int,
                   jobs: int | None, solve_cache_path: str | None,
                   verify: bool,
                   absorb: Callable[[int, dict[str, Any]], None]) -> None:
    """Run ``tasks`` on one scheduler, handing each row to ``absorb`` as it
    completes.

    In-flight submits are bounded below the scheduler's ``max_pending``, so
    no task is ever refused, and to :data:`_IN_FLIGHT_PER_SHARD` per shard.
    """
    from repro.service.cache import SolveCache
    from repro.service.scheduler import SolveScheduler

    inline = jobs is not None and jobs <= 1
    scheduler = SolveScheduler(cache=SolveCache(solve_cache_path or ""),
                               shards=1 if inline else jobs, inline=inline,
                               metrics=None, tracing=False)
    in_flight = asyncio.Semaphore(
        min(scheduler.max_pending, _IN_FLIGHT_PER_SHARD * scheduler.shards))

    async def run(position: int, scenario: Scenario, repeat: int,
                  seed: int) -> None:
        async with in_flight:
            row = await _solve_row(scheduler, scenario, seed=seed,
                                   repeat=repeat, base_seed=base_seed,
                                   verify=verify)
        absorb(position, row)

    try:  # the first submit starts the scheduler
        await asyncio.gather(*(run(*task) for task in tasks))
    finally:
        await scheduler.stop()


def run_task(scenario: Scenario, *, seed: int, repeat: int = 0,
             base_seed: int = 0, verify: bool = True) -> dict[str, Any]:
    """Execute one scenario cell in-process and return its row."""
    rows: list[dict[str, Any]] = []
    asyncio.run(_execute([(0, scenario, repeat, seed)], base_seed=base_seed,
                         jobs=1, solve_cache_path=None, verify=verify,
                         absorb=lambda _, row: rows.append(row)))
    return rows[0]


def _cache_hit(row: dict[str, Any], *, verify: bool) -> bool:
    """Is a stored row acceptable as a cache hit for this batch?

    Failed rows are always re-executed (so a fixed algorithm clears a red
    cell without deleting the store), and rows produced with ``--no-verify``
    (``checks == 0``) never satisfy a verifying batch -- otherwise an
    unverified run would permanently exempt its cells from certification.
    """
    if not row.get("ok", False):
        return False
    if verify and not row.get("checks", 0):
        return False
    return True


def run_batch(scenarios: Iterable[Scenario] | None = None, *,
              jobs: int | None = None,
              repeats: int = 1,
              base_seed: int = 0,
              store_path: str | None = None,
              resume: bool = True,
              verify: bool = True,
              solve_cache_path: str | None = None,
              progress: Callable[[str], None] | None = None) -> BatchSummary:
    """Run a set of scenarios on one solve scheduler, resuming from the store.

    Parameters
    ----------
    scenarios:
        The scenarios to run (default: every scenario of the default
        registry).  Their cells must be default-registry cells.
    jobs:
        Scheduler shards: ``<= 1`` runs inline in this process, more runs
        that many worker processes; ``None`` takes the scheduler's default.
    store_path:
        Result-store directory (default ``benchmarks/results/scenarios/``);
        ``""`` disables persistence.  A regular file there is refused with
        ``ValueError`` before any task runs.
    resume:
        Serve cells already present in the store from it.
    verify:
        Certify every executed solve; the certificate is the row's verdict.
    solve_cache_path:
        The scheduler's solve-cache store: ``None`` or ``""`` keeps it in
        memory for this batch, a path uses/extends that persistent store.
    """
    start = time.perf_counter()
    chosen = (list(scenarios) if scenarios is not None
              else DEFAULT_REGISTRY.scenarios())
    tasks = plan_tasks(chosen, repeats=repeats, base_seed=base_seed)

    if store_path is None:
        store_path = results_path("scenarios")
    store = (ShardStore(store_path, key_field="cell_key") if store_path
             else None)

    # Rows are returned in task order, whatever order cache hits and
    # executed tasks complete in.
    rows: list[dict[str, Any] | None] = [None] * len(tasks)
    pending: list[_Task] = []
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
        asyncio.run(_execute(pending, base_seed=base_seed, jobs=jobs,
                             solve_cache_path=solve_cache_path,
                             verify=verify, absorb=absorb))

    return BatchSummary(
        requested=len(tasks),
        executed=len(pending),
        cached=cached,
        rows=rows,
        store_path=store.root if store is not None else None,
        elapsed_s=time.perf_counter() - start,
    )
