"""The async scheduler: coalescing, priority, admission, sharding."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time

import pytest

from repro.service import scheduler as scheduler_module
from repro.service.cache import SolveCache
from repro.service.scheduler import (
    AdmissionError,
    SolveRequest,
    SolveScheduler,
)


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_scheduler(**kwargs) -> SolveScheduler:
    kwargs.setdefault("cache", SolveCache(""))
    kwargs.setdefault("inline", True)
    return SolveScheduler(**kwargs)


REQUEST = SolveRequest(workload="regular-n24-d3", algorithm="power-mis",
                       config=(("k", 2),), seed=5)


def gate_workers(monkeypatch, release: threading.Event) -> list[str]:
    """Hold every ``_worker_solve`` and ``_worker_solve_batch`` call until
    ``release``; returns the log of entry-point names as they start."""
    executions: list[str] = []
    for name in ("_worker_solve", "_worker_solve_batch"):
        def gated(*args, real=getattr(scheduler_module, name), name=name):
            executions.append(name)
            release.wait(timeout=5)
            return real(*args)

        monkeypatch.setattr(scheduler_module, name, gated)
    return executions


async def wait_for_puts(scheduler: SolveScheduler, puts: int) -> None:
    """Poll (bounded) until ``puts`` rows have landed in the cache."""
    for _ in range(500):
        if scheduler.cache.stats.puts >= puts:
            return
        await asyncio.sleep(0.01)


class TestRequestParsing:
    def test_from_obj_round_trip(self):
        request = SolveRequest.from_obj({
            "workload": "regular-n24-d3", "algorithm": "power-mis",
            "config": {"k": 2}, "seed": 5, "graph_seed": 1,
            "verify": False, "priority": 3,
        })
        assert request.workload == "regular-n24-d3"
        assert request.config == (("k", 2),)
        assert request.seed == 5 and request.graph_seed == 1
        assert request.verify is False and request.priority == 3

    def test_defaults(self):
        request = SolveRequest.from_obj(
            {"workload": "er-n20", "algorithm": "luby-power"})
        assert request.seed is None
        assert request.verify is True
        assert request.priority == 10

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            SolveRequest.from_obj({"workload": "er-n20",
                                   "algorithm": "luby-power", "bogus": 1})

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="required"):
            SolveRequest.from_obj({"algorithm": "luby-power"})


class TestSubmit:
    def test_computed_then_hit(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                first = await scheduler.submit(REQUEST)
                second = await scheduler.submit(REQUEST)
                return first, second
            finally:
                await scheduler.stop()

        first, second = run_async(scenario())
        assert first.status == "computed"
        assert second.status == "hit"
        assert second.report.output == first.report.output
        assert second.report.provenance == first.report.provenance

    def test_default_cache_is_memory_only(self, tmp_path, monkeypatch):
        """A scheduler built without ``cache=`` (as ``ServiceServer()``
        builds one) keeps reports in memory: nothing lands under the
        results directory, where the default persistent store lives."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))

        async def scenario():
            scheduler = SolveScheduler(inline=True, shards=1)
            try:
                first = await scheduler.submit(REQUEST)
                second = await scheduler.submit(REQUEST)
                return first, second
            finally:
                await scheduler.stop()

        first, second = run_async(scenario())
        assert (first.status, second.status) == ("computed", "hit")
        assert second.tier == "memory"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_workload_is_key_error(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                with pytest.raises(KeyError, match="unknown workload"):
                    await scheduler.submit(
                        SolveRequest(workload="no-such-cell",
                                     algorithm="power-mis"))
            finally:
                await scheduler.stop()

        run_async(scenario())

    def test_engine_config_passes_through_to_the_worker(self):
        """The engine backend rides the request config end to end, and the
        seed-neutral contract holds across the service path: the same
        workload served under `vector` and `sync` yields identical outputs
        and rounds with the same derived seed."""
        async def scenario():
            scheduler = make_scheduler()
            try:
                vector = await scheduler.submit(SolveRequest(
                    workload="regular-n24-d3", algorithm="det-ruling-sim",
                    config=(("engine", "vector"),)))
                sync = await scheduler.submit(SolveRequest(
                    workload="regular-n24-d3", algorithm="det-ruling-sim",
                    config=(("engine", "sync"),)))
                return vector, sync
            finally:
                await scheduler.stop()

        vector, sync = run_async(scenario())
        assert vector.report.provenance.config_dict["engine"] == "vector"
        assert sync.report.provenance.config_dict["engine"] == "sync"
        assert vector.report.output == sync.report.output
        assert vector.report.rounds == sync.report.rounds
        assert vector.report.provenance.seed == sync.report.provenance.seed
        assert vector.key != sync.key  # distinct content addresses

    def test_family_name_resolves_to_first_cell(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                response = await scheduler.submit(
                    SolveRequest(workload="er", algorithm="luby-power",
                                 config=(("k", 2),), seed=1))
                return response
            finally:
                await scheduler.stop()

        assert run_async(scenario()).cell.startswith("er-")


class TestGraphMemo:
    """Planning and execution share one process-wide graph per workload."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls: list[tuple[str, int]] = []
        build = scheduler_module.build_workload

        def counting_build(cell, *, graph_seed):
            calls.append((cell, graph_seed))
            return build(cell, graph_seed=graph_seed)

        monkeypatch.setattr(scheduler_module, "build_workload",
                            counting_build)
        scheduler_module.workload_graph.cache_clear()
        yield calls
        scheduler_module.workload_graph.cache_clear()

    def test_misses_on_one_cell_build_the_graph_once(self, builds):
        async def scenario():
            scheduler = make_scheduler()
            try:
                return [await scheduler.submit(
                    dataclasses.replace(REQUEST, seed=seed))
                    for seed in range(4)]
            finally:
                await scheduler.stop()

        responses = run_async(scenario())
        assert [response.status for response in responses] == \
            ["computed"] * 4
        assert builds == [("regular-n24-d3", 0)]

    def test_batch_plans_and_runs_on_one_build(self, builds):
        async def scenario():
            scheduler = make_scheduler()
            try:
                return await scheduler.submit_batch(
                    dataclasses.replace(REQUEST, graph_seed=3), [1, 2, 3])
            finally:
                await scheduler.stop()

        responses = run_async(scenario())
        assert [response.status for response in responses] == \
            ["computed"] * 3
        assert builds == [("regular-n24-d3", 3)]


class TestCoalescing:
    def test_identical_inflight_requests_share_one_computation(self,
                                                               monkeypatch):
        executions = []
        real_worker = scheduler_module._worker_solve

        def slow_worker(*args):
            executions.append(args)
            time.sleep(0.15)
            return real_worker(*args)

        monkeypatch.setattr(scheduler_module, "_worker_solve", slow_worker)

        async def scenario():
            scheduler = make_scheduler()
            try:
                responses = await asyncio.gather(
                    *(scheduler.submit(REQUEST) for _ in range(6)))
                return responses, dict(scheduler.counters)
            finally:
                await scheduler.stop()

        responses, counters = run_async(scenario())
        assert len(executions) == 1, "identical in-flight requests must coalesce"
        statuses = sorted(response.status for response in responses)
        assert statuses.count("computed") == 1
        assert statuses.count("coalesced") == 5
        assert counters["coalesced"] == 5
        reference = responses[0].report
        for response in responses[1:]:
            assert response.report.output == reference.output
            assert response.report.provenance == reference.provenance

    @pytest.mark.parametrize("first", ["solo", "batch"])
    def test_cancelled_submitter_does_not_break_coalescing(self, monkeypatch,
                                                           first):
        """A submitter cancelled mid-await (wait_for timeout) must leave
        the in-flight entry alive: an identical retry coalesces onto the
        still-running job -- a solo one, or a batch holding the key --
        instead of spawning a duplicate computation, and the job still
        caches every row: re-asking for any of its seeds is a hit."""
        release = threading.Event()
        executions = gate_workers(monkeypatch, release)
        seeds = [REQUEST.seed] if first == "solo" else [4, REQUEST.seed, 6]

        async def scenario():
            scheduler = make_scheduler()
            try:
                submitter = (scheduler.submit(REQUEST) if first == "solo"
                             else scheduler.submit_batch(REQUEST, seeds))
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(submitter, timeout=0.1)
                retry = asyncio.create_task(scheduler.submit(REQUEST))
                await asyncio.sleep(0.05)
                release.set()
                response = await retry
                await wait_for_puts(scheduler, len(seeds))
                again = [await scheduler.submit(
                    dataclasses.replace(REQUEST, seed=seed))
                    for seed in seeds]
                return response, again
            finally:
                release.set()
                await scheduler.stop()

        response, again = run_async(scenario())
        assert len(executions) == 1, \
            "the retry must attach to the orphaned job, not recompute"
        assert response.status in ("coalesced", "hit")
        assert [row.status for row in again] == ["hit"] * len(seeds)

    def test_distinct_requests_do_not_coalesce(self, monkeypatch):
        executions = []
        real_worker = scheduler_module._worker_solve

        def counting_worker(*args):
            executions.append(args)
            return real_worker(*args)

        monkeypatch.setattr(scheduler_module, "_worker_solve",
                            counting_worker)

        async def scenario():
            scheduler = make_scheduler()
            try:
                await asyncio.gather(*(
                    scheduler.submit(SolveRequest(
                        workload="regular-n24-d3", algorithm="power-mis",
                        config=(("k", 2),), seed=seed))
                    for seed in (1, 2, 3)))
            finally:
                await scheduler.stop()

        run_async(scenario())
        assert len(executions) == 3


class TestPriorityAndAdmission:
    def test_priority_orders_a_busy_shard(self, monkeypatch):
        order = []
        release = threading.Event()
        real_worker = scheduler_module._worker_solve

        def gated_worker(workload, graph_seed, algorithm, config, seed,
                         verify):
            if not order:
                release.wait(timeout=5)  # hold the shard on the first job
            order.append(seed)
            return real_worker(workload, graph_seed, algorithm, config, seed,
                               verify)

        monkeypatch.setattr(scheduler_module, "_worker_solve", gated_worker)

        async def scenario():
            scheduler = make_scheduler(shards=1)
            try:
                first = asyncio.create_task(scheduler.submit(
                    SolveRequest(workload="regular-n24-d3",
                                 algorithm="power-mis", config=(("k", 2),),
                                 seed=1)))
                await asyncio.sleep(0.05)  # first job now occupies the shard
                low = asyncio.create_task(scheduler.submit(
                    SolveRequest(workload="regular-n24-d3",
                                 algorithm="power-mis", config=(("k", 2),),
                                 seed=2, priority=50)))
                high = asyncio.create_task(scheduler.submit(
                    SolveRequest(workload="regular-n24-d3",
                                 algorithm="power-mis", config=(("k", 2),),
                                 seed=3, priority=1)))
                await asyncio.sleep(0.05)  # both queued behind the gate
                release.set()
                await asyncio.gather(first, low, high)
            finally:
                await scheduler.stop()

        run_async(scenario())
        assert order == [1, 3, 2], \
            "the high-priority job must overtake the earlier low-priority one"

    def test_admission_rejects_beyond_max_pending(self, monkeypatch):
        release = threading.Event()
        real_worker = scheduler_module._worker_solve

        def gated_worker(*args):
            release.wait(timeout=5)
            return real_worker(*args)

        monkeypatch.setattr(scheduler_module, "_worker_solve", gated_worker)

        async def scenario():
            scheduler = make_scheduler(shards=1, max_pending=1)
            try:
                blocked = asyncio.create_task(scheduler.submit(
                    SolveRequest(workload="regular-n24-d3",
                                 algorithm="power-mis", config=(("k", 2),),
                                 seed=1)))
                await asyncio.sleep(0.05)
                with pytest.raises(AdmissionError):
                    await scheduler.submit(SolveRequest(
                        workload="regular-n24-d3", algorithm="power-mis",
                        config=(("k", 2),), seed=2))
                assert scheduler.counters["rejected"] == 1
                release.set()
                await blocked
            finally:
                release.set()
                await scheduler.stop()

        run_async(scenario())

    def test_queue_depths_count_a_batch_queued_behind_a_running_job(
            self, monkeypatch):
        release = threading.Event()
        executions = gate_workers(monkeypatch, release)

        async def scenario():
            scheduler = make_scheduler(shards=1)
            try:
                running = asyncio.create_task(scheduler.submit(REQUEST))
                while not executions:
                    await asyncio.sleep(0.01)
                batch = asyncio.create_task(
                    scheduler.submit_batch(REQUEST, [7, 8]))
                for _ in range(500):  # until queued behind the gated job
                    if scheduler._pending == 2:
                        break
                    await asyncio.sleep(0.01)
                depths = scheduler.queue_depths()
                pending = scheduler._pending
                release.set()
                await asyncio.gather(running, batch)
                return depths, pending, scheduler.queue_depths()
            finally:
                release.set()
                await scheduler.stop()

        depths, pending, drained = run_async(scenario())
        assert depths == [1]
        assert pending == 2
        assert drained == [0]


class TestShutdown:
    """The shutdown race: ``close()`` must refuse and unblock, never hang."""

    def test_submit_after_close_raises_admission_error(self):
        async def scenario():
            scheduler = make_scheduler()
            await scheduler.submit(REQUEST)
            await scheduler.close()
            with pytest.raises(AdmissionError, match="closed"):
                await scheduler.submit(REQUEST)
            assert scheduler.counters["rejected"] == 1

        run_async(scenario())

    def test_close_before_first_submit_refuses(self):
        async def scenario():
            scheduler = make_scheduler()
            await scheduler.close()  # never started
            with pytest.raises(AdmissionError, match="closed"):
                await scheduler.submit(REQUEST)

        run_async(scenario())

    def test_close_fails_queued_and_coalesced_futures(self, monkeypatch):
        """Jobs still in the shard queue when the scheduler closes must fail
        with AdmissionError -- previously their futures were simply
        abandoned and every submitter (and coalesced waiter) hung forever."""
        release = threading.Event()
        real_worker = scheduler_module._worker_solve

        def gated_worker(*args):
            release.wait(timeout=5)
            return real_worker(*args)

        monkeypatch.setattr(scheduler_module, "_worker_solve", gated_worker)

        async def scenario():
            scheduler = make_scheduler(shards=1)
            running = asyncio.create_task(scheduler.submit(SolveRequest(
                workload="regular-n24-d3", algorithm="power-mis",
                config=(("k", 2),), seed=1)))
            await asyncio.sleep(0.05)  # now occupying the single shard
            queued = asyncio.create_task(scheduler.submit(SolveRequest(
                workload="regular-n24-d3", algorithm="power-mis",
                config=(("k", 2),), seed=2)))
            await asyncio.sleep(0.05)  # queued behind the gated job
            coalesced = asyncio.create_task(scheduler.submit(SolveRequest(
                workload="regular-n24-d3", algorithm="power-mis",
                config=(("k", 2),), seed=2)))
            await asyncio.sleep(0.05)  # attached to the queued future
            try:
                await asyncio.wait_for(scheduler.close(), timeout=5)
                results = await asyncio.gather(running, queued, coalesced,
                                               return_exceptions=True)
            finally:
                release.set()
            return results

        results = run_async(scenario())
        assert all(isinstance(result, AdmissionError) for result in results), \
            f"every submitter must unblock with AdmissionError, got {results}"

    def test_close_does_not_restart_consumers(self):
        async def scenario():
            scheduler = make_scheduler()
            await scheduler.submit(REQUEST)
            await scheduler.close()
            with pytest.raises(AdmissionError):
                await scheduler.submit(REQUEST)
            return len(scheduler._consumers), scheduler._started

        consumers, started = run_async(scenario())
        assert consumers == 0 and started is False


class TestNoWaitSubmit:
    def test_accepted_then_report_lands_in_cache(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                accepted = await scheduler.submit(REQUEST, wait=False)
                assert accepted.status == "accepted"
                assert accepted.report is None
                assert accepted.key
                # The job completes on its own; poll the cache.
                for _ in range(200):
                    entry = scheduler.cache.peek(accepted.key)[0]
                    if entry is not None:
                        return accepted, entry.report
                    await asyncio.sleep(0.05)
                raise AssertionError("accepted job never landed in cache")
            finally:
                await scheduler.stop()

        accepted, report = run_async(scenario())
        assert report.certificate is not None

    def test_accepted_row_has_no_report_field(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                accepted = await scheduler.submit(REQUEST, wait=False)
                return json.loads(accepted.to_json())
            finally:
                await scheduler.stop()

        row = run_async(scenario())
        assert row["status"] == "accepted"
        assert "report" not in row
        assert row["cached"] is False

    def test_cache_hit_answers_immediately_despite_no_wait(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                await scheduler.submit(REQUEST)
                hit = await scheduler.submit(REQUEST, wait=False)
                return hit
            finally:
                await scheduler.stop()

        hit = run_async(scenario())
        assert hit.status == "hit"
        assert hit.report is not None
        assert hit.tier == "memory"

    def test_stream_field_parses(self):
        request = SolveRequest.from_obj({
            "workload": "er-n20", "algorithm": "luby-power",
            "stream": True})
        assert request.stream is True
        assert SolveRequest.from_obj(
            {"workload": "er-n20", "algorithm": "luby-power"}).stream is False


class TestStats:
    def test_stats_row_shape(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                await scheduler.submit(REQUEST)
                await scheduler.submit(REQUEST)
                return scheduler.stats_row()
            finally:
                await scheduler.stop()

        row = run_async(scenario())
        assert row["requests"] == 2
        assert row["hits"] == 1 and row["computed"] == 1
        assert row["hit_rate"] == 0.5
        assert row["latency_ms"]["count"] == 2
        assert row["latency_ms"]["p50"] <= row["latency_ms"]["p99"]
        assert row["cache"]["puts"] == 1
