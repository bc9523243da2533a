"""The observability layer: /metrics, structured logs, live solve streams.

Covers the telemetry accounting contracts end to end:

* the stdlib metrics registry renders valid Prometheus text exposition
  (parsed here by a strict little parser, not by eye);
* every request outcome records a latency sample -- including the error,
  invalid, rejected and cancelled paths that previously vanished;
* ``GET /report/<key>`` peeks: polling never inflates the cache hit rate
  nor promotes the key in the LRU;
* request timeouts (HTTP 504) cancel the submitter cleanly without
  leaking the pending slot, while the shielded job still lands in cache;
* a client hanging up mid-response is logged, counted and survived;
* ``GET /events/<key>`` streams a live solve round by round, replays for
  late subscribers, and terminates cleanly across scheduler shutdown;
* concurrent scraping of ``/metrics`` + ``/stats`` + ``/events`` during
  live solves keeps counters monotonic and the exposition parseable.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import re
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import (
    AdmissionError,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SolveCache,
    SolveRequest,
    SolveScheduler,
)
from repro.service import cache_cli
from repro.service import scheduler as scheduler_module
from repro.service.events import EventChannel, SolveEventBus, StreamingObserver
from repro.service.jsonlog import (
    JsonLineFormatter,
    configure_json_logging,
    log_event,
    service_logger,
)
from repro.service.metrics import (
    SOLVE_LATENCY_BUCKETS,
    MetricsRegistry,
    ServiceMetrics,
)


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_scheduler(**kwargs) -> SolveScheduler:
    kwargs.setdefault("cache", SolveCache(""))
    kwargs.setdefault("inline", True)
    return SolveScheduler(**kwargs)


REQUEST = SolveRequest(workload="regular-n24-d3", algorithm="power-mis",
                       config=(("k", 2),), seed=5)
#: A simulator-native algorithm: produces per-round events when streamed.
SIM_REQUEST = SolveRequest(workload="regular-n24-d3", algorithm="luby-sim",
                           seed=5, stream=True)


# ---------------------------------------------------------------------------
# A strict Prometheus text-format parser (the assertion workhorse).
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? (?P<value>\S+)$")


def parse_prometheus(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line; raises on junk."""
    samples: dict[str, float] = {}
    typed: set[str] = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, f"malformed TYPE line: {line!r}"
            assert parts[3] in {"counter", "gauge", "histogram", "untyped"}
            typed.add(parts[2])
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"unparseable sample line: {line!r}"
        value = match.group("value")
        samples[match.group("name") + (match.group("labels") or "")] = (
            float("inf") if value == "+Inf" else float(value))
        base = re.sub(r"_(bucket|sum|count)$", "", match.group("name"))
        assert match.group("name") in typed or base in typed, (
            f"sample {match.group('name')!r} has no # TYPE header")
    return samples


def select(samples: dict[str, float], prefix: str) -> dict[str, float]:
    return {name: value for name, value in samples.items()
            if name.startswith(prefix)}


# ---------------------------------------------------------------------------
# The registry itself.
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_and_gauge_render(self):
        registry = MetricsRegistry()
        hits = registry.counter("demo_hits_total", "Demo hits.", ("tier",))
        depth = registry.gauge("demo_depth", "Demo depth.")
        hits.inc("memory")
        hits.inc("memory")
        hits.inc("disk")
        depth.set(3)
        samples = parse_prometheus(registry.render())
        assert samples['demo_hits_total{tier="memory"}'] == 2
        assert samples['demo_hits_total{tier="disk"}'] == 1
        assert samples["demo_depth"] == 3

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "Demo.")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(amount=-1)

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("demo_seconds", "Demo.", ("op",),
                                       buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value, "solve")
        samples = parse_prometheus(registry.render())
        assert samples['demo_seconds_bucket{op="solve",le="0.1"}'] == 1
        assert samples['demo_seconds_bucket{op="solve",le="1"}'] == 3
        assert samples['demo_seconds_bucket{op="solve",le="10"}'] == 4
        assert samples['demo_seconds_bucket{op="solve",le="+Inf"}'] == 5
        assert samples['demo_seconds_count{op="solve"}'] == 5
        assert samples['demo_seconds_sum{op="solve"}'] == pytest.approx(56.05)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "Demo.", ("what",))
        counter.inc('quo"te\nline')
        rendered = registry.render()
        assert 'what="quo\\"te\\nline"' in rendered

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "Demo.")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("demo_total", "Demo again.")

    def test_sampled_family_failure_does_not_break_scrape(self):
        registry = MetricsRegistry()
        registry.counter("ok_total", "Fine.").inc()

        def broken_sampler():
            raise RuntimeError("live object gone")

        registry.gauge_family("broken_gauge", "Broken.", (), broken_sampler)
        samples = parse_prometheus(registry.render())
        assert samples["ok_total"] == 1
        assert not select(samples, "broken_gauge")  # empty, not a crash

    def test_default_buckets_are_sorted_and_wide(self):
        assert list(SOLVE_LATENCY_BUCKETS) == sorted(SOLVE_LATENCY_BUCKETS)
        assert SOLVE_LATENCY_BUCKETS[0] <= 0.001
        assert SOLVE_LATENCY_BUCKETS[-1] >= 30.0


# ---------------------------------------------------------------------------
# Event channels and the bus.
# ---------------------------------------------------------------------------

class TestEventChannel:
    def test_late_subscriber_replays_history(self):
        channel = EventChannel("k")
        channel.publish({"event": "round", "round": 1})
        channel.publish({"event": "round", "round": 2})
        subscription = channel.subscribe()
        assert subscription.get_nowait()["round"] == 1
        assert subscription.get_nowait()["round"] == 2

    def test_close_delivers_final_event_then_sentinel(self):
        channel = EventChannel("k")
        subscription = channel.subscribe()
        channel.publish({"event": "round", "round": 1})
        channel.close({"event": "end"})
        assert subscription.get_nowait()["event"] == "round"
        assert subscription.get_nowait()["event"] == "end"
        assert subscription.get_nowait() is None
        # Publishing after close is a silent no-op.
        channel.publish({"event": "round", "round": 99})
        assert subscription.empty()

    def test_subscribe_after_close_gets_history_and_sentinel(self):
        channel = EventChannel("k")
        channel.publish({"event": "round", "round": 1})
        channel.close({"event": "end"})
        subscription = channel.subscribe()
        events = []
        while True:
            event = subscription.get_nowait()
            if event is None:
                break
            events.append(event["event"])
        assert events == ["round", "end"]

    def test_bus_archives_closed_channels(self):
        bus = SolveEventBus(archive_entries=2)
        for key in ("a", "b", "c"):
            bus.open(key).publish({"event": "round"})
            bus.close(key)
        assert bus.get("a") is None          # evicted from the archive
        assert bus.get("b") is not None      # still archived
        assert bus.get("c") is not None
        assert bus.live_keys() == []

    def test_bus_shutdown_terminates_live_streams(self):
        bus = SolveEventBus()
        subscription = bus.open("k").subscribe()
        bus.shutdown("going down")
        final = subscription.get_nowait()
        assert final["event"] == "end" and final["status"] == "error"
        assert subscription.get_nowait() is None


class TestStreamingObserver:
    def test_round_events_respect_stride(self):
        sink: list = []

        class ListSink:
            def put(self, event):
                sink.append(event)

        observer = StreamingObserver(ListSink(), stride=2)
        snapshot = type("Snap", (), {
            "round_number": 0, "active_at_start": 4, "newly_halted": (),
            "messages": 1, "bits": 8, "max_edge_bits": 8})
        for round_number in (1, 2, 3, 4):
            snap = snapshot()
            snap.round_number = round_number
            observer.on_round_end(round_number, snap)
        assert [event["round"] for event in sink] == [2, 4]


# ---------------------------------------------------------------------------
# Structured logging.
# ---------------------------------------------------------------------------

class TestJsonLogging:
    def test_formatter_renders_one_json_object(self):
        record = logging.LogRecord("repro.service", logging.INFO, __file__,
                                   1, "request", (), None)
        record.repro_fields = {"key": "abc", "latency_ms": 1.25}
        line = JsonLineFormatter().format(record)
        doc = json.loads(line)
        assert doc["event"] == "request"
        assert doc["key"] == "abc" and doc["latency_ms"] == 1.25
        assert doc["level"] == "info"

    def test_log_event_writes_jsonl_file(self, tmp_path):
        path = tmp_path / "service.jsonl"
        handler = configure_json_logging(str(path))
        try:
            log_event("request", key="k1", status="hit", latency_ms=0.5)
            log_event("client_disconnected", route="/events")
            handler.flush()
        finally:
            service_logger().removeHandler(handler)
        lines = [json.loads(line)
                 for line in path.read_text().strip().splitlines()]
        assert [doc["event"] for doc in lines] == ["request",
                                                  "client_disconnected"]
        assert lines[0]["status"] == "hit"

    def test_disabled_logger_costs_nothing(self):
        # No handler configured: log_event must short-circuit before
        # building the record (guard via isEnabledFor).
        logger = logging.getLogger("repro.service.test-disabled")
        logger.setLevel(logging.ERROR)
        log_event("request", logger=logger, key="ignored")  # no crash


# ---------------------------------------------------------------------------
# Scheduler accounting: every outcome records a latency sample.
# ---------------------------------------------------------------------------

class TestAllOutcomesRecordLatency:
    def test_invalid_request_records_latency(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                with pytest.raises(KeyError):
                    await scheduler.submit(SolveRequest(
                        workload="no-such-cell", algorithm="power-mis"))
                return (len(scheduler.latencies_s), scheduler.counters,
                        scheduler.metrics.solve_latency.count(
                            "power-mis", "invalid"))
            finally:
                await scheduler.stop()

        count, counters, histogram_count = run_async(scenario())
        assert count == 1
        assert counters["invalid"] == 1
        assert histogram_count == 1

    def test_worker_error_records_latency(self, monkeypatch):
        def exploding_worker(workload, graph_seed, algorithm, config, seed,
                             verify):
            raise RuntimeError("boom")

        monkeypatch.setattr(scheduler_module, "_worker_solve",
                            exploding_worker)

        async def scenario():
            scheduler = make_scheduler()
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    await scheduler.submit(REQUEST)
                return (len(scheduler.latencies_s), scheduler.counters,
                        scheduler.metrics.solve_latency.count(
                            "power-mis", "error"))
            finally:
                await scheduler.stop()

        count, counters, histogram_count = run_async(scenario())
        assert count == 1
        assert counters["errors"] == 1
        assert histogram_count == 1

    def test_rejected_request_records_latency(self, monkeypatch):
        release = threading.Event()

        def gated_worker(workload, graph_seed, algorithm, config, seed,
                         verify):
            release.wait(timeout=5)
            return scheduler_module._ORIGINAL_WORKER(
                workload, graph_seed, algorithm, config, seed, verify)

        original = scheduler_module._worker_solve
        monkeypatch.setattr(scheduler_module, "_ORIGINAL_WORKER", original,
                            raising=False)
        monkeypatch.setattr(scheduler_module, "_worker_solve", gated_worker)

        async def scenario():
            scheduler = make_scheduler(shards=1, max_pending=1)
            try:
                first = asyncio.create_task(scheduler.submit(REQUEST))
                await asyncio.sleep(0.05)  # occupies the single slot
                with pytest.raises(AdmissionError):
                    await scheduler.submit(SolveRequest(
                        workload="er-n20", algorithm="power-mis",
                        config=(("k", 2),)))
                rejected_count = scheduler.metrics.solve_latency.count(
                    "power-mis", "rejected")
                release.set()
                await first
                return rejected_count, len(scheduler.latencies_s)
            finally:
                release.set()
                await scheduler.stop()

        rejected_count, total = run_async(scenario())
        assert rejected_count == 1
        assert total == 2  # the rejected sample and the computed sample

    def test_closed_batch_records_one_outcome_per_seed(self):
        async def scenario():
            scheduler = make_scheduler()
            await scheduler.close()
            with pytest.raises(AdmissionError, match="closed"):
                await scheduler.submit_batch(REQUEST, [1, 2, 3])
            return (scheduler.counters, len(scheduler.latencies_s),
                    scheduler.metrics.solve_latency.count("power-mis",
                                                          "rejected"))

        counters, samples, rejected = run_async(scenario())
        assert counters["requests"] == 3
        assert counters["rejected"] == 3
        assert samples == 3
        assert rejected == 3

    def test_cancelled_batch_records_one_outcome_per_seed(self,
                                                          monkeypatch):
        started = threading.Event()
        release = threading.Event()
        original = scheduler_module._worker_solve_batch

        def gated_batch(*args):
            started.set()
            release.wait(timeout=10)
            return original(*args)

        monkeypatch.setattr(scheduler_module, "_worker_solve_batch",
                            gated_batch)

        async def scenario():
            scheduler = make_scheduler(shards=1)
            try:
                batch = asyncio.create_task(
                    scheduler.submit_batch(REQUEST, [1, 2, 3]))
                while not started.is_set():
                    await asyncio.sleep(0.01)
                batch.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await batch
                samples = len(scheduler.latencies_s)
                cancelled = scheduler.metrics.solve_latency.count(
                    "power-mis", "cancelled")
                # The job holds its admission slot until it ends ...
                gated_pending = scheduler._pending
                release.set()
                for _ in range(1000):
                    if scheduler.cache.stats.puts == 3:
                        break
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0)
                # ... and frees it once its rows are cached.
                return samples, cancelled, gated_pending, scheduler._pending
            finally:
                release.set()
                await scheduler.stop()

        samples, cancelled, gated_pending, pending = run_async(scenario())
        assert samples == 3
        assert cancelled == 3
        assert gated_pending == 1
        assert pending == 0

    def test_repeated_batch_seed_is_its_own_outcome(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                responses = await scheduler.submit_batch(REQUEST, [1, 2, 1])
                return (responses, len(scheduler.latencies_s),
                        dict(scheduler.counters))
            finally:
                await scheduler.stop()

        responses, samples, counters = run_async(scenario())
        assert [row.status for row in responses] == ["computed", "computed",
                                                     "coalesced"]
        assert responses[0].key == responses[2].key
        assert responses[0].report is responses[2].report
        assert samples == counters["requests"] == 3
        assert counters["computed"] == 2 and counters["coalesced"] == 1

    def test_batch_rows_log_their_own_seed_and_warm_replays(self, tmp_path):
        """Each batch row logs its own seed, so ``repro cache warm`` on the
        log warms the keys that were served, not the request's seed."""
        trace = tmp_path / "serve.jsonl"
        handler = configure_json_logging(str(trace))

        async def batch():
            scheduler = make_scheduler()
            try:
                await scheduler.submit_batch(REQUEST, [1, 2])
            finally:
                await scheduler.stop()

        try:
            run_async(batch())
            handler.flush()
        finally:
            service_logger().removeHandler(handler)
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [doc["seed"] for doc in lines
                if doc["event"] == "request"] == [1, 2]

        store = str(tmp_path / "cache")
        assert cache_cli.main(["warm", "--trace", str(trace),
                               "--cache-path", store]) == 0

        async def solo():
            scheduler = make_scheduler(cache=SolveCache(store))
            try:
                return await scheduler.submit(
                    dataclasses.replace(REQUEST, seed=2))
            finally:
                await scheduler.stop()

        assert run_async(solo()).status == "hit"

    def test_hit_and_computed_statuses_labeled(self):
        async def scenario():
            scheduler = make_scheduler()
            try:
                await scheduler.submit(REQUEST)
                await scheduler.submit(REQUEST)
                histogram = scheduler.metrics.solve_latency
                return (histogram.count("power-mis", "computed"),
                        histogram.count("power-mis", "hit"))
            finally:
                await scheduler.stop()

        computed, hit = run_async(scenario())
        assert computed == 1 and hit == 1

    def test_metrics_none_disables_recording(self):
        async def scenario():
            scheduler = make_scheduler(metrics=None)
            try:
                response = await scheduler.submit(REQUEST)
                return response.status, scheduler.metrics
            finally:
                await scheduler.stop()

        status, metrics = run_async(scenario())
        assert status == "computed" and metrics is None


# ---------------------------------------------------------------------------
# The served observability surface.
# ---------------------------------------------------------------------------

@pytest.fixture()
def server():
    scheduler = SolveScheduler(cache=SolveCache(""), inline=True, shards=2)
    with ServiceServer(port=0, scheduler=scheduler) as running:
        yield running


@pytest.fixture()
def client(server):
    client = ServiceClient(server.url)
    client.wait_healthy(deadline_s=10)
    return client


class TestReportPolling:
    def test_report_does_not_mutate_cache_stats(self, server, client):
        """The satellite-a regression: ``GET /report/<key>`` is a peek."""
        row = client.solve("regular-n24-d3", "power-mis", config={"k": 2},
                           seed=11)
        stats = server.scheduler.cache.stats
        hits_before = stats.hits
        misses_before = stats.misses
        hit_rate_before = client.stats()["cache"]["hit_rate"]
        for _ in range(10):
            fetched = client.report(row["key"])
            assert fetched["report"] == row["report"]
            assert fetched["tier"] == "memory"
        with pytest.raises(ServiceError) as excinfo:
            client.report("0" * 32)
        assert excinfo.value.status == 404
        assert stats.hits == hits_before
        assert stats.misses == misses_before
        assert client.stats()["cache"]["hit_rate"] == hit_rate_before

    def test_report_does_not_promote_lru_order(self, server, client):
        cache = server.scheduler.cache
        first = client.solve("regular-n24-d3", "power-mis", config={"k": 2},
                             seed=21)
        second = client.solve("er-n20", "power-mis", config={"k": 2},
                              seed=22)
        # ``second`` is most recent; peeking ``first`` must not reorder.
        for _ in range(5):
            client.report(first["key"])
        assert next(iter(cache._memory)) == first["key"]  # still oldest
        assert list(cache._memory)[-1] == second["key"]


class TestRequestTimeout:
    def test_timeout_maps_to_504_and_leaks_nothing(self, monkeypatch):
        started = threading.Event()

        def slow_worker(workload, graph_seed, algorithm, config, seed,
                        verify):
            started.set()
            time.sleep(1.0)
            return scheduler_module._SLOW_ORIGINAL(
                workload, graph_seed, algorithm, config, seed, verify)

        original = scheduler_module._worker_solve
        monkeypatch.setattr(scheduler_module, "_SLOW_ORIGINAL", original,
                            raising=False)
        monkeypatch.setattr(scheduler_module, "_worker_solve", slow_worker)

        scheduler = SolveScheduler(cache=SolveCache(""), inline=True,
                                   shards=1)
        with ServiceServer(port=0, scheduler=scheduler,
                           request_timeout_s=0.2) as server:
            client = ServiceClient(server.url)
            client.wait_healthy(deadline_s=10)
            with pytest.raises(ServiceError) as excinfo:
                client.solve("regular-n24-d3", "power-mis", config={"k": 2},
                             seed=31)
            assert excinfo.value.status == 504
            assert "continues in the background" in excinfo.value.message
            assert started.wait(timeout=5)
            # The shielded job finishes and lands in the cache; the
            # pending slot is released; the timeout is accounted.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                row = client.stats()
                if row["pending"] == 0 and row["cache"]["puts"] == 1:
                    break
                time.sleep(0.05)
            row = client.stats()
            assert row["pending"] == 0
            assert row["timeouts"] == 1
            assert row["cache"]["puts"] == 1
            # The cancelled outcome recorded its latency sample.
            cancelled = scheduler.metrics.solve_latency.count("power-mis",
                                                              "cancelled")
            assert cancelled == 1
            # ... and a retry is now an instant cache hit, not a dupe.
            retry = client.solve("regular-n24-d3", "power-mis",
                                 config={"k": 2}, seed=31)
            assert retry["status"] == "hit"


class TestClientDisconnects:
    def test_mid_stream_hangup_is_survived_and_counted(self, server, client,
                                                       monkeypatch):
        release = threading.Event()

        def gated_worker(workload, graph_seed, algorithm, config, seed,
                         verify, *args):
            release.wait(timeout=10)
            # Forward the streaming sink: the run publishes several round
            # frames after the hangup, so the handler's write definitely
            # hits the dead socket (a single write can succeed silently).
            return scheduler_module._GATE_ORIGINAL(
                workload, graph_seed, algorithm, config, seed, verify,
                *args)

        original = scheduler_module._worker_solve
        monkeypatch.setattr(scheduler_module, "_GATE_ORIGINAL", original,
                            raising=False)
        monkeypatch.setattr(scheduler_module, "_worker_solve", gated_worker)

        row = client.solve("regular-n24-d3", "luby-sim", seed=41,
                           wait=False, stream=True)
        host, port = server.address
        raw = socket.create_connection((host, port), timeout=5)
        raw.sendall(f"GET /events/{row['key']} HTTP/1.1\r\n"
                    f"Host: {host}\r\n\r\n".encode())
        raw.recv(256)  # the SSE headers (+ maybe the first frame)
        raw.close()    # hang up mid-stream
        release.set()
        # The handler thread notices on its next write (frame or
        # heartbeat); the server must stay healthy throughout.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            metrics = server.scheduler.metrics
            if metrics.client_disconnects.value("/events") >= 1:
                break
            time.sleep(0.05)
        assert client.healthz()["ok"] is True
        assert (server.scheduler.metrics.client_disconnects.value("/events")
                >= 1)


class TestEventStreaming:
    def test_stream_orders_queued_rounds_end(self, server, client):
        row = client.solve("regular-n24-d3", "luby-sim", seed=51,
                           wait=False, stream=True)
        events = list(client.stream_events(row["key"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "end"
        assert "run_start" in kinds and "run_end" in kinds
        round_events = [event for event in events
                        if event["event"] == "round"]
        assert len(round_events) >= 1  # a live multi-round solve streamed
        assert [event["round"] for event in round_events] == sorted(
            event["round"] for event in round_events)
        end = events[-1]
        assert end["status"] == "computed"
        assert end["rounds"] >= 1

    def test_late_subscriber_replays_finished_stream(self, server, client):
        row = client.solve("regular-n24-d3", "luby-sim", seed=52,
                           wait=False, stream=True)
        first = list(client.stream_events(row["key"]))   # runs to the end
        replay = list(client.stream_events(row["key"]))  # archived channel
        assert replay == first

    def test_cached_key_streams_single_end_frame(self, server, client):
        row = client.solve("regular-n24-d3", "power-mis", config={"k": 2},
                           seed=53)  # not streamed, just cached
        events = list(client.stream_events(row["key"]))
        assert len(events) == 1
        assert events[0]["event"] == "end"
        assert events[0]["status"] == "cached"

    def test_unknown_key_is_404(self, server, client):
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream_events("f" * 32))
        assert excinfo.value.status == 404

    def test_streamed_hit_still_ends(self, server, client):
        client.solve("regular-n24-d3", "luby-sim", seed=54)
        row = client.solve("regular-n24-d3", "luby-sim", seed=54,
                           stream=True)  # cache hit, streamed
        assert row["status"] == "hit"
        events = list(client.stream_events(row["key"]))
        assert events[-1]["event"] == "end"
        assert events[-1]["status"] in {"hit", "cached"}


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_counts_activity(self, server, client):
        client.solve("regular-n24-d3", "power-mis", config={"k": 2}, seed=61)
        client.solve("regular-n24-d3", "power-mis", config={"k": 2}, seed=61)
        samples = parse_prometheus(client.metrics())
        assert samples['repro_requests_total{status="requests"}'] >= 2
        assert samples['repro_requests_total{status="hits"}'] >= 1
        assert samples['repro_cache_events_total{tier="memory",event="hit"}'] >= 1
        latency_counts = select(samples, "repro_solve_latency_seconds_count")
        assert sum(latency_counts.values()) >= 2
        assert samples["repro_scheduler_shards"] == 2
        assert samples["repro_uptime_seconds"] > 0
        http = select(samples, "repro_http_requests_total")
        assert any('route="/solve"' in name and 'code="200"' in name
                   for name in http)

    def test_http_counter_covers_error_codes(self, server, client):
        with pytest.raises(ServiceError):
            client.solve("regular-n24-d3", "no-such-algorithm")
        samples = parse_prometheus(client.metrics())
        assert any('code="400"' in name
                   for name in select(samples,
                                      "repro_http_requests_total"))

    def test_metrics_disabled_is_404(self):
        scheduler = SolveScheduler(cache=SolveCache(""), inline=True,
                                   shards=1, metrics=None)
        with ServiceServer(port=0, scheduler=scheduler) as running:
            local = ServiceClient(running.url)
            local.wait_healthy(deadline_s=10)
            with pytest.raises(ServiceError) as excinfo:
                local.metrics()
            assert excinfo.value.status == 404
            # Serving still works without metrics.
            row = local.solve("regular-n24-d3", "power-mis",
                              config={"k": 2}, seed=62)
            assert row["status"] == "computed"


class TestConcurrentScraping:
    def test_scrapes_stay_consistent_during_live_solves(self, server,
                                                        client):
        """/metrics + /stats + /events hammered while solves run: every
        exposition parses, counters never decrease."""
        stop = threading.Event()
        errors: list[BaseException] = []
        requests_seen: list[float] = []

        def scraper():
            local = ServiceClient(server.url)
            while not stop.is_set():
                try:
                    samples = parse_prometheus(local.metrics())
                    requests_seen.append(
                        samples['repro_requests_total{status="requests"}'])
                    local.stats()
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)
                    return

        def solver(index: int):
            local = ServiceClient(server.url)
            try:
                for attempt in range(3):
                    row = local.solve("regular-n24-d3", "luby-sim",
                                      seed=70 + index, wait=False,
                                      stream=True)
                    kinds = [event["event"]
                             for event in local.stream_events(row["key"])]
                    assert kinds[-1] == "end"
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        scrape_thread = threading.Thread(target=scraper)
        scrape_thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(solver, range(4)))
        finally:
            stop.set()
            scrape_thread.join(timeout=10)
        assert not errors, errors[0]
        assert requests_seen, "the scraper never completed a pass"
        assert requests_seen == sorted(requests_seen)  # monotonic
        assert requests_seen[-1] >= 4

    def test_streams_terminate_across_shutdown(self, monkeypatch):
        """Subscribers of a live stream get a terminal frame when the
        server shuts down mid-solve, instead of hanging forever."""
        release = threading.Event()

        def gated_worker(workload, graph_seed, algorithm, config, seed,
                         verify, *args):
            release.wait(timeout=10)
            return scheduler_module._SHUTDOWN_ORIGINAL(
                workload, graph_seed, algorithm, config, seed, verify)

        original = scheduler_module._worker_solve
        monkeypatch.setattr(scheduler_module, "_SHUTDOWN_ORIGINAL", original,
                            raising=False)
        monkeypatch.setattr(scheduler_module, "_worker_solve", gated_worker)

        scheduler = SolveScheduler(cache=SolveCache(""), inline=True,
                                   shards=1)
        running = ServiceServer(port=0, scheduler=scheduler)
        running.start()
        client = ServiceClient(running.url)
        client.wait_healthy(deadline_s=10)
        row = client.solve("regular-n24-d3", "luby-sim", seed=81,
                           wait=False, stream=True)
        collected: list[dict] = []
        done = threading.Event()

        def watch():
            try:
                for event in client.stream_events(row["key"], timeout=15):
                    collected.append(event)
            finally:
                done.set()

        watcher = threading.Thread(target=watch)
        watcher.start()
        time.sleep(0.2)  # the watcher is subscribed and the job queued
        stop_thread = threading.Thread(target=running.stop)
        stop_thread.start()
        time.sleep(0.2)
        release.set()  # let the gated worker finish so stop() completes
        stop_thread.join(timeout=15)
        assert done.wait(timeout=15), "the event stream never terminated"
        watcher.join(timeout=5)
        assert collected, "no events before shutdown"
        assert collected[-1]["event"] == "end"
