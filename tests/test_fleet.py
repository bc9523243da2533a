"""The distributed fleet: registry, routing, containment, equivalence.

Unit layers (fake clocks, no sockets): lease lifecycle in
:class:`WorkerRegistry`, consistent-hashing determinism and minimal
remapping in :class:`HashRing`, the :class:`CircuitBreaker` state machine,
client backoff arithmetic, and the MAAS-style
``get_best_discovered_result`` failure ranking.

Integration layer: a real coordinator and two real in-process workers on
ephemeral ports (inline schedulers, memory-only caches).  Covers affinity
determinism, fleet-served reports being bit-identical to a direct
in-process ``repro.solve``, grouped ``/solve_batch`` dispatch, scatter,
kill-a-worker-mid-fleet failover (non-zero retry/steal counters, zero
lost requests), lease expiry and 410-triggered re-enrollment.  Scripted
fake workers pin the grouped-dispatch failover rules.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import report_from_json, solve
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceServer,
    SolveCache,
    SolveScheduler,
)
from repro.service import scheduler as scheduler_module
from repro.fleet import (
    CircuitBreaker,
    CircuitOpenError,
    FleetCoordinator,
    FleetWorker,
    HashRing,
    NoLiveWorkersError,
    TransportError,
    WorkerRegistry,
    get_best_discovered_result,
)

WORKLOAD = "regular-n24-d3"
ALGORITHM = "det-power-ruling"
CONFIG = {"k": 2}


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Registry lifecycle
# ---------------------------------------------------------------------------

class TestWorkerRegistry:
    def test_enroll_returns_lease_terms(self):
        registry = WorkerRegistry(ttl_s=9.0, clock=FakeClock())
        lease = registry.enroll("w0", "http://127.0.0.1:1", {"batch": True})
        assert lease["worker_id"] == "w0"
        assert lease["generation"] == 1
        assert lease["ttl_s"] == 9.0
        assert lease["heartbeat_interval_s"] == 3.0

    def test_enroll_requires_identity(self):
        registry = WorkerRegistry()
        with pytest.raises(ValueError):
            registry.enroll("", "http://x")
        with pytest.raises(ValueError):
            registry.enroll("w0", "")

    def test_renew_extends_lease_and_updates_snapshot(self):
        clock = FakeClock()
        registry = WorkerRegistry(ttl_s=10.0, clock=clock)
        registry.enroll("w0", "http://x")
        clock.advance(8.0)
        assert registry.renew("w0", {"queue_depths": [2, 3], "pending": 4,
                                     "cache": {"hits": 7}}) is True
        clock.advance(8.0)  # would be past the original lease
        live = registry.live()
        assert [info.worker_id for info in live] == ["w0"]
        info = live[0]
        assert info.queue_depth == 5
        assert info.pending == 4
        assert info.capabilities["cache"] == {"hits": 7}
        assert info.heartbeats == 1

    def test_expiry_after_missed_heartbeats(self):
        clock = FakeClock()
        registry = WorkerRegistry(ttl_s=10.0, clock=clock)
        registry.enroll("w0", "http://x")
        registry.enroll("w1", "http://y")
        clock.advance(5.0)
        registry.renew("w1", None)
        clock.advance(6.0)  # w0 is now 11s stale, w1 only 6s
        dropped = registry.expire()
        assert [info.worker_id for info in dropped] == ["w0"]
        assert registry.expired_total == 1
        assert [info.worker_id for info in registry.live()] == ["w1"]

    def test_renew_after_expiry_is_refused(self):
        clock = FakeClock()
        registry = WorkerRegistry(ttl_s=10.0, clock=clock)
        registry.enroll("w0", "http://x")
        clock.advance(11.0)
        assert registry.renew("w0") is False
        assert registry.renew("never-enrolled") is False

    def test_reenroll_bumps_generation_and_replaces_state(self):
        registry = WorkerRegistry(clock=FakeClock())
        registry.enroll("w0", "http://old", {"batch": True})
        lease = registry.enroll("w0", "http://new", {"batch": False})
        assert lease["generation"] == 2
        info = registry.get("w0")
        assert info.url == "http://new"
        assert info.supports_batch() is False

    def test_deregister(self):
        registry = WorkerRegistry(clock=FakeClock())
        registry.enroll("w0", "http://x")
        assert registry.deregister("w0") is True
        assert registry.deregister("w0") is False
        assert len(registry) == 0

    def test_rows_carry_heartbeat_age(self):
        clock = FakeClock()
        registry = WorkerRegistry(ttl_s=30.0, clock=clock)
        registry.enroll("w0", "http://x")
        clock.advance(4.0)
        (row,) = registry.to_rows()
        assert row["heartbeat_age_s"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------

class TestHashRing:
    def test_routing_is_deterministic(self):
        first = HashRing(["a", "b", "c"])
        second = HashRing(["c", "a", "b"])  # order must not matter
        keys = [f"fingerprint-{index}" for index in range(50)]
        assert [first.route(key) for key in keys] == \
               [second.route(key) for key in keys]

    def test_preference_covers_all_workers_once(self):
        ring = HashRing(["a", "b", "c", "d"])
        order = ring.preference("some-fingerprint")
        assert sorted(order) == ["a", "b", "c", "d"]
        assert len(set(order)) == len(order)

    def test_removing_a_worker_only_remaps_its_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"g{index}" for index in range(200)]
        before = {key: ring.route(key) for key in keys}
        ring.rebuild(["a", "b"])  # c left the fleet
        moved = 0
        for key in keys:
            after = ring.route(key)
            if before[key] == "c":
                assert after in ("a", "b")
            else:
                assert after == before[key], \
                    "a key not owned by the removed worker moved"
        assert any(owner == "c" for owner in before.values())

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(["a", "b", "c", "d"], replicas=64)
        counts = {worker_id: 0 for worker_id in "abcd"}
        total = 2000
        for index in range(total):
            counts[ring.route(f"key-{index}")] += 1
        for worker_id, count in counts.items():
            assert count > total * 0.10, (worker_id, counts)

    def test_empty_ring(self):
        ring = HashRing([])
        assert ring.route("anything") is None
        assert ring.preference("anything") == []


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=5.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.acquire()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        breaker.acquire()  # the probe gets through ...
        with pytest.raises(CircuitOpenError):
            breaker.acquire()  # ... concurrent callers do not

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.acquire()
        breaker.record_failure()  # probe verdict: still down
        assert breaker.state == "open"
        clock.advance(5.0)
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.acquire()  # closed circuit admits freely


# ---------------------------------------------------------------------------
# Client backoff (satellite: ServiceClient retries)
# ---------------------------------------------------------------------------

class TestClientBackoff:
    def test_backoff_grows_exponentially_and_caps(self):
        client = ServiceClient("http://127.0.0.1:1", retries=8,
                               backoff_base_s=0.1, backoff_max_s=1.0,
                               backoff_jitter=0.0)
        delays = [client._backoff_delay(index) for index in range(6)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert delays[4] == delays[5] == pytest.approx(1.0)

    def test_jitter_stays_within_band(self):
        client = ServiceClient("http://127.0.0.1:1",
                               backoff_base_s=0.1, backoff_jitter=0.25)
        for _ in range(50):
            delay = client._backoff_delay(0)
            assert 0.1 <= delay <= 0.1 * 1.25

    def test_default_retries_zero_fails_fast(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        slept: list[float] = []
        client._backoff_delay = lambda index: slept.append(index) or 0.0
        with pytest.raises(OSError):
            client.request("GET", "/healthz")
        assert slept == []  # no backoff sleeps on the historical path

    def test_retries_attempt_extra_connections(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5, retries=2,
                               backoff_base_s=0.001, backoff_jitter=0.0)
        sleeps: list[float] = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        with pytest.raises(OSError):
            client.request("GET", "/healthz")
        # 2 + retries total attempts; backoff before each retry attempt.
        assert len(sleeps) == 2
        assert sleeps == sorted(sleeps)


# ---------------------------------------------------------------------------
# Best-result resolution (MAAS-style)
# ---------------------------------------------------------------------------

class TestGetBestDiscoveredResult:
    def test_any_success_wins(self):
        row = {"status": "computed"}
        result = get_best_discovered_result(
            {"w0": row}, {"w1": TransportError("w1", "refused")})
        assert result is row

    def test_request_error_beats_transport_error(self):
        bad_request = ServiceError(400, "unknown algorithm")
        with pytest.raises(ServiceError) as excinfo:
            get_best_discovered_result(
                {}, {"w0": TransportError("w0", "refused"),
                     "w1": bad_request,
                     "w2": CircuitOpenError("w2", 3.0)})
        assert excinfo.value is bad_request

    def test_solver_fault_beats_load_shedding(self):
        fault = ServiceError(500, "solver exploded")
        with pytest.raises(ServiceError) as excinfo:
            get_best_discovered_result(
                {}, {"w0": ServiceError(429, "admission refused"),
                     "w1": fault})
        assert excinfo.value is fault

    def test_transport_beats_circuit_open(self):
        refused = TransportError("w0", "refused")
        with pytest.raises(TransportError) as excinfo:
            get_best_discovered_result(
                {}, {"w0": refused, "w1": CircuitOpenError("w1", 2.0)})
        assert excinfo.value is refused

    def test_empty_maps_raise_no_live_workers(self):
        with pytest.raises(NoLiveWorkersError):
            get_best_discovered_result({}, {})


# ---------------------------------------------------------------------------
# Integration: a real coordinator + two real workers
# ---------------------------------------------------------------------------

def _make_worker(coordinator_url: str, worker_id: str) -> FleetWorker:
    scheduler = SolveScheduler(cache=SolveCache(""), inline=True, shards=2)
    return FleetWorker(coordinator_url, worker_id=worker_id, port=0,
                       scheduler=scheduler, heartbeat_interval_s=0.2)


@pytest.fixture(scope="module")
def fleet():
    with FleetCoordinator(port=0, ttl_s=5.0, batch_window_s=0.05,
                          circuit_reset_after_s=0.5) as coordinator:
        workers = [_make_worker(coordinator.url, f"w{index}")
                   for index in range(2)]
        for worker in workers:
            worker.start()
        try:
            yield coordinator, workers
        finally:
            for worker in workers:
                worker.stop()


@pytest.fixture(scope="module")
def fleet_client(fleet):
    coordinator, _ = fleet
    client = ServiceClient(coordinator.url, timeout=120)
    client.wait_healthy(deadline_s=10)
    return client


class TestFleetIntegration:
    def test_workers_enrolled_and_heartbeating(self, fleet, fleet_client):
        _, workers = fleet
        doc = fleet_client.request("GET", "/fleet/workers")
        rows = {row["worker_id"]: row for row in doc["workers"]}
        assert set(rows) == {"w0", "w1"}
        for row in rows.values():
            assert row["capabilities"]["batch"] is True
            assert "sync" in row["capabilities"]["engines"]
            assert row["heartbeat_age_s"] < 5.0
        deadline = time.monotonic() + 5.0
        while (any(worker.heartbeats_sent == 0 for worker in workers)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert all(worker.heartbeats_sent > 0 for worker in workers)

    def test_solve_then_hit_lands_on_same_worker(self, fleet_client):
        first = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                   seed=5)
        second = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                    seed=5)
        assert first["status"] == "computed"
        assert second["status"] == "hit"
        assert second["worker"] == first["worker"]
        assert second["key"] == first["key"]
        assert second["report"] == first["report"]

    def test_affinity_routing_is_deterministic(self, fleet_client):
        # Same graph -> same worker, across distinct solves; different
        # graphs spread over the fleet eventually.
        owners = {}
        for graph_seed in range(6):
            row1 = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                      graph_seed=graph_seed, seed=1)
            row2 = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                      graph_seed=graph_seed, seed=2)
            assert row1["worker"] == row2["worker"], \
                f"graph_seed={graph_seed} split across workers"
            owners[graph_seed] = row1["worker"]
        assert len(set(owners.values())) > 1, \
            "6 distinct graphs all hashed to one worker"

    def test_fleet_result_is_bit_identical_to_direct_solve(
            self, fleet_client):
        row = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                 graph_seed=0, seed=7)
        graph = DEFAULT_REGISTRY.build_cell(WORKLOAD, seed=0)
        fresh = solve(graph, ALGORITHM, seed=7, **CONFIG)
        assert row["report"]["provenance"] == fresh.provenance.to_row()
        served = report_from_json(row["report"])
        assert served.output == fresh.output
        assert served.rounds == fresh.rounds

    def test_batch_grouping_coalesces_same_shape_requests(self, fleet):
        coordinator, _ = fleet
        before = dict(coordinator.counters)
        results = {}
        clients = {seed: ServiceClient(coordinator.url, timeout=120)
                   for seed in (101, 102, 103)}

        def issue(seed: int) -> None:
            results[seed] = clients[seed].solve(
                WORKLOAD, ALGORITHM, config=CONFIG, graph_seed=3,
                seed=seed)

        threads = [threading.Thread(target=issue, args=(seed,))
                   for seed in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        grouped = [row for row in results.values() if "grouped" in row]
        assert len(grouped) >= 2, "no requests were grouped"
        assert len({row["worker"] for row in grouped}) == 1
        after = coordinator.counters
        assert after["batched"] > before["batched"]
        assert after["batch_calls"] > before["batch_calls"]
        # Grouped results are real solves with distinct addresses.
        assert len({results[seed]["key"] for seed in results}) == 3

    def test_scatter_discovers_every_worker(self, fleet_client):
        row = fleet_client.request("POST", "/solve", {
            "workload": WORKLOAD, "algorithm": ALGORITHM, "config": CONFIG,
            "graph_seed": 1, "seed": 9, "scatter": True})
        assert row["status"] in ("computed", "hit")
        assert row["scatter"]["discovered"] == ["w0", "w1"]
        assert row["scatter"]["failures"] == {}

    def test_report_is_resolved_across_the_fleet(self, fleet_client):
        row = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                 graph_seed=2, seed=4)
        fetched = fleet_client.request("GET", f"/report/{row['key']}")
        assert fetched["report"] == row["report"]
        with pytest.raises(ServiceError) as excinfo:
            fleet_client.request("GET", "/report/no-such-key")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("workload, algorithm", [
        (WORKLOAD, "no-such-algorithm"),
        ("no-such-workload", ALGORITHM),
    ], ids=["unknown-algorithm", "unknown-workload"])
    def test_bad_request_propagates_as_400_without_retries(
            self, fleet, fleet_client, workload, algorithm):
        coordinator, _ = fleet
        retried_before = coordinator.counters["retried"]
        with pytest.raises(ServiceError) as excinfo:
            fleet_client.solve(workload, algorithm)
        assert excinfo.value.status == 400
        assert coordinator.counters["retried"] == retried_before

    def test_worker_status_route(self, fleet):
        _, workers = fleet
        client = ServiceClient(workers[0].server.url)
        status = client.request("GET", "/fleet/status")
        assert status["worker_id"] == "w0"
        assert status["enrolled"] is True
        assert status["lease"]["generation"] >= 1
        assert status["capabilities"]["batch"] is True

    def test_solve_batch_endpoint_on_worker(self, fleet):
        _, workers = fleet
        client = ServiceClient(workers[0].server.url, timeout=120)
        doc = client.request("POST", "/solve_batch", {
            "workload": WORKLOAD, "algorithm": ALGORITHM, "config": CONFIG,
            "graph_seed": 4, "seeds": [21, 22, 21]})
        assert doc["count"] == 3
        rows = doc["rows"]
        assert rows[0]["key"] == rows[2]["key"]  # duplicate seed, same run
        assert rows[0]["key"] != rows[1]["key"]
        assert {row["status"] for row in rows} <= {"computed", "hit",
                                                   "coalesced"}

    def test_solve_batch_requires_seed_list(self, fleet):
        _, workers = fleet
        client = ServiceClient(workers[0].server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/solve_batch", {
                "workload": WORKLOAD, "algorithm": ALGORITHM, "seeds": []})
        assert excinfo.value.status == 400

    def test_stats_and_metrics_expose_fleet_state(self, fleet,
                                                  fleet_client):
        stats = fleet_client.request("GET", "/stats")
        assert stats["counters"]["routed"] > 0
        assert 0.0 <= stats["affinity_hit_rate"] <= 1.0
        assert {row["worker_id"] for row in stats["workers"]} == \
            {"w0", "w1"}
        text = fleet_client.metrics()
        assert "repro_fleet_live_workers 2" in text
        assert 'repro_fleet_requests_total{outcome="routed"}' in text
        assert 'repro_fleet_worker_heartbeat_age_seconds{worker="w0"}' \
            in text
        assert "repro_http_requests_total" in text


class TestFleetObservability:
    """Tracing and federated telemetry over the shared module fleet."""

    def test_solve_carries_a_trace_id_and_the_tree_covers_every_hop(
            self, fleet_client):
        row = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                 graph_seed=11, seed=31)
        trace_id = row["trace_id"]
        assert len(trace_id) == 32
        doc = fleet_client.request("GET", f"/trace/{trace_id}")
        assert doc["trace_id"] == trace_id
        assert doc["span_count"] >= 4
        assert set(doc["services"]) == {"coordinator", "serve", "worker"}
        assert "coordinator" in doc["workers"]
        assert row["worker"] in doc["workers"]
        (root,) = doc["roots"]
        assert root["name"] == "fleet.solve"
        assert root["status"] == "ok"
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node["children"]:
                walk(child)

        walk(root)
        assert {"fleet.solve", "fleet.attempt", "scheduler.request",
                "worker.solve"} <= names

    def test_client_supplied_trace_parent_is_adopted(self, fleet,
                                                     fleet_client):
        coordinator, _ = fleet
        from repro.service import TRACE_HEADER, TraceContext

        parent = TraceContext.new()
        row = fleet_client.request(
            "POST", "/solve",
            {"workload": WORKLOAD, "algorithm": ALGORITHM,
             "config": CONFIG, "graph_seed": 12, "seed": 1},
            headers={TRACE_HEADER: parent.to_header()})
        assert row["trace_id"] == parent.trace_id
        rows = coordinator.trace_recorder.spans(parent.trace_id)
        root = next(r for r in rows if r["name"] == "fleet.solve")
        assert root["parent_id"] == parent.span_id

    def test_unknown_trace_id_is_404(self, fleet_client):
        with pytest.raises(ServiceError) as excinfo:
            fleet_client.request("GET", "/trace/" + "d" * 32)
        assert excinfo.value.status == 404

    def test_worker_trace_endpoint_serves_its_spans(self, fleet,
                                                    fleet_client):
        _, workers = fleet
        row = fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                 graph_seed=13, seed=2)
        worker = next(w for w in workers
                      if w.worker_id == row["worker"])
        client = ServiceClient(worker.server.url)
        doc = client.request("GET", f"/trace/{row['trace_id']}")
        names = {span["name"] for span in doc["spans"]}
        assert {"scheduler.request", "worker.solve"} <= names

    def test_fleet_metrics_federates_every_worker(self, fleet_client):
        fleet_client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                           graph_seed=14, seed=3)
        page = fleet_client.request_bytes(
            "GET", "/fleet/metrics").decode("utf-8")
        for owner in ("coordinator", "w0", "w1"):
            assert f'worker="{owner}"' in page, owner
        # The relay histogram recorded real dispatches ...
        counts = [line for line in page.splitlines()
                  if line.startswith("repro_fleet_relay_latency_seconds_"
                                     "count")
                  and 'outcome="ok"' in line]
        assert counts and all(not line.endswith(" 0") for line in counts)
        # ... families stay contiguous (one header per family) ...
        lines = page.splitlines()
        assert sum(1 for line in lines
                   if line.startswith("# TYPE repro_http_requests_total ")
                   ) == 1
        # ... and worker-side families arrive under worker labels.
        assert any(line.startswith("repro_solve_latency_seconds_count{")
                   and ('worker="w0"' in line or 'worker="w1"' in line)
                   for line in lines)

    def test_stats_expose_failure_classes_and_tracing(self, fleet_client):
        stats = fleet_client.request("GET", "/stats")
        assert isinstance(stats["failures_by_class"], dict)
        assert stats["tracing"]["recorded_total"] > 0
        assert set(stats["breakers"].values()) <= \
            {"closed", "half-open", "open"}

    def test_metrics_page_carries_circuit_and_ring_gauges(
            self, fleet_client):
        text = fleet_client.metrics()
        assert 'repro_fleet_circuit_state{worker="w0",state="closed"} 1' \
            in text
        assert "repro_fleet_ring_vnodes" in text
        assert "repro_fleet_ring_keyspace_share" in text
        assert "repro_trace_traces_retained" in text


class TestFleetFailureContainment:
    """Function-scoped fleets: these tests maim their workers."""

    def test_killed_worker_fails_over_with_zero_lost_requests(self):
        with FleetCoordinator(port=0, ttl_s=2.0, worker_timeout_s=30.0,
                              circuit_reset_after_s=30.0) as coordinator:
            workers = [_make_worker(coordinator.url, f"k{index}")
                       for index in range(2)]
            for worker in workers:
                worker.start()
            client = ServiceClient(coordinator.url, timeout=120)
            client.wait_healthy(deadline_s=10)
            try:
                row = client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                   seed=1)
                victim_id = row["worker"]
                victim = next(worker for worker in workers
                              if worker.worker_id == victim_id)
                # Hard kill: no /fleet/leave, the lease just goes stale.
                # (A real SIGKILL also resets established TCP connections;
                # in-process we emulate that by dropping the coordinator's
                # cached link so its next dispatch dials a dead port.  The
                # chaos benchmark exercises the real-signal path.)
                victim.crash()
                coordinator._drop_link(victim_id)
                # Same graph routes at the dead primary, fails over, and
                # still answers -- idempotent replay on another worker.
                rows = [client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                     seed=seed) for seed in (1, 2, 3)]
                survivor = next(worker.worker_id for worker in workers
                                if worker.worker_id != victim_id)
                assert all(r["worker"] == survivor for r in rows)
                assert coordinator.counters["retried"] > 0
                assert coordinator.counters["stolen"] > 0
                assert coordinator.counters["failed"] == 0
                # The failover recompute matches the pre-kill original.
                assert rows[0]["key"] == row["key"]
                assert rows[0]["report"] == row["report"]
                # After a full TTL the dead lease is expired from routing.
                deadline = time.monotonic() + 8.0
                while (any(info.worker_id == victim_id
                           for info in coordinator.registry.live())
                       and time.monotonic() < deadline):
                    time.sleep(0.1)
                assert [info.worker_id
                        for info in coordinator.registry.live()] == \
                    [survivor]
                assert coordinator.registry.expired_total >= 1
            finally:
                for worker in workers:
                    worker.stop()

    def test_killed_worker_failover_is_visible_in_the_trace(self):
        """Chaos + tracing: one trace shows the death and the recovery.

        Kill the affinity worker mid-fleet, re-issue the same solve, and
        read the story straight off ``/trace/<id>``: a failed
        ``fleet.attempt`` span naming the victim, a successful retry
        attempt on the survivor, an ``ok`` root -- and a bit-identical
        result, because content addressing makes the replay idempotent.
        """
        with FleetCoordinator(port=0, ttl_s=2.0, worker_timeout_s=30.0,
                              circuit_reset_after_s=30.0) as coordinator:
            workers = [_make_worker(coordinator.url, f"t{index}")
                       for index in range(2)]
            for worker in workers:
                worker.start()
            client = ServiceClient(coordinator.url, timeout=120)
            client.wait_healthy(deadline_s=10)
            try:
                row = client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                   seed=41)
                victim_id = row["worker"]
                victim = next(worker for worker in workers
                              if worker.worker_id == victim_id)
                survivor_id = next(worker.worker_id for worker in workers
                                   if worker.worker_id != victim_id)
                # Hard kill (same emulation as the zero-lost-requests
                # test): stop serving without /fleet/leave and drop the
                # coordinator's cached link so its next dispatch dials a
                # dead port.
                victim.crash()
                coordinator._drop_link(victim_id)
                replay = client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                      seed=41)
                assert replay["worker"] == survivor_id
                # Bit-identical replay despite the failover.
                assert replay["key"] == row["key"]
                assert replay["report"] == row["report"]
                doc = client.request("GET",
                                     f"/trace/{replay['trace_id']}")
                (root,) = doc["roots"]
                assert root["name"] == "fleet.solve"
                assert root["status"] == "ok"
                attempts = [node for node in root["children"]
                            if node["name"] == "fleet.attempt"]
                assert len(attempts) >= 2
                failed = [a for a in attempts if a["status"] == "error"]
                succeeded = [a for a in attempts if a["status"] == "ok"]
                assert any(a["attrs"]["worker"] == victim_id
                           for a in failed), \
                    "no failed attempt span names the killed worker"
                (final,) = succeeded
                assert final["attrs"]["worker"] == survivor_id
                # The survivor's worker-side spans hang off the retry.
                downstream = {node["name"] for node in final["children"]}
                assert "scheduler.request" in downstream
                # And the failure class was accounted.
                stats = client.request("GET", "/stats")
                assert stats["failures_by_class"].get(
                    "transport_error", 0) > 0
            finally:
                for worker in workers:
                    worker.stop()

    def test_empty_fleet_answers_503(self):
        with FleetCoordinator(port=0, ttl_s=2.0) as coordinator:
            client = ServiceClient(coordinator.url, timeout=10)
            client.wait_healthy(deadline_s=10)
            with pytest.raises(ServiceError) as excinfo:
                client.solve(WORKLOAD, ALGORITHM, config=CONFIG)
            assert excinfo.value.status == 503

    def test_heartbeat_410_triggers_reenroll(self):
        with FleetCoordinator(port=0, ttl_s=5.0) as coordinator:
            worker = _make_worker(coordinator.url, "phoenix")
            worker.start()
            try:
                assert worker.lease["generation"] == 1
                # Simulate a coordinator restart: the lease vanishes, the
                # next heartbeat answers 410 Gone, the worker re-enrolls.
                coordinator.registry.deregister("phoenix")
                deadline = time.monotonic() + 5.0
                while (worker.re_enrolls == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert worker.re_enrolls >= 1
                assert coordinator.registry.get("phoenix") is not None
                assert worker.lease["ttl_s"] == 5.0
            finally:
                worker.stop()


# ---------------------------------------------------------------------------
# The relayed body
# ---------------------------------------------------------------------------

def _reject_duplicate_keys(pairs):
    keys = [key for key, _ in pairs]
    duplicates = sorted({key for key in keys if keys.count(key) > 1})
    assert not duplicates, f"duplicate keys {duplicates}"
    return dict(pairs)


class TestRelayedBody:
    """The solo relay splices fields into the worker's bytes: each key
    must appear once, whether or not the worker records traces."""

    @pytest.mark.parametrize("worker_tracing", [True, False])
    @pytest.mark.parametrize("coordinator_tracing", [True, False])
    def test_one_trace_id_per_relayed_body(self, worker_tracing,
                                           coordinator_tracing):
        from repro.service import TRACE_HEADER, TraceContext

        with FleetCoordinator(port=0, ttl_s=5.0,
                              tracing=coordinator_tracing) as coordinator:
            scheduler = SolveScheduler(cache=SolveCache(""), inline=True,
                                       shards=1, tracing=worker_tracing)
            worker = FleetWorker(coordinator.url, worker_id="solo", port=0,
                                 scheduler=scheduler,
                                 heartbeat_interval_s=0.2)
            worker.start()
            client = ServiceClient(coordinator.url, timeout=120)
            try:
                client.wait_healthy(deadline_s=10)
                body = {"workload": WORKLOAD, "algorithm": ALGORITHM,
                        "config": CONFIG, "graph_seed": 3, "seed": 4}
                parent = TraceContext.new()
                for status in ("computed", "hit"):
                    payload = client.request_bytes(
                        "POST", "/solve", body,
                        headers={TRACE_HEADER: parent.to_header()})
                    row = json.loads(
                        payload, object_pairs_hook=_reject_duplicate_keys)
                    assert row["status"] == status
                    assert row["worker"] == "solo"
                    if coordinator_tracing:
                        assert row["trace_id"] == parent.trace_id
                    else:
                        assert "trace_id" not in row
                    assert len(payload) == len(json.dumps(
                        row, separators=(",", ":")))
            finally:
                client.close()
                worker.stop()


# ---------------------------------------------------------------------------
# Fleet-shared warm reads (membership churn)
# ---------------------------------------------------------------------------

class TestFleetWarmReads:
    """A worker enrolling after churn serves remapped keys from peers."""

    def test_late_enrollee_serves_remapped_keys_without_recomputing(self):
        with FleetCoordinator(port=0, ttl_s=5.0) as coordinator:
            veteran = _make_worker(coordinator.url, "veteran")
            veteran.start()
            rookie = None
            try:
                client = ServiceClient(coordinator.url, timeout=120)
                client.wait_healthy(deadline_s=10)
                computed = client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                        seed=211)
                assert computed["status"] == "computed"

                # Membership churn: a cold worker enrolls after the fleet
                # is warm.  Keys that re-hash onto it were computed by the
                # veteran -- asking the rookie directly must serve them
                # through the fleet-shared tier, not recompute.
                rookie = _make_worker(coordinator.url, "rookie")
                rookie.start()
                direct = ServiceClient(rookie.server.url, timeout=120)
                served = direct.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                      seed=211)
                assert served["key"] == computed["key"]
                assert served["status"] == "hit"
                assert served["tier"] == "peer"
                assert served["report"] == computed["report"]

                scheduler = rookie.server.scheduler
                assert scheduler.counters["computed"] == 0
                assert scheduler.cache.stats.peer_hits == 1
                assert rookie.warm_fetches == 1
                assert rookie.warm_hits == 1
                assert coordinator.counters["warm_fetches"] >= 1
                assert coordinator.counters["warm_hits"] >= 1

                # The fetched report is now in the rookie's *local* tiers:
                # the next identical request never leaves the process.
                again = direct.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                     seed=211)
                assert again["tier"] == "memory"
                assert rookie.warm_fetches == 1
            finally:
                if rookie is not None:
                    rookie.stop()
                veteran.stop()

    def test_fleetwide_miss_is_a_clean_local_recompute(self):
        with FleetCoordinator(port=0, ttl_s=5.0) as coordinator:
            workers = [_make_worker(coordinator.url, f"wm{index}")
                       for index in range(2)]
            for worker in workers:
                worker.start()
            try:
                direct = ServiceClient(workers[0].server.url, timeout=120)
                row = direct.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                   seed=977)
                # Nobody held the key: the peer hop answered 404 and the
                # worker computed locally, with no peer-error accounting.
                assert row["status"] == "computed"
                cache = workers[0].server.scheduler.cache
                assert cache.stats.peer_hits == 0
                assert cache.stats.peer_errors == 0
                assert workers[0].warm_fetches >= 1
                assert workers[0].warm_hits == 0
            finally:
                for worker in workers:
                    worker.stop()

    def test_cache_route_404_for_unknown_key(self):
        with FleetCoordinator(port=0, ttl_s=5.0) as coordinator:
            worker = _make_worker(coordinator.url, "solo")
            worker.start()
            try:
                client = ServiceClient(coordinator.url, timeout=30)
                client.wait_healthy(deadline_s=10)
                with pytest.raises(ServiceError) as excinfo:
                    client.request("GET", "/cache/deadbeef")
                assert excinfo.value.status == 404
                # Excluding the only live worker leaves nobody to ask.
                with pytest.raises(ServiceError) as excinfo:
                    client.request("GET", "/cache/deadbeef?exclude=solo")
                assert excinfo.value.status == 503
            finally:
                worker.stop()

    def test_peer_warm_reads_can_be_disabled(self):
        with FleetCoordinator(port=0, ttl_s=5.0) as coordinator:
            scheduler = SolveScheduler(cache=SolveCache(""), inline=True,
                                       shards=1)
            worker = FleetWorker(coordinator.url, worker_id="loner", port=0,
                                 scheduler=scheduler,
                                 heartbeat_interval_s=0.2,
                                 peer_warm_reads=False)
            worker.start()
            try:
                assert scheduler.cache.peer_fetch is None
                direct = ServiceClient(worker.server.url, timeout=120)
                row = direct.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                   seed=31)
                assert row["status"] == "computed"
                assert worker.warm_fetches == 0
            finally:
                worker.stop()


# ---------------------------------------------------------------------------
# Grouped dispatch failover (scripted workers)
# ---------------------------------------------------------------------------

class ScriptedWorker:
    """A fake worker: ``statuses`` maps a POST path to the HTTP status it
    answers (200 by default); a 200 serves one stub row per seed."""

    def __init__(self, statuses: dict[str, int] | None = None) -> None:
        self.statuses = dict(statuses or {})
        self.calls: list[tuple[str, dict]] = []
        worker = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:
                pass

            def do_POST(self) -> None:  # noqa: N802 - http.server contract
                length = int(self.headers.get("Content-Length") or 0)
                body = json.loads(self.rfile.read(length) or b"{}")
                worker.calls.append((self.path, body))
                status = worker.statuses.get(self.path, 200)
                if status != 200:
                    doc = {"error": f"scripted {status}"}
                elif self.path == "/solve_batch":
                    doc = {"rows": [worker.row(seed)
                                    for seed in body["seeds"]],
                           "count": len(body["seeds"])}
                else:
                    doc = worker.row(body["seed"])
                payload = json.dumps(doc).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    @staticmethod
    def row(seed: int) -> dict:
        return {"key": f"key-{seed}", "status": "computed", "seed": seed}

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


def _dead_url() -> str:
    """A URL nobody listens on (connection refused)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


GROUP_SEEDS = (1, 2, 3)
GROUP_GRAPH_SEED = 5


def _issue_group(coordinator: FleetCoordinator) -> dict[int, dict]:
    """Three same-shape explicit-seed solves at once: one grouping window."""
    results: dict[int, dict] = {}

    def issue(seed: int) -> None:
        results[seed] = ServiceClient(coordinator.url, timeout=60).solve(
            WORKLOAD, ALGORITHM, config=CONFIG, graph_seed=GROUP_GRAPH_SEED,
            seed=seed)

    threads = [threading.Thread(target=issue, args=(seed,))
               for seed in GROUP_SEEDS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _dispatch_counters(coordinator: FleetCoordinator) -> dict[str, int]:
    return {name: coordinator.counters[name]
            for name in ("routed", "affinity_hits", "batched",
                         "batch_calls", "retried", "solo", "failed")}


class TestGroupFailover:
    @pytest.mark.parametrize("failure", [429, 404, "connection"])
    def test_group_fails_over_to_the_next_worker(self, failure):
        """A group whose primary answers 429, answers ``/solve_batch``
        with 404 although enrolled as batch-capable, or refuses the
        connection is served by the next worker on the ring, and each
        member is answered once."""
        primary_id, secondary_id = HashRing(["a", "b"]).preference(
            f"{WORKLOAD}@{GROUP_GRAPH_SEED}")
        secondary = ScriptedWorker()
        primary = (None if failure == "connection"
                   else ScriptedWorker({"/solve_batch": failure}))
        try:
            with FleetCoordinator(port=0, ttl_s=30.0,
                                  batch_window_s=1.0) as coordinator:
                coordinator.enroll(
                    primary_id,
                    _dead_url() if primary is None else primary.url,
                    {"batch": True})
                coordinator.enroll(secondary_id, secondary.url,
                                   {"batch": True})
                results = _issue_group(coordinator)
                counters = _dispatch_counters(coordinator)
        finally:
            secondary.close()
            if primary is not None:
                primary.close()
        assert sorted(results) == list(GROUP_SEEDS)
        for seed, row in results.items():
            assert row["key"] == f"key-{seed}"
            assert row["worker"] == secondary_id
            assert row["grouped"] == len(GROUP_SEEDS)
        (call,) = secondary.calls
        assert call[0] == "/solve_batch"
        assert sorted(call[1]["seeds"]) == list(GROUP_SEEDS)
        if primary is not None:
            assert [path for path, _ in primary.calls] == ["/solve_batch"]
        assert counters == {"routed": 3, "affinity_hits": 0, "batched": 3,
                            "batch_calls": 1, "retried": 1, "solo": 0,
                            "failed": 0}

    def test_plain_server_serves_a_group_member_by_member(self):
        """A worker enrolled without batch support never sees
        ``/solve_batch``: each member goes out as its own B = 1 relay."""
        scheduler = SolveScheduler(cache=SolveCache(""), inline=True,
                                   shards=1)
        with ServiceServer(port=0, scheduler=scheduler) as server, \
                FleetCoordinator(port=0, ttl_s=30.0,
                                 batch_window_s=1.0) as coordinator:
            coordinator.enroll("plain", server.url, {"batch": False})
            results = _issue_group(coordinator)
            counters = _dispatch_counters(coordinator)
        assert sorted(results) == list(GROUP_SEEDS)
        for seed, row in results.items():
            assert row["status"] == "computed"
            assert row["worker"] == "plain"
            assert row["attempts"] == 1
            assert "grouped" not in row
            assert row["report"]["provenance"]["seed"] == seed
        assert len({row["key"] for row in results.values()}) == 3
        assert scheduler.counters["requests"] == 3
        assert scheduler.counters["computed"] == 3
        assert counters == {"routed": 3, "affinity_hits": 3, "batched": 0,
                            "batch_calls": 0, "retried": 0, "solo": 3,
                            "failed": 0}


class TestWorkerBatchTimeout:
    def test_batch_504_cancels_and_counts_each_seed(self, monkeypatch):
        """``/solve_batch`` rides the same bridge as ``/solve``: a batch
        that outlives the request timeout answers 504, records one
        ``cancelled`` outcome and one timeout per seed, and its job still
        caches every row."""
        release = threading.Event()
        for name in ("_worker_solve", "_worker_solve_batch"):
            def gated(*args, real=getattr(scheduler_module, name)):
                release.wait(timeout=10)
                return real(*args)

            monkeypatch.setattr(scheduler_module, name, gated)

        with FleetCoordinator(port=0, ttl_s=5.0) as coordinator:
            scheduler = SolveScheduler(cache=SolveCache(""), inline=True,
                                       shards=1)
            worker = FleetWorker(coordinator.url, worker_id="slow", port=0,
                                 scheduler=scheduler,
                                 request_timeout_s=0.3,
                                 peer_warm_reads=False)
            worker.start()
            try:
                client = ServiceClient(worker.server.url, timeout=30)
                with pytest.raises(ServiceError) as solo:
                    client.solve(WORKLOAD, ALGORITHM, config=CONFIG,
                                 seed=31)
                with pytest.raises(ServiceError) as batch:
                    client.request("POST", "/solve_batch", {
                        "workload": WORKLOAD, "algorithm": ALGORITHM,
                        "config": CONFIG, "seeds": [1, 2, 3]})
                release.set()
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    row = client.stats()
                    if row["pending"] == 0 and row["cache"]["puts"] == 4:
                        break
                    time.sleep(0.05)
                row = client.stats()
                cancelled = scheduler.metrics.solve_latency.count(
                    ALGORITHM, "cancelled")
            finally:
                release.set()
                worker.stop()
        assert solo.value.status == 504
        assert batch.value.status == 504
        assert row["requests"] == 4
        assert row["timeouts"] == 4
        assert cancelled == 4
        assert row["pending"] == 0
        assert row["cache"]["puts"] == 4
