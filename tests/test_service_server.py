"""End-to-end JSON/HTTP serving (``repro serve`` machinery).

Boots a real :class:`ServiceServer` on an ephemeral port (inline workers,
memory-only cache) and drives it with :class:`ServiceClient` -- including
concurrent clients, which must observe coalescing and cache-hit semantics
and receive responses whose provenance replays bit-for-bit against a fresh
in-process ``repro.solve``.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Provenance, report_from_json, solve
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.service import (
    ServiceClient,
    ServiceError,
    ServiceServer,
    SolveCache,
    SolveScheduler,
)
from repro.service import scheduler as scheduler_module


@pytest.fixture(scope="module")
def server():
    scheduler = SolveScheduler(cache=SolveCache(""), inline=True, shards=2)
    with ServiceServer(port=0, scheduler=scheduler) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    client = ServiceClient(server.url)
    client.wait_healthy(deadline_s=10)
    yield client
    client.close()


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["ok"] is True
        assert health["uptime_s"] >= 0

    def test_solve_then_hit(self, client):
        first = client.solve("regular-n24-d3", "power-mis",
                             config={"k": 2}, seed=5)
        second = client.solve("regular-n24-d3", "power-mis",
                              config={"k": 2}, seed=5)
        assert first["status"] == "computed"
        assert second["status"] == "hit"
        assert second["key"] == first["key"]
        assert second["report"] == first["report"]

    def test_cached_provenance_identical_to_fresh_solve(self, client):
        row = client.solve("regular-n24-d3", "det-power-ruling",
                           config={"k": 2})
        row = client.solve("regular-n24-d3", "det-power-ruling",
                           config={"k": 2})  # served from cache
        assert row["status"] == "hit"
        graph = DEFAULT_REGISTRY.build_cell("regular-n24-d3", seed=0)
        fresh = solve(graph, "det-power-ruling", k=2)
        assert row["report"]["provenance"] == fresh.provenance.to_row()
        # ... and the served provenance replays bit-for-bit.
        served = report_from_json(row["report"])
        from repro import replay

        replayed = replay(graph, served.provenance)
        assert replayed.output == served.output
        assert replayed.rounds == served.rounds

    def test_report_endpoint(self, client):
        row = client.solve("er-n20", "luby-power", config={"k": 2}, seed=3)
        fetched = client.report(row["key"])
        assert fetched["report"] == row["report"]

    def test_report_unknown_key_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.report("no-such-key")
        assert excinfo.value.status == 404

    def test_stats_document(self, client):
        client.solve("regular-n24-d3", "power-mis", config={"k": 2}, seed=5)
        stats = client.stats()
        assert stats["requests"] >= 2
        assert 0.0 < stats["hit_rate"] <= 1.0
        assert stats["cache"]["hits"] >= 1
        assert stats["latency_ms"]["count"] >= 2
        assert stats["uptime_s"] > 0

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestBadRequests:
    def test_unknown_workload_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.solve("no-such-cell", "power-mis")
        assert excinfo.value.status == 400
        assert "unknown workload" in excinfo.value.message

    def test_unknown_algorithm_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.solve("regular-n24-d3", "no-such-algorithm")
        assert excinfo.value.status == 400

    def test_bad_config_key_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.solve("regular-n24-d3", "power-mis",
                         config={"bogus": 1})
        assert excinfo.value.status == 400
        assert "unknown config" in excinfo.value.message

    def test_unknown_request_field_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/solve", {"workload": "er-n20",
                                               "algorithm": "luby-power",
                                               "bogus": True})
        assert excinfo.value.status == 400

    def test_malformed_json_is_400(self, server):
        import http.client

        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request(
                "POST", "/solve", body=b"{not json",
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            assert response.status == 400
        finally:
            connection.close()

    def test_post_to_unknown_path_keeps_connection_usable(self, server):
        """The 404 path must drain the request body, or the unread bytes
        desynchronise the next request on the keep-alive connection."""
        import http.client

        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request(
                "POST", "/solvers", body=b'{"workload": "er-n20"}',
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            # Same connection, next request must parse cleanly.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            payload = response.read()
            assert response.status == 200
            import json

            assert json.loads(payload)["ok"] is True
        finally:
            connection.close()


class TestClientOwnsItsConnections:
    def test_close_releases_every_thread_connection(self, server):
        client = ServiceClient(server.url)
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(lambda _: client.healthz(), range(9)))
            opened = list(client._connections)
            assert opened and all(conn.sock is not None for conn in opened)
            client.close()
            assert all(conn.sock is None for conn in opened)
        # A closed client is still usable: the next request reconnects.
        assert client.healthz()["ok"] is True
        client.close()

    def test_a_thread_connection_closes_with_its_thread(self, server):
        client = ServiceClient(server.url)
        opened = []

        def one_request():
            client.healthz()
            opened.append(client._local.held.connection)

        threads = [threading.Thread(target=one_request) for _ in range(20)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        gc.collect()
        assert len(opened) == 20
        assert not client._connections
        assert all(conn.sock is None for conn in opened)

    def test_close_never_cuts_off_a_response(self, server, monkeypatch):
        client = ServiceClient(server.url)
        client.healthz()
        (connection,) = client._connections
        real_getresponse = connection.getresponse

        def close_between_headers_and_body():
            # Another thread closes the client while this request's
            # response has arrived but its body is not read yet.
            response = real_getresponse()
            client.close()
            return response

        monkeypatch.setattr(connection, "getresponse",
                            close_between_headers_and_body)
        payload = client.request_bytes("GET", "/healthz")
        assert json.loads(payload)["ok"] is True
        assert connection.sock is None


class TestConcurrentClients:
    def test_identical_concurrent_requests_coalesce(self, client, server,
                                                    monkeypatch):
        real_worker = scheduler_module._worker_solve

        def slow_worker(*args):
            time.sleep(0.2)
            return real_worker(*args)

        monkeypatch.setattr(scheduler_module, "_worker_solve", slow_worker)
        computed_before = server.scheduler.counters["computed"]

        def issue(_index):
            return client.solve("dense-core-6x3x5", "power-mis",
                                config={"k": 2}, seed=77)

        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(issue, range(8)))

        statuses = sorted(row["status"] for row in rows)
        assert statuses.count("computed") == 1
        assert statuses.count("coalesced") + statuses.count("hit") == 7
        assert server.scheduler.counters["computed"] == computed_before + 1
        reference = rows[0]["report"]
        assert all(row["report"] == reference for row in rows)

    def test_mixed_concurrent_requests_all_verified(self, client):
        mix = [("regular-n24-d3", "power-mis", {"k": 2}),
               ("er-n20", "det-power-ruling", {"k": 2}),
               ("crown-m5", "power-mis", {"k": 2}),
               ("path-n16", "luby-power", {"k": 2})]

        def issue(index):
            workload, algorithm, config = mix[index % len(mix)]
            return client.solve(workload, algorithm, config=config, seed=9)

        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(issue, range(16)))

        for row in rows:
            certificate = row["report"]["certificate"]
            assert certificate is not None
            assert all(check["ok"] for check in certificate["checks"])
        # Each distinct request computed at most once; repeats were served.
        statuses = [row["status"] for row in rows]
        assert statuses.count("computed") <= len(mix)

    def test_provenance_from_row_round_trips(self, client):
        row = client.solve("regular-n24-d3", "power-mis", config={"k": 2},
                           seed=5)
        provenance = Provenance.from_row(row["report"]["provenance"])
        assert provenance.algorithm == "power-mis"
        assert provenance.seed == 5
        assert provenance.seed_policy == "explicit"
