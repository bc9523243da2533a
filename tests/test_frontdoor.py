"""The shared HTTP front door of ``repro serve`` and the fleet coordinator.

Both front ends run on :mod:`repro.service.frontdoor`, so each contract
here is checked on both: every response is counted once under a bounded
route label, a client that hangs up is counted and logged, ``stop()``
lets the loop's tasks finish and closes the loop, and one funnel maps
every failure to its status.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.fleet import FleetCoordinator, NoLiveWorkersError, TransportError
from repro.service import (
    AdmissionError,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SolveCache,
    SolveScheduler,
)
from repro.service.frontdoor import error_answer
from repro.service.jsonlog import configure_json_logging, service_logger
from repro.service.server import SolveTimeout


def _service_server() -> ServiceServer:
    return ServiceServer(port=0, scheduler=SolveScheduler(
        cache=SolveCache(""), inline=True, shards=1))


FRONT_ENDS = {
    "server": _service_server,
    "coordinator": lambda: FleetCoordinator(port=0),
}


def _get(url: str, path: str) -> int:
    client = ServiceClient(url, timeout=10)
    try:
        client.request_bytes("GET", path)
    except ServiceError as error:
        return error.status
    finally:
        client.close()
    return 200


def _eventually(read, expected, timeout_s: float = 10.0):
    """``read()`` once it equals ``expected`` (a response is counted just
    after its bytes are written, so the client can read it first)."""
    deadline = time.monotonic() + timeout_s
    while read() != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return read()


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_unknown_paths_share_one_route_label(front_end):
    with FRONT_ENDS[front_end]() as running:
        for index in range(3):
            assert _get(running.url, f"/probe-{index}") == 404
        metrics = running.metrics
        assert _eventually(lambda: metrics.http_requests.value(
            "GET", "other", "404"), 3) == 3
        routes = {sample.split('route="', 1)[1].split('"', 1)[0]
                  for sample in metrics.http_requests.samples()}
        assert not any(route.startswith("/probe") for route in routes)


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_prefix_and_wrong_verb_requests_take_their_route_label(front_end):
    with FRONT_ENDS[front_end]() as running:
        client = ServiceClient(running.url, timeout=10)
        for method, path in (("GET", "/cache/0123"), ("POST", "/healthz")):
            with pytest.raises(ServiceError):
                client.request_bytes(method, path, {} if method == "POST"
                                     else None)
        client.close()
        metrics = running.metrics
        assert _eventually(lambda: metrics.http_requests.value(
            "POST", "/healthz", "404"), 1) == 1
        routes = {sample.split('route="', 1)[1].split('"', 1)[0]
                  for sample in metrics.http_requests.samples()}
        assert "/cache" in routes and "other" not in routes


def test_json_log_to_stdout():
    handler = configure_json_logging("-")
    try:
        assert handler is not None
        assert handler in service_logger().handlers
    finally:
        service_logger().removeHandler(handler)
        handler.close()


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_stop_closes_the_loop(front_end):
    running = FRONT_ENDS[front_end]()
    running.start()
    assert _get(running.url, "/healthz") == 200
    running.stop()
    assert running._loop.is_closed()


def test_stop_returns_after_a_failed_start():
    class Unstartable(SolveScheduler):
        async def start(self) -> None:
            raise RuntimeError("scheduler failed to start")

    server = ServiceServer(port=0, scheduler=Unstartable(
        cache=SolveCache(""), inline=True, shards=1))
    with pytest.raises(RuntimeError, match="failed to start"):
        server.serve_forever()
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=10)
    assert not stopper.is_alive()
    assert server._loop.is_closed()


def test_coordinator_stop_finishes_the_sweep_task():
    coordinator = FleetCoordinator(port=0)
    coordinator.start()
    coordinator.stop()
    assert coordinator._sweep_task.done()


def test_coordinator_metrics_pages_are_counted():
    with FleetCoordinator(port=0) as coordinator:
        for _ in range(3):
            assert _get(coordinator.url, "/metrics") == 200
        assert _get(coordinator.url, "/fleet/metrics") == 200
        assert _get(coordinator.url, "/stats") == 200
        requests = coordinator.metrics.http_requests
        for route, count in (("/metrics", 3), ("/fleet/metrics", 1),
                             ("/stats", 1)):
            assert _eventually(lambda: requests.value(
                "GET", route, "200"), count) == count


class _GatedWorker:
    """A fake worker whose ``POST /solve`` answers once released."""

    def __init__(self) -> None:
        self.called = threading.Event()
        self.release = threading.Event()
        worker = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args) -> None:
                pass

            def do_POST(self) -> None:  # noqa: N802 - http.server contract
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                worker.called.set()
                worker.release.wait(timeout=10)
                payload = json.dumps({"key": "k", "status": "computed"})
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload.encode("utf-8"))

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.release.set()
        self.httpd.shutdown()
        self.httpd.server_close()


def test_coordinator_counts_and_logs_a_client_disconnect(tmp_path):
    log_path = tmp_path / "coordinator.jsonl"
    handler = configure_json_logging(str(log_path))
    worker = _GatedWorker()
    try:
        with FleetCoordinator(port=0) as coordinator:
            coordinator.enroll("gated", worker.url, {})
            body = json.dumps({"workload": "regular-n24-d3",
                               "algorithm": "power-mis"}).encode("utf-8")
            host, port = coordinator.address
            raw = socket.create_connection((host, port), timeout=5)
            # Close with a reset, so the relay's write meets a dead peer.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                           struct.pack("ii", 1, 0))
            raw.sendall(b"POST /solve HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body)
            assert worker.called.wait(timeout=5)
            raw.close()
            worker.release.set()
            disconnects = coordinator.metrics.client_disconnects
            assert _eventually(lambda: disconnects.value("/solve"), 1) == 1
            assert _get(coordinator.url, "/healthz") == 200
        handler.flush()
    finally:
        service_logger().removeHandler(handler)
        handler.close()
        worker.close()
    events = [json.loads(line)
              for line in log_path.read_text().strip().splitlines()]
    assert [(event["event"], event["route"], event["method"])
            for event in events] == [("client_disconnected", "/solve",
                                      "POST")]


@pytest.mark.parametrize("error, status, message", [
    (ServiceError(418, "teapot"), 418, "teapot"),
    (AdmissionError("full"), 429, "full"),
    (SolveTimeout("slow"), 504, "slow"),
    (TimeoutError("late"), 504, "late"),
    (NoLiveWorkersError("empty"), 503, "empty"),
    (TransportError("w0", "refused"), 502, "worker 'w0': refused"),
    (KeyError("power-nope"), 400, "power-nope"),
    (TypeError("bad config"), 400, "bad config"),
    (ValueError("bad seed"), 400, "bad seed"),
    (RuntimeError("boom"), 500, "RuntimeError: boom"),
])
def test_error_funnel(error, status, message):
    assert error_answer(error) == (status, message)
