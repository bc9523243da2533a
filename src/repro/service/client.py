"""A thin stdlib client for the ``repro serve`` endpoint.

``ServiceClient`` speaks the JSON protocol of
:mod:`repro.service.server` over ``urllib`` -- no dependencies, usable
from load generators, notebooks and CI scripts alike::

    client = ServiceClient("http://127.0.0.1:8753")
    client.wait_healthy()
    row = client.solve("regular-n64-d4", "power-mis", config={"k": 2})
    row["status"]                      # "hit" / "computed" / "coalesced"
    row["report"]["provenance"]        # identical to a fresh repro.solve
    client.stats()["hit_rate"]

``row["report"]`` is the serialised :class:`~repro.api.RunReport`;
:func:`repro.api.report_from_json` turns it back into the typed object.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
import weakref
from typing import Any, Mapping

from repro.service.jsontext import COMPACT

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP-level error from the service (carries the status code)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class _ThreadConnection:
    """One thread's keep-alive connection, held in the client's
    thread-local storage.  When the thread ends, its local storage and so
    this holder die, and the :attr:`release` finalizer closes the
    connection and forgets it: a client shared by many short-lived threads
    keeps no socket past its thread."""

    __slots__ = ("connection", "release", "__weakref__")

    def __init__(self, connection: http.client.HTTPConnection) -> None:
        self.connection = connection
        self.release: weakref.finalize | None = None


def _release(connections: "dict[http.client.HTTPConnection, bool]",
             closing: "set[http.client.HTTPConnection]",
             lock: threading.RLock,
             connection: http.client.HTTPConnection) -> None:
    connection.close()
    with lock:
        connections.pop(connection, None)
        closing.discard(connection)


class ServiceClient:
    """JSON-over-HTTP client for one ``repro serve`` endpoint.

    Connections are persistent (HTTP/1.1 keep-alive) and per-thread, so a
    closed-loop load-generator thread pays the TCP handshake once, not per
    request; a dropped connection is re-opened and the request retried once.
    The client is safe to share across threads, and it owns every
    connection it opens: a thread's connection closes when the thread
    ends, and :meth:`close`, called from any thread, closes all of them
    without cutting off a request in flight (a later request simply
    reconnects).

    Connection-error retries
    ------------------------
    ``retries=N`` allows up to ``N`` *additional* fresh-connection attempts
    (beyond the built-in immediate reconnect for stale keep-alives) when a
    request fails at the transport level -- ``ConnectionRefusedError`` while
    a server boots, ``BrokenPipeError``/``ConnectionResetError`` when it
    restarts mid-request.  Each extra attempt sleeps an exponentially
    growing backoff with multiplicative jitter first, so a herd of clients
    hammering a rebooting server de-synchronises instead of thundering.
    The default ``retries=0`` keeps the historical behaviour (and timing)
    exactly: one immediate reconnect, then the error propagates.  Retrying
    ``POST /solve`` is safe by construction -- requests are content-
    addressed, so a replayed solve is a cache hit, never a duplicate
    side effect (the fleet transport leans on exactly this).
    """

    def __init__(self, base_url: str, *, timeout: float = 600.0,
                 retries: int = 0, backoff_base_s: float = 0.05,
                 backoff_max_s: float = 2.0,
                 backoff_jitter: float = 0.25) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.backoff_jitter = float(backoff_jitter)
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"expected an http://host:port URL, "
                             f"got {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._prefix = parsed.path.rstrip("/")
        self._local = threading.local()
        #: Every keep-alive connection a live thread holds, mapped to
        #: whether a request is using it right now.
        self._connections: dict[http.client.HTTPConnection, bool] = {}
        #: In-use connections :meth:`close` asked for: each one closes as
        #: its request ends, so no response is cut off mid-read.
        self._closing: set[http.client.HTTPConnection] = set()
        #: Reentrant: a dead thread's holder may be finalized by a garbage
        #: collection that runs while this thread holds the lock.
        self._connections_lock = threading.RLock()

    # ------------------------------------------------------------ plumbing
    def _connection(self) -> http.client.HTTPConnection:
        held = getattr(self._local, "held", None)
        if held is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout)
            with self._connections_lock:
                self._connections[connection] = False
            held = _ThreadConnection(connection)
            # The finalizer holds its arguments until it runs, so it must
            # hold neither the holder (which would never die) nor the
            # client (which would stay alive while this thread lives).
            held.release = weakref.finalize(
                held, _release, self._connections, self._closing,
                self._connections_lock, connection)
            self._local.held = held
        return held.connection

    def _drop_connection(self) -> None:
        held = getattr(self._local, "held", None)
        if held is not None:
            held.release()
        self._local.held = None

    def _set_busy(self, connection: http.client.HTTPConnection,
                  busy: bool) -> None:
        with self._connections_lock:
            if connection not in self._connections:
                return  # dropped by its request's error path
            self._connections[connection] = busy
            close_now = not busy and connection in self._closing
            if close_now:
                self._closing.discard(connection)
        if close_now:
            connection.close()

    def close(self) -> None:
        """Close every keep-alive connection this client opened, on any
        thread: idle ones now, one in use as soon as its request ends."""
        with self._connections_lock:  # held: no request starts meanwhile
            for connection, busy in list(self._connections.items()):
                if busy:
                    self._closing.add(connection)
                else:
                    connection.close()

    def _backoff_delay(self, retry_index: int) -> float:
        """Exponential backoff with multiplicative jitter for retry ``i``."""
        delay = min(self.backoff_max_s,
                    self.backoff_base_s * (2.0 ** retry_index))
        return delay * (1.0 + self.backoff_jitter * random.random())

    def _request(self, method: str, path: str,
                 body: Mapping[str, Any] | None = None,
                 extra_headers: Mapping[str, str] | None = None,
                 ) -> dict[str, Any]:
        return json.loads(self._request_bytes(
            method, path, body, extra_headers).decode("utf-8"))

    def _request_bytes(self, method: str, path: str,
                       body: Mapping[str, Any] | None = None,
                       extra_headers: Mapping[str, str] | None = None,
                       ) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(dict(body), separators=COMPACT).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if extra_headers:
            headers.update(extra_headers)
        # Attempt 0 plus one free immediate reconnect (stale keep-alive),
        # plus ``retries`` backed-off fresh attempts.
        attempts = 2 + self.retries
        for attempt in range(attempts):
            connection = self._connection()
            self._set_busy(connection, True)
            try:
                connection.request(method, self._prefix + path, body=data,
                                   headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except (http.client.HTTPException, OSError):
                # Stale keep-alive or a restarted server: reconnect.
                self._drop_connection()
                if attempt + 1 >= attempts:
                    raise
                if attempt >= 1:
                    # Beyond the free immediate reconnect: back off so
                    # retry storms against a dead endpoint stay polite.
                    time.sleep(self._backoff_delay(attempt - 1))
                continue
            finally:
                self._set_busy(connection, False)
            if response.status >= 400:
                try:
                    message = json.loads(payload.decode("utf-8")).get("error", "")
                except Exception:  # noqa: BLE001 - non-JSON error body
                    message = response.reason
                raise ServiceError(response.status, str(message))
            return payload
        raise AssertionError("unreachable")  # pragma: no cover

    def request(self, method: str, path: str,
                body: Mapping[str, Any] | None = None, *,
                headers: Mapping[str, str] | None = None) -> dict[str, Any]:
        """One raw JSON request (public: the fleet transport forwards
        pre-validated bodies verbatim instead of re-typing them).
        ``headers`` are merged over the defaults -- the fleet uses this to
        propagate the ``X-Repro-Trace`` context."""
        return self._request(method, path, body, headers)

    def request_bytes(self, method: str, path: str,
                      body: Mapping[str, Any] | None = None, *,
                      headers: Mapping[str, str] | None = None) -> bytes:
        """One request returning the raw JSON response bytes, unparsed.

        The fleet coordinator's hot path: a forwarded worker response can
        be relayed to the caller verbatim without paying a parse +
        re-serialize round-trip per report.  Error responses (>= 400) are
        still parsed and raised as :class:`ServiceError`.
        """
        return self._request_bytes(method, path, body, headers)

    # ----------------------------------------------------------- endpoints
    def solve(self, workload: str, algorithm: str, *,
              config: Mapping[str, Any] | None = None, graph_seed: int = 0,
              seed: int | None = None, verify: bool = True,
              priority: int = 10, wait: bool = True,
              stream: bool = False) -> dict[str, Any]:
        """POST one solve; returns the serving row (status, key, report).

        ``wait=False`` returns ``{"status": "accepted", "key": ...}`` as
        soon as the job is admitted; combine with ``stream=True`` and
        :meth:`stream_events` to watch the solve live, or poll
        :meth:`report`.
        """
        return self._request("POST", "/solve", {
            "workload": workload,
            "algorithm": algorithm,
            "config": dict(config or {}),
            "graph_seed": graph_seed,
            "seed": seed,
            "verify": verify,
            "priority": priority,
            "wait": wait,
            "stream": stream,
        })

    def report(self, key: str) -> dict[str, Any]:
        """GET a cached report by its content address (404 -> ServiceError)."""
        return self._request("GET", f"/report/{key}")

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """GET the Prometheus text exposition from ``/metrics``."""
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout)
        try:
            connection.request("GET", self._prefix + "/metrics")
            response = connection.getresponse()
            payload = response.read()
            if response.status >= 400:
                try:
                    message = json.loads(payload.decode("utf-8")).get(
                        "error", "")
                except Exception:  # noqa: BLE001 - non-JSON error body
                    message = response.reason
                raise ServiceError(response.status, str(message))
            return payload.decode("utf-8")
        finally:
            connection.close()

    def stream_events(self, key: str, *, timeout: float | None = None):
        """Yield the SSE events of ``GET /events/<key>`` as dicts.

        The generator ends when the server sends the terminal ``end``
        frame (or closes the stream).  Events replay from the beginning
        for late subscribers, so calling this after ``solve(...,
        wait=False, stream=True)`` never misses early rounds.  Uses a
        dedicated connection -- the stream is unframed (read to EOF) and
        must not poison the keep-alive pool.
        """
        connection = http.client.HTTPConnection(
            self._host, self._port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            connection.request("GET", self._prefix + f"/events/{key}",
                               headers={"Accept": "text/event-stream"})
            response = connection.getresponse()
            if response.status >= 400:
                payload = response.read()
                try:
                    message = json.loads(payload.decode("utf-8")).get(
                        "error", "")
                except Exception:  # noqa: BLE001 - non-JSON error body
                    message = response.reason
                raise ServiceError(response.status, str(message))
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\r\n")
                if not line or line.startswith(":"):
                    continue  # frame separator / keep-alive comment
                if line.startswith("data:"):
                    yield json.loads(line[len("data:"):].strip())
        finally:
            connection.close()

    def wait_healthy(self, *, deadline_s: float = 30.0,
                     interval_s: float = 0.1) -> dict[str, Any]:
        """Poll ``/healthz`` until it answers (for freshly-booted servers)."""
        deadline = time.monotonic() + deadline_s
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (ServiceError, OSError, http.client.HTTPException) as error:
                last_error = error
                time.sleep(interval_s)
        raise TimeoutError(
            f"service at {self.base_url} not healthy after {deadline_s}s "
            f"(last error: {last_error})")
