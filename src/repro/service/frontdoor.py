"""One HTTP front door for ``repro serve``, the fleet worker and coordinator.

Stdlib only.  Two classes carry everything the front ends share:

* :class:`LoopServer` -- a dedicated asyncio loop thread plus a
  ``ThreadingHTTPServer``, started and stopped together.  Subclasses
  declare a ``routes`` table and supply :meth:`LoopServer._on_start` /
  :meth:`LoopServer._on_stop` coroutines, run on the loop.
* :class:`JsonHandler` -- the request handler bound to one
  :class:`LoopServer`: it looks each request up in the server's route
  table, calls the route method and answers through one funnel that
  counts every response once and maps every failure to one status.

Routes
------
``routes`` maps ``"METHOD /path"`` to the name of a server method called
as ``method(handler, arg)``.  A path ending in ``/`` is a prefix route and
``arg`` is the rest of the path; a ``POST`` route gets the parsed JSON
object body; an exact ``GET`` route gets ``None``.  The method returns a
body -- a dict, or raw JSON bytes sent as they are -- answered 200, a
``(status, body)`` pair, or ``None`` when it answered on the handler
itself.  Dicts are sent as compact JSON with sorted keys.

Errors
------
A route raises; :meth:`JsonHandler.respond` answers ``{"error": message}``
with the status the error carries: a :class:`~repro.service.client.
ServiceError` forwards its own ``.status`` and message, any other class
with an ``http_status`` attribute answers that status (``AdmissionError``
429, ``SolveTimeout`` 504, ``NoLiveWorkersError`` 503, ``TransportError``
502), ``TimeoutError`` 504, ``KeyError``/``TypeError``/``ValueError``
400, and anything else 500.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.service.client import ServiceError
from repro.service.jsonlog import log_event
from repro.service.jsontext import COMPACT

__all__ = ["JsonHandler", "LoopServer", "error_answer"]

JSON = "application/json"


def error_answer(error: Exception) -> tuple[int, str]:
    """``(status, message)`` for a failure raised by a route."""
    if isinstance(error, ServiceError):
        return error.status, error.message
    status = getattr(error, "http_status", None)
    if status is not None:
        return int(status), str(error)
    if isinstance(error, TimeoutError):
        return 504, str(error)
    if isinstance(error, (KeyError, TypeError, ValueError)):
        return 400, str(error.args[0] if error.args else error)
    return 500, f"{type(error).__name__}: {error}"


class LoopServer:
    """An asyncio loop thread and an HTTP acceptor with one lifecycle.

    ``stop()`` shuts the acceptor, runs :meth:`_on_stop` to completion on
    the loop, then stops the loop, joins its thread and closes it, so no
    task outlives the server pending.
    """

    #: ``"METHOD /path" -> route method name`` (see the module docstring).
    routes: dict[str, str] = {}
    #: The :class:`~repro.service.metrics.ServiceMetrics` responses are
    #: counted in, or ``None``.
    metrics: Any = None

    def __init__(self, host: str, port: int, handler: type, *,
                 name: str) -> None:
        self._name = name
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name=f"{name}-loop", daemon=True)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        #: ``shutdown()`` waits for ``serve_forever`` to return, so it
        #: would block forever if serving never began.
        self._serving = False

    async def _on_start(self) -> None:
        """Runs on the loop before the first request is accepted."""

    async def _on_stop(self) -> None:
        """Runs on the loop after the last request is accepted."""

    def _start_loop(self) -> None:
        self._loop_thread.start()
        asyncio.run_coroutine_threadsafe(
            self._on_start(), self._loop).result(timeout=30)

    def start(self) -> None:
        """Start the loop and serve HTTP on a background thread."""
        self._start_loop()
        self._serving = True
        threading.Thread(target=self._httpd.serve_forever,
                         name=f"{self._name}-http", daemon=True).start()

    def serve_forever(self) -> None:
        """Start the loop and serve HTTP on the calling thread."""
        self._start_loop()
        self._serving = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._loop_thread.is_alive():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._on_stop(), self._loop).result(timeout=30)
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=10)
        if not self._loop.is_running():
            self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class JsonHandler(BaseHTTPRequestHandler):
    """Serves one :class:`LoopServer`'s route table (see :meth:`bound`)."""

    protocol_version = "HTTP/1.1"
    #: Small request/response pairs ping-pong on one connection; Nagle
    #: only adds latency there.
    disable_nagle_algorithm = True
    app: LoopServer
    quiet = True

    @classmethod
    def bound(cls, app: LoopServer, *, quiet: bool) -> type:
        """A handler class serving ``app``."""
        return type("Handler", (cls,), {"app": app, "quiet": quiet})

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        if not self.quiet:
            super().log_message(fmt, *args)

    # ------------------------------------------------------------ routing
    def _path(self) -> str:
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def _match(self, method: str | None) -> tuple[str | None, Any, str]:
        """``(route method name, prefix rest, label)`` for this path.

        An exact route wins over a prefix route; ``method=None`` matches
        any verb.  No match gives ``(None, None, "other")``, so the label
        set stays bounded by the route table.
        """
        path = self._path()
        prefix: tuple[str | None, Any, str] = (None, None, "other")
        for key, name in self.app.routes.items():
            verb, _, route = key.partition(" ")
            if method is not None and verb != method:
                continue
            if path == route:
                return name, None, route
            if (prefix[0] is None and route.endswith("/")
                    and path.startswith(route)):
                prefix = (name, path[len(route):], route.rstrip("/"))
        return prefix

    def route_label(self) -> str:
        """The matched route-table path, or ``"other"``."""
        return self._match(None)[2]

    def _route(self, method: str, arg: Any = None) -> Any:
        """Call the route for ``method`` and this path (404 when none)."""
        name, rest, _ = self._match(method)
        if name is None:
            raise ServiceError(404, f"unknown path {self.path!r}")
        return getattr(self.app, name)(self, arg if rest is None else rest)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self.respond(lambda: self._route("GET"))

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        obj = self.read_json()
        if obj is not None:
            self.respond(lambda: self._route("POST", obj))

    def read_json(self) -> dict[str, Any] | None:
        """The request body as a JSON object, or ``None`` after a 400."""
        # Drain the body first, whatever the path: leaving unread bytes on
        # a keep-alive connection desynchronises the next request.
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length)
        except (ValueError, OSError) as error:
            self.close_connection = True
            self.send_json(400, {"error": str(error)})
            return None
        try:
            obj = json.loads(body or b"{}")
            if not isinstance(obj, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as error:
            self.send_json(400, {"error": str(error)})
            return None
        return obj

    # ----------------------------------------------------------- answers
    def respond(self, thunk: Callable[[], Any]) -> None:
        """Run ``thunk`` and send what it returns, or its failure mapped
        by :func:`error_answer`."""
        try:
            reply = thunk()
        except Exception as error:  # noqa: BLE001 - the one error funnel
            status, message = error_answer(error)
            self.send_json(status, {"error": message})
            return
        if reply is None:
            return
        status, body = reply if isinstance(reply, tuple) else (200, reply)
        if isinstance(body, (bytes, bytearray)):
            self.send_body(status, bytes(body))
        else:
            self.send_json(status, body)

    def send_json(self, status: int, obj: dict[str, Any]) -> bool:
        return self.send_body(status, json.dumps(
            obj, sort_keys=True, separators=COMPACT).encode("utf-8"))

    def send_body(self, status: int, body: bytes, content_type: str = JSON,
                  *, stream: bool = False) -> bool:
        """Send one response and count it; ``False`` if the client left.

        ``stream=True`` sends the head of an unframed event stream (no
        Content-Length, connection ``close``); the caller writes frames.
        """
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            if stream:
                self.send_header("Cache-Control", "no-cache")
                self.send_header("Connection", "close")
                self.close_connection = True
            else:
                self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError) as error:
            self.client_gone(error)
            return False
        metrics = self.app.metrics
        if metrics is not None:
            metrics.http_requests.inc(self.command, self.route_label(),
                                      str(status))
        return True

    def client_gone(self, error: OSError) -> None:
        """The peer hung up mid-write: count and log it, never crash the
        handler thread."""
        self.close_connection = True
        metrics = self.app.metrics
        if metrics is not None:
            metrics.client_disconnects.inc(self.route_label())
        log_event("client_disconnected", route=self.route_label(),
                  method=self.command, error=type(error).__name__)

