"""Stdlib JSON-over-HTTP serving: ``repro serve``.

The server is a :class:`~repro.service.frontdoor.LoopServer`: a dedicated
**asyncio loop thread** runs the
:class:`~repro.service.scheduler.SolveScheduler` (coalescing, shard
queues, worker dispatch), and the shared HTTP front door accepts
connections and bridges each request into the loop with
``asyncio.run_coroutine_threadsafe`` -- no third-party framework, stdlib
only.  Routes, response counting and the error-to-status mapping are the
front door's (:class:`~repro.service.frontdoor.JsonHandler`).

Endpoints
---------
``POST /solve``
    Body: ``{"workload": "regular-n64-d4", "algorithm": "power-mis",
    "config": {"k": 2}, "graph_seed": 0, "seed": null, "verify": true,
    "priority": 10, "wait": true, "stream": false}``.  Response: the
    serving metadata (``key``, ``status`` of ``hit``/``computed``/
    ``coalesced``, ``latency_s``) plus the full serialised ``RunReport``.
    ``"wait": false`` answers ``{"status": "accepted", "key": ...}`` as
    soon as the job is admitted (poll ``/report/<key>`` or watch
    ``/events/<key>``); ``"stream": true`` additionally publishes live
    progress on ``/events/<key>``.  400 on malformed requests, 429 when
    admission control refuses, 504 when the solve outlives the request
    timeout, 500 on solver faults.
``GET /report/<key>``
    The cached report for a content address (404 when unknown).  Served
    through :meth:`SolveCache.peek`: polling this endpoint never inflates
    the cache hit rate nor reorders the LRU.
``GET /cache/<key>``
    The fleet-shared warm-read endpoint: identical payload to
    ``/report/<key>`` (peek semantics, 404 on a miss) but reserved for
    peers -- the coordinator fans a worker's miss out here so a node
    inheriting remapped keys after membership churn starts warm.  Never
    consults this server's own peers, so fleet lookups cannot recurse.
``GET /events/<key>``
    Server-sent events: one ``data: {json}`` frame per solve event
    (``queued`` / ``run_start`` / ``round`` / ``run_end`` / ``end``; see
    :mod:`repro.service.events`).  Late subscribers replay buffered
    history; the stream ends after the terminal ``end`` frame.  Keys
    already resolved serve a single ``end`` frame from the cache.
``GET /metrics``
    Prometheus text exposition (:mod:`repro.service.metrics`): request
    counters, per-algorithm latency histograms, cache/queue/stream state.
``GET /healthz``
    Liveness: ``{"ok": true, "uptime_s": ...}``.
``GET /stats``
    Scheduler counters, cache hit rate and latency percentiles.

With ``--log-json PATH|-`` every request additionally emits one JSON log
line (see :mod:`repro.service.jsonlog`).
"""

from __future__ import annotations

import argparse
import asyncio
import queue as queue_module
import sys
import time
from typing import Any, Sequence

from repro.service import jsontext
from repro.service.cache import SolveCache, default_cache_path
from repro.service.client import ServiceError
from repro.service.frontdoor import JsonHandler, LoopServer
from repro.service.jsonlog import (
    DEFAULT_LOG_BACKUPS,
    DEFAULT_LOG_MAX_BYTES,
    configure_json_logging,
)
from repro.service.scheduler import SolveRequest, SolveScheduler
from repro.service.tracectx import TRACE_HEADER

__all__ = ["ServiceServer", "SolveTimeout", "add_scheduler_arguments",
           "add_serve_arguments", "main", "scheduler_from_args", "serve"]

#: How long one HTTP request waits for its solve before giving up (seconds).
_REQUEST_TIMEOUT_S = 600.0

#: SSE keep-alive comment cadence while a solve is quiet (seconds).
_EVENTS_HEARTBEAT_S = 15.0


class SolveTimeout(RuntimeError):
    """A request outlived the server's request timeout (HTTP 504).

    The job itself is *not* lost: the scheduler-side coroutine is
    cancelled cleanly (recording a ``cancelled`` latency sample per
    unanswered seed), while the shielded computation keeps running,
    holds its admission slot until it ends and lands in the cache for
    ``/report/<key>`` pollers.
    """

    http_status = 504


class ServiceServer(LoopServer):
    """The scheduler on its loop thread, behind the HTTP front door."""

    routes = {
        "GET /healthz": "_get_healthz",
        "GET /stats": "_get_stats",
        "GET /metrics": "_get_metrics",
        "GET /report/": "_get_report",
        "GET /cache/": "_get_cache",
        "GET /trace/": "_get_trace",
        "GET /events/": "_get_events",
        "POST /solve": "_post_solve",
    }

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 scheduler: SolveScheduler | None = None,
                 quiet: bool = True,
                 request_timeout_s: float = _REQUEST_TIMEOUT_S,
                 events_heartbeat_s: float = _EVENTS_HEARTBEAT_S) -> None:
        self.scheduler = scheduler if scheduler is not None else SolveScheduler()
        self.request_timeout_s = float(request_timeout_s)
        self.events_heartbeat_s = float(events_heartbeat_s)
        self.started_at = time.monotonic()
        super().__init__(host, port, _make_handler(self, quiet=quiet),
                         name="repro-service")

    async def _on_start(self) -> None:
        await self.scheduler.start()

    async def _on_stop(self) -> None:
        await self.scheduler.stop()

    @property
    def metrics(self):
        return self.scheduler.metrics

    # ------------------------------------------------------------- bridges
    def submit(self, request: SolveRequest, timeout: float | None = None,
               *, wait: bool = True, seeds: "list[int] | None" = None):
        """Run one request on the scheduler loop (thread-safe).

        ``seeds`` makes it a grouped sweep (``SolveScheduler.submit_batch``,
        a list of responses); ``None`` is a plain ``submit``.  A timeout
        *cancels* the cross-thread future: cancellation propagates to the
        coroutine, which records the ``cancelled`` outcome of each
        unanswered seed and unwinds cleanly -- only the shielded job
        computation survives, on purpose -- and the caller gets
        :class:`SolveTimeout` (HTTP 504).
        """
        timeout = self.request_timeout_s if timeout is None else timeout
        coroutine = (self.scheduler.submit(request, wait=wait)
                     if seeds is None
                     else self.scheduler.submit_batch(request, seeds))
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(timeout=timeout)
        except TimeoutError:
            future.cancel()
            self._loop.call_soon_threadsafe(
                self.scheduler.record_timeout,
                1 if seeds is None else len(seeds))
            raise SolveTimeout(
                f"request did not complete within {timeout:.1f}s; the solve "
                f"continues in the background -- poll /report/<key>"
            ) from None

    def stats_row(self) -> dict[str, Any]:
        row = self.scheduler.stats_row()
        row["uptime_s"] = round(time.monotonic() - self.started_at, 3)
        return row

    # -------------------------------------------------------------- routes
    def _get_healthz(self, http, _) -> dict[str, Any]:
        return {"ok": True,
                "uptime_s": round(time.monotonic() - self.started_at, 3)}

    def _get_stats(self, http, _) -> dict[str, Any]:
        return self.stats_row()

    def _get_metrics(self, http, _) -> None:
        metrics = self.metrics
        if metrics is None:
            raise ServiceError(404, "metrics are disabled on this server")
        http.send_body(200, metrics.render().encode("utf-8"),
                       metrics.registry.content_type)

    def _cached_row(self, key: str, missing: str) -> bytes:
        # peek, not get: report polling must never count as cache traffic
        # (hit_rate) nor promote the key in the LRU.
        entry, tier = self.scheduler.cache.peek(key)
        if entry is None:
            raise ServiceError(404, missing)
        return jsontext.dumps({"key": key, "tier": tier,
                               "report": jsontext.RawJSON(entry.text)}
                              ).encode("utf-8")

    def _get_report(self, http, key: str) -> bytes:
        return self._cached_row(key, f"unknown report key {key!r}")

    def _get_cache(self, http, key: str) -> bytes:
        # The fleet-shared warm-read endpoint: peers (via the coordinator)
        # fetch stored rows by content address so a worker inheriting
        # remapped keys starts warm.  Never consult our own peers: the
        # asking peer decides what a miss means, and recursing through the
        # fleet from here could loop.
        return self._cached_row(key, f"no cached row for {key!r}")

    def _get_trace(self, http, trace_id: str) -> dict[str, Any]:
        recorder = self.scheduler.trace_recorder
        if recorder is None:
            raise ServiceError(404, "tracing is disabled on this server")
        rows = recorder.spans(trace_id)
        if not rows:
            raise ServiceError(404, f"unknown trace id {trace_id!r}")
        return {"trace_id": trace_id, "span_count": len(rows),
                "spans": rows}

    def _get_events(self, http, key: str) -> None:
        """``GET /events/<key>``: SSE frames until the terminal event.

        The response is unframed (no Content-Length) so the connection is
        marked ``close``; clients read until EOF.
        """
        channel = self.scheduler.events.get(key)
        if channel is None:
            # Never streamed (or archived out): an already-resolved key
            # still gets a useful single-frame stream.
            entry, tier = self.scheduler.cache.peek(key)
            if entry is None:
                raise ServiceError(
                    404, f"no event stream or report for key {key!r}")
        if not http.send_body(200, b"", "text/event-stream", stream=True):
            return

        def write_frame(payload: str) -> bool:
            try:
                http.wfile.write(payload.encode("utf-8"))
                http.wfile.flush()
                return True
            except (BrokenPipeError, ConnectionResetError) as error:
                http.client_gone(error)
                return False

        if channel is None:
            write_frame("data: " + jsontext.dumps(
                {"event": "end", "key": key, "status": "cached",
                 "tier": tier}) + "\n\n")
            return
        metrics = self.metrics
        subscription = channel.subscribe()
        if metrics is not None:
            metrics.stream_subscribers.inc()
        try:
            while True:
                try:
                    event = subscription.get(timeout=self.events_heartbeat_s)
                except queue_module.Empty:
                    if not write_frame(": keep-alive\n\n"):
                        return
                    continue
                if event is None:  # END_OF_STREAM
                    return
                frame = ("data: " + jsontext.dumps(event, default=str)
                         + "\n\n")
                if not write_frame(frame):
                    return
        finally:
            channel.unsubscribe(subscription)
            if metrics is not None:
                metrics.stream_subscribers.dec()

    @staticmethod
    def _adopt_trace(http, obj: dict[str, Any]) -> None:
        """Propagated trace context rides the header on every POST; an
        explicit body field wins."""
        trace_header = http.headers.get(TRACE_HEADER)
        if trace_header and not obj.get("trace"):
            obj["trace"] = trace_header

    def _post_solve(self, http, obj: dict[str, Any]):
        self._adopt_trace(http, obj)
        wait = bool(obj.pop("wait", True))
        response = self.submit(SolveRequest.from_obj(obj), wait=wait)
        return (202 if response.status == "accepted" else 200,
                response.to_json().encode("utf-8"))


def _make_handler(service: ServiceServer, *, quiet: bool):
    return JsonHandler.bound(service, quiet=quiet)


# ---------------------------------------------------------------------------
# ``repro serve``
# ---------------------------------------------------------------------------

def add_scheduler_arguments(parser: argparse.ArgumentParser, *, port: int,
                            port_help: str) -> None:
    """The flags ``repro serve`` and ``repro fleet worker`` share: the bind
    address, the solve scheduler, its cache tiers and the observability
    switches (read back by :func:`scheduler_from_args`)."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=port, help=port_help)
    parser.add_argument("--port-file", default=None,
                        help="write the bound port to this file (for CI "
                             "scripts using --port 0)")
    parser.add_argument("--shards", type=int, default=None,
                        help="worker shards (default: min(4, cpu count))")
    parser.add_argument("--inline-workers", action="store_true",
                        help="run solves on in-process threads instead of "
                             "a process pool (tests / constrained CI)")
    parser.add_argument("--max-pending", type=int, default=256,
                        help="admission limit on queued jobs (429 beyond)")
    parser.add_argument("--admission-target", type=float, default=None,
                        metavar="SECONDS", dest="admission_target",
                        help="latency-aware admission: refuse a request "
                             "when its shard's measured service time "
                             "predicts a wait beyond SECONDS (default: "
                             "static max_pending only)")
    parser.add_argument("--cache-path", default=None,
                        help=f"persistent cache store directory "
                             f"(default: {default_cache_path()}; "
                             f"co-located fleet workers may share one)")
    parser.add_argument("--no-persist", action="store_true",
                        help="disable the persistent cache tier")
    parser.add_argument("--memory-entries", type=int, default=1024,
                        help="in-process LRU capacity (reports)")
    parser.add_argument("--cache-shards", type=int, default=None,
                        metavar="N",
                        help="key shards of the persistent tier "
                             "(default: the store's own count, 8 for a "
                             "new store)")
    parser.add_argument("--cache-budget-mb", type=float, default=None,
                        metavar="MB",
                        help="on-disk size budget of the sharded tier; "
                             "TTL + LRU eviction keeps usage under it "
                             "(default: unbounded)")
    parser.add_argument("--cache-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="expire sharded-tier entries older than "
                             "SECONDS (default: never)")
    parser.add_argument("--no-metrics", action="store_true",
                        help="disable /metrics and all metric recording "
                             "(the observability-overhead baseline)")
    parser.add_argument("--no-tracing", action="store_true",
                        help="disable span recording and GET /trace/<id> "
                             "(the tracing-overhead baseline)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request")


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    add_scheduler_arguments(parser, port=8753,
                            port_help="TCP port; 0 picks an ephemeral port")
    parser.add_argument("--request-timeout", type=float,
                        default=_REQUEST_TIMEOUT_S,
                        help="seconds one HTTP request waits for its solve "
                             "before answering 504 (the job keeps running)")
    parser.add_argument("--log-json", default=None, metavar="PATH",
                        help="append one JSON log line per request to PATH "
                             "('-' for stdout)")
    parser.add_argument("--log-json-max-bytes", type=int,
                        default=DEFAULT_LOG_MAX_BYTES, metavar="N",
                        help="rotate the --log-json file when it would "
                             "exceed N bytes (default: 64 MiB; 0 disables "
                             "rotation)")
    parser.add_argument("--log-json-backups", type=int,
                        default=DEFAULT_LOG_BACKUPS, metavar="N",
                        help="rotated --log-json generations to keep "
                             "(PATH.1..PATH.N, default: 3)")


def build_cache_from_args(args: argparse.Namespace) -> SolveCache:
    """The :class:`SolveCache` described by :func:`add_scheduler_arguments`
    flags (``repro cache`` passes a subset of them)."""
    budget_mb = getattr(args, "cache_budget_mb", None)
    cache_kwargs: dict[str, Any] = {}
    if getattr(args, "cache_shards", None) is not None:
        cache_kwargs["shards"] = args.cache_shards
    if budget_mb is not None:
        cache_kwargs["size_budget_bytes"] = int(budget_mb * 1024 * 1024)
    if getattr(args, "cache_ttl", None) is not None:
        cache_kwargs["ttl_s"] = args.cache_ttl
    return SolveCache(
        "" if getattr(args, "no_persist", False) else args.cache_path,
        max_memory_entries=args.memory_entries, **cache_kwargs)


def scheduler_from_args(args: argparse.Namespace, *,
                        log_prefix: str) -> SolveScheduler | None:
    """The :class:`SolveScheduler` described by
    :func:`add_scheduler_arguments` flags, or None -- the error printed
    under ``[log_prefix]`` -- when ``--cache-path`` is not a directory."""
    try:
        cache = build_cache_from_args(args)
    except ValueError as error:
        print(f"[{log_prefix}] {error}", file=sys.stderr)
        return None
    scheduler_kwargs: dict[str, Any] = {}
    if args.no_metrics:
        scheduler_kwargs["metrics"] = None
    if args.no_tracing:
        scheduler_kwargs["tracing"] = False
    return SolveScheduler(cache=cache, shards=args.shards,
                          max_pending=args.max_pending,
                          admission_target_s=args.admission_target,
                          inline=args.inline_workers, **scheduler_kwargs)


def serve(args: argparse.Namespace) -> int:
    scheduler = scheduler_from_args(args, log_prefix="repro.service")
    if scheduler is None:
        return 2
    log_handler = configure_json_logging(
        args.log_json, max_bytes=args.log_json_max_bytes,
        backup_count=args.log_json_backups)
    server = ServiceServer(host=args.host, port=args.port,
                           scheduler=scheduler, quiet=not args.verbose,
                           request_timeout_s=args.request_timeout)
    host, port = server.address
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(str(port))
    print(f"[repro.service] serving on http://{host}:{port} "
          f"(shards={scheduler.shards}, "
          f"workers={'inline' if scheduler.inline else 'process-pool'}, "
          f"cache={scheduler.cache.path or 'memory-only'}, "
          f"metrics={'off' if scheduler.metrics is None else 'on'}, "
          f"tracing={'off' if scheduler.trace_recorder is None else 'on'})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if log_handler is not None:
            from repro.service.jsonlog import service_logger

            service_logger().removeHandler(log_handler)
            log_handler.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve repro.solve over JSON/HTTP with a "
                    "content-addressed cache.")
    add_serve_arguments(parser)
    return serve(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
