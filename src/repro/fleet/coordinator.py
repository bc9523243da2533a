"""The fleet front door: route by affinity, fan out, contain failures.

``repro fleet coordinator`` is an asyncio service in front of N enrolled
solve workers (each one a full ``repro serve`` node).  It is a router: it
never builds a graph or derives a content address, and its process never
imports numpy, networkx or :mod:`repro.api`.  Its pipeline per
``POST /solve``:

1. **Validate** -- parse the body as a :class:`SolveRequest` (unknown
   fields, missing workload/algorithm and a malformed config are 400s
   here).  Whether the workload and algorithm exist is the worker's call:
   it resolves family aliases, rejects unknown names with a 400, and the
   coordinator relays that 400 without retrying elsewhere.
2. **Route by affinity** -- consistent hashing over the request's *graph
   identity*, ``f"{workload}@{graph_seed}"`` with the workload as sent:
   every solve on the same graph lands on the same worker, so that
   worker's warm ``SolveCache`` entries, memoized graphs and fingerprints
   and built topology snapshots get reused.  A family alias and the cell
   it resolves to may land on different workers; the fleet-shared warm
   tier (``GET /cache/<key>``) still serves the second from the first's
   cache.  Worker enroll/expiry only remaps the graphs that hashed to the
   changed worker -- the rest of the fleet keeps its warm state.
3. **Contain failures** -- a transport failure (connection refused/reset,
   timeout, HTTP 5xx counted by the breaker) retries the request on the
   next live worker along the ring; repeated failures open the worker's
   circuit so a dead node costs one timeout, not one per request.  Content
   addressing makes the retry idempotent: the re-sent solve either hits a
   cache or recomputes the bit-identical report.
4. **Steal from the deepest queue** -- when the affinity primary is
   markedly deeper (in-flight requests) than the shallowest live worker,
   or when it is dead/circuit-open, the request is dispatched to the
   least-loaded worker instead and counted as ``stolen``.
5. **Scatter** (``"scatter": true``) -- speculative fan-out to *every*
   live worker with per-worker timeouts, collected into a ``(discovered,
   failures)`` pair and resolved MAAS-style by
   :func:`~repro.fleet.transport.get_best_discovered_result`: any success
   wins (results are bit-identical by construction), otherwise the most
   informative failure is raised.
6. **Group batchable requests** -- with ``--batch-window`` set, requests
   sharing a ``(workload, algorithm, config, graph_seed)`` shape but
   carrying different explicit seeds that arrive within the window are
   forwarded to one worker as a single ``POST /solve_batch`` (the
   batched-replica runner sweeps them as one array program); counters
   record grouped-vs-solo dispatch.  Solo and grouped requests share one
   failover loop parameterised by B, the number of grouped requests:
   B = 1 relays ``POST /solve`` on the HTTP handler thread and splices the
   worker's bytes; B > 1 tries batch-capable workers in ring order, treats
   a 404 like a 429 (next worker) and, when no worker takes the group,
   falls back to B = 1 per member.

Endpoints: ``POST /solve`` (plus coordinator-only ``"scatter"`` flag),
``POST /fleet/enroll|heartbeat|leave``, ``GET /fleet/workers``,
``GET /report/<key>`` (scatter lookup across the fleet),
``GET /cache/<key>[?exclude=<worker_id>]`` (fleet-shared warm read: fan the
key out to every live worker's cache tier except the asker, so a worker
inheriting remapped graphs after membership churn starts warm instead
of recomputing), ``GET /healthz``,
``GET /stats`` (dispatch counters, failure classes, affinity hit rate,
worker table), ``GET /metrics`` (``repro_fleet_*`` families: relay latency
histograms by outcome, circuit-breaker state gauges, ring occupancy),
``GET /fleet/metrics`` (every enrolled worker's page federated under a
``worker=`` label) and ``GET /trace/<trace_id>`` (the cross-hop span tree
of one traced solve, gathered from every live worker's recorder).

Tracing: each ``POST /solve`` mints (or adopts, from an ``X-Repro-Trace``
request header) a W3C-traceparent-style trace context.  The coordinator
records a ``fleet.solve`` root span plus one ``fleet.attempt`` child per
worker RPC -- including failed attempts, retries and steals -- and sends
each attempt's child context to the worker in the same header, where the
scheduler and the solve process record their own spans under it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence
from urllib.parse import unquote

from repro.hashing.seeds import derive_seed
from repro.service.client import ServiceError
from repro.service.frontdoor import JsonHandler, LoopServer
from repro.service.jsontext import COMPACT
from repro.service.metrics import ServiceMetrics
from repro.service.request import SolveRequest
from repro.service.tracectx import TRACE_HEADER, Span, SpanRecorder, TraceContext
from repro.fleet.registry import DEFAULT_TTL_S, WorkerInfo, WorkerRegistry
from repro.fleet.tracing import assemble_trace, federate_prometheus
from repro.fleet.transport import (
    CircuitOpenError,
    NoLiveWorkersError,
    TransportError,
    WorkerLink,
    get_best_discovered_result,
)

__all__ = ["FleetCoordinator", "HashRing", "add_coordinator_arguments",
           "serve_coordinator"]

#: How long one client request may wait end-to-end at the coordinator.
_REQUEST_TIMEOUT_S = 600.0

#: ``SolveScheduler``-style sentinel: build a private metrics registry.
_AUTO_METRICS = object()


def _annotate_payload(payload: bytes, worker_id: str,
                      attempts: int) -> bytes:
    """Splice ``worker``/``attempts`` into JSON object bytes.

    The solo dispatch path relays the worker's response verbatim; paying
    a full parse + re-serialize of every report just to add a few small
    fields would make the coordinator the fleet's throughput ceiling.
    The worker's row already echoes the ``trace_id`` of the context this
    coordinator sent it, so that field is not spliced a second time.
    """
    extra = json.dumps({"worker": worker_id, "attempts": attempts},
                       separators=COMPACT)[1:-1]
    stripped = payload.lstrip()
    if not stripped.startswith(b"{"):
        return payload  # not an object; relay untouched
    rest = stripped[1:].lstrip()
    if rest.startswith(b"}"):
        return b"{" + extra.encode("utf-8") + rest
    return b"{" + extra.encode("utf-8") + b"," + stripped[1:]


def _best_row(discovered: Mapping[str, Any],
              failures: Mapping[str, Exception]) -> dict[str, Any]:
    """The best fan-out answer, tagged with the worker that gave it (or
    the most informative failure, raised)."""
    row = dict(get_best_discovered_result(discovered, failures))
    row["worker"] = next(iter(discovered))
    return row


class HashRing:
    """Consistent hashing of route keys onto worker ids.

    Each worker owns ``replicas`` virtual nodes positioned by a stable
    hash (:func:`derive_seed`, so placement agrees across processes and
    runs); a key routes to the first virtual node clockwise from its own
    position.  :meth:`preference` returns the full failover order -- the
    distinct workers in ring order starting at the primary -- which is
    what makes retry-on-another-worker deterministic too.
    """

    def __init__(self, worker_ids: Sequence[str] = (), *,
                 replicas: int = 64) -> None:
        self.replicas = max(1, int(replicas))
        self._ids: frozenset[str] = frozenset()
        self._ring: list[tuple[int, str]] = []
        self.rebuild(worker_ids)

    def rebuild(self, worker_ids: Sequence[str]) -> None:
        ids = frozenset(worker_ids)
        ring = sorted(
            (derive_seed("repro.fleet.ring", worker_id, replica, bits=64),
             worker_id)
            for worker_id in ids
            for replica in range(self.replicas))
        # Atomic swaps: concurrent preference() readers see either the
        # old or the new membership, never a torn one.
        self._ring = ring
        self._ids = ids

    @property
    def worker_ids(self) -> frozenset[str]:
        return self._ids

    def preference(self, key: str) -> list[str]:
        """Distinct worker ids in ring order from ``key``'s position."""
        # Snapshot both references: lookups run on HTTP handler threads
        # while rebuild() swaps in a new membership.
        ring, ids = self._ring, self._ids
        if not ring:
            return []
        position = derive_seed("repro.fleet.key", key, bits=64)
        start = bisect_right(ring, (position, "￿"))
        order: list[str] = []
        seen: set[str] = set()
        for index in range(len(ring)):
            _, worker_id = ring[(start + index) % len(ring)]
            if worker_id not in seen:
                seen.add(worker_id)
                order.append(worker_id)
                if len(order) >= len(ids):
                    break
        return order

    def route(self, key: str) -> str | None:
        order = self.preference(key)
        return order[0] if order else None

    def occupancy(self) -> dict[str, dict[str, float]]:
        """Per-worker ``{"vnodes", "keyspace_share"}`` over the ring.

        A virtual node at position ``p`` owns the arc ``(previous, p]``
        (matching :meth:`preference`'s ``bisect_right`` routing), so a
        worker's keyspace share is the summed length of its arcs over the
        64-bit hash space.  Shares over all workers sum to 1.0.
        """
        ring = self._ring
        if not ring:
            return {}
        span = float(2 ** 64)
        rows: dict[str, dict[str, float]] = {
            worker_id: {"vnodes": 0, "keyspace_share": 0.0}
            for _, worker_id in ring}
        previous = ring[-1][0] - 2 ** 64  # wrap: first arc crosses zero
        for position, worker_id in ring:
            row = rows[worker_id]
            row["vnodes"] += 1
            row["keyspace_share"] += (position - previous) / span
            previous = position
        for row in rows.values():
            row["keyspace_share"] = round(row["keyspace_share"], 6)
        return rows


@dataclass
class _Group:
    """One open batch-grouping window (same shape, different seeds)."""

    shape: tuple
    route_key: str
    template: dict[str, Any]
    #: ``(seed, future, trace_ctx)`` per joined request.
    members: "list[tuple[int, asyncio.Future, TraceContext | None]]" \
        = field(default_factory=list)
    closed: bool = False


class FleetCoordinator(LoopServer):
    """Registry + ring + transport links behind one HTTP front door."""

    routes = {
        "GET /healthz": "_get_healthz",
        "GET /stats": "_get_stats",
        "GET /fleet/workers": "_get_workers",
        "GET /metrics": "_get_metrics",
        "GET /fleet/metrics": "_get_fleet_metrics",
        "GET /trace/": "_get_trace",
        "GET /report/": "_get_report",
        "GET /cache/": "_get_cache",
        "POST /solve": "_post_solve",
        "POST /fleet/enroll": "_post_enroll",
        "POST /fleet/heartbeat": "_post_heartbeat",
        "POST /fleet/leave": "_post_leave",
    }

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 ttl_s: float = DEFAULT_TTL_S,
                 worker_timeout_s: float = 120.0,
                 worker_retries: int = 1,
                 max_worker_attempts: int = 3,
                 spill_threshold: int = 4,
                 batch_window_s: float = 0.0,
                 ring_replicas: int = 64,
                 request_timeout_s: float = _REQUEST_TIMEOUT_S,
                 circuit_failure_threshold: int = 3,
                 circuit_reset_after_s: float = 5.0,
                 metrics: ServiceMetrics | None | object = _AUTO_METRICS,
                 tracing: bool = True,
                 quiet: bool = True) -> None:
        self.registry = WorkerRegistry(ttl_s=ttl_s)
        self.ring = HashRing(replicas=ring_replicas)
        self.worker_timeout_s = float(worker_timeout_s)
        self.worker_retries = max(0, int(worker_retries))
        self.max_worker_attempts = max(1, int(max_worker_attempts))
        self.spill_threshold = max(0, int(spill_threshold))
        self.batch_window_s = max(0.0, float(batch_window_s))
        self.request_timeout_s = float(request_timeout_s)
        self.circuit_failure_threshold = int(circuit_failure_threshold)
        self.circuit_reset_after_s = float(circuit_reset_after_s)
        self.started_at = time.monotonic()
        #: Dispatch accounting; guarded by ``_state_lock`` (the solo
        #: relay path runs on HTTP handler threads, the fan-out paths on
        #: the asyncio loop).
        self.counters: dict[str, int] = {
            "routed": 0, "affinity_hits": 0, "retried": 0, "stolen": 0,
            "scattered": 0, "batched": 0, "batch_calls": 0, "solo": 0,
            "failed": 0, "reports": 0, "warm_fetches": 0, "warm_hits": 0,
        }
        #: Worker-RPC failures by outcome class (``http_429``,
        #: ``http_5xx``, ``transport_error``, ``circuit_open``, ...);
        #: same lock as ``counters``.
        self.failures_by_class: dict[str, int] = {}
        #: In-flight requests per worker (the live load signal stealing
        #: decisions read; heartbeat queue depths are the stale backstop).
        self.outstanding: dict[str, int] = {}
        self._state_lock = threading.Lock()
        #: Span store behind ``GET /trace/<id>``; ``tracing=False``
        #: disables span recording and context propagation entirely.
        self.trace_recorder: SpanRecorder | None = (
            SpanRecorder() if tracing else None)
        self._links: dict[str, WorkerLink] = {}
        self._links_lock = threading.Lock()
        self._groups: dict[tuple, _Group] = {}
        if metrics is _AUTO_METRICS:
            metrics = ServiceMetrics()
        self.metrics: ServiceMetrics | None = metrics  # type: ignore[assignment]
        if self.metrics is not None:
            self.metrics.bind_fleet(self)
        self._sweep_task: asyncio.Task | None = None
        super().__init__(host, port, _make_handler(self, quiet=quiet),
                         name="repro-fleet")

    # ------------------------------------------------------------ lifecycle
    async def _on_start(self) -> None:
        self._sweep_task = asyncio.create_task(self._sweep(),
                                               name="fleet-sweep")

    async def _on_stop(self) -> None:
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            await asyncio.gather(self._sweep_task, return_exceptions=True)
        with self._links_lock:
            links = list(self._links.values())
            self._links.clear()
        for link in links:
            link.close()

    async def _sweep(self) -> None:
        """Expire stale leases and retire their transport links."""
        interval = max(0.05, self.registry.ttl_s / 2.0)
        while True:
            await asyncio.sleep(interval)
            for info in self.registry.expire():
                self._drop_link(info.worker_id)

    # ------------------------------------------------------------- registry
    def enroll(self, worker_id: str, url: str,
               capabilities: Mapping[str, Any] | None = None,
               ) -> dict[str, Any]:
        lease = self.registry.enroll(worker_id, url, capabilities)
        self._drop_link(worker_id)  # a re-enroll may have moved the URL
        return lease

    def _link(self, info: WorkerInfo) -> WorkerLink:
        with self._links_lock:
            link = self._links.get(info.worker_id)
            if link is None or link.url != info.url:
                link = WorkerLink(
                    info.worker_id, info.url,
                    timeout_s=self.worker_timeout_s,
                    retries=self.worker_retries,
                    failure_threshold=self.circuit_failure_threshold,
                    reset_after_s=self.circuit_reset_after_s)
                self._links[info.worker_id] = link
            return link

    def _drop_link(self, worker_id: str) -> None:
        with self._links_lock:
            link = self._links.pop(worker_id, None)
        if link is not None:
            link.close()
        with self._state_lock:
            self.outstanding.pop(worker_id, None)

    def _breaker_state(self, worker_id: str) -> str:
        with self._links_lock:
            link = self._links.get(worker_id)
        return link.breaker.state if link is not None else "closed"

    def breaker_states(self) -> dict[str, str]:
        """``worker_id -> circuit state`` for every open transport link."""
        with self._links_lock:
            links = list(self._links.values())
        return {link.worker_id: link.breaker.state for link in links}

    # ------------------------------------------------------------- dispatch
    def solve(self, obj: dict[str, Any],
              trace_parent: str | None = None):
        """Serve one ``POST /solve`` body (called on HTTP handler threads).

        The solo relay -- :meth:`_dispatch` with B = 1: route, pick,
        forward, splice -- runs right here on the calling thread: no loop
        hand-off and no executor hop, so a warm fleet hit costs one extra
        HTTP leg and little else.  The fan-out paths (scatter, batch
        grouping) bridge onto the asyncio loop, which owns their timers
        and gathers.

        With tracing on, the request gets a trace context -- adopted from
        ``trace_parent`` (the client's ``X-Repro-Trace`` header) or the
        body's ``trace`` field when either parses, freshly minted
        otherwise -- and a ``fleet.solve`` root span is recorded whichever
        way dispatch ends.  Per-attempt child contexts ride the same
        header to workers, so the body's ``trace`` field is consumed here
        rather than forwarded.

        Returns a response dict (scatter, grouped B > 1) or raw JSON bytes
        (a B = 1 relay); the HTTP layer sends both.
        """
        scatter = bool(obj.pop("scatter", False))
        wait = bool(obj.pop("wait", True))
        recorder = self.trace_recorder
        ctx: TraceContext | None = None
        if recorder is not None:
            parent = (TraceContext.from_header(trace_parent)
                      or TraceContext.from_header(obj.get("trace")))
            ctx = parent.child() if parent is not None else TraceContext.new()
        request = SolveRequest.from_obj(obj)
        route_key = f"{request.workload}@{request.graph_seed}"
        body = dict(obj)
        body["wait"] = wait
        if ctx is not None:
            body.pop("trace", None)
        path_taken = "solo"
        status = "ok"
        error_text: str | None = None
        start_s = time.time()
        started = time.perf_counter()
        try:
            if scatter:
                path_taken = "scatter"
                return self._scatter_solve(body, ctx)
            if (self.batch_window_s > 0.0 and wait
                    and request.seed is not None):
                path_taken = "grouped"
                return self._run_on_loop(
                    self._submit_grouped(request, body, route_key, ctx))
            self._bump("solo")
            return self._dispatch(body, route_key, [ctx])
        except Exception as error:
            status = "error"
            error_text = f"{type(error).__name__}: {error}"
            raise
        finally:
            if ctx is not None and recorder is not None:
                attrs: dict[str, Any] = {
                    "path": path_taken,
                    "workload": request.workload,
                    "algorithm": request.algorithm,
                }
                if error_text is not None:
                    attrs["error"] = error_text
                recorder.record(Span(
                    trace_id=ctx.trace_id, span_id=ctx.span_id,
                    parent_id=ctx.parent_id, name="fleet.solve",
                    service="coordinator", start_s=start_s,
                    duration_s=time.perf_counter() - started,
                    status=status, attrs=attrs))

    def _record_attempt(self, ctx: TraceContext | None, info: WorkerInfo,
                        start_s: float, started: float, *,
                        error: Exception | None = None,
                        **attrs: Any) -> None:
        """Record one ``fleet.attempt`` span (no-op when untraced)."""
        recorder = self.trace_recorder
        if ctx is None or recorder is None:
            return
        row_attrs: dict[str, Any] = {"worker": info.worker_id, **attrs}
        if error is not None:
            row_attrs["error"] = f"{type(error).__name__}: {error}"
        recorder.record(Span(
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=ctx.parent_id, name="fleet.attempt",
            service="coordinator", start_s=start_s,
            duration_s=time.perf_counter() - started,
            status="ok" if error is None else "error", attrs=row_attrs))

    def report(self, key: str) -> dict[str, Any]:
        """``GET /report/<key>`` resolved across the whole fleet."""
        row = _best_row(*self._fan_out(self._get(f"/report/{key}"),
                                       required="to query"))
        self._bump("reports")
        return row

    def _run_on_loop(self, coroutine):
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(timeout=self.request_timeout_s)
        except TimeoutError:
            future.cancel()
            raise TimeoutError(
                f"fleet request did not complete within "
                f"{self.request_timeout_s:.1f}s") from None

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._state_lock:
            self.counters[name] += amount

    def _pick_worker(self, route_key: str,
                     exclude: "set[str]") -> tuple[WorkerInfo | None, bool]:
        """``(worker, is_primary)`` for one attempt; ``(None, False)`` when
        every live worker is excluded.

        Ring order from the route key gives the deterministic failover
        sequence; open circuits are skipped while an alternative exists;
        and when the chosen worker is carrying ``spill_threshold`` more
        in-flight requests than the least-loaded candidate, the request is
        stolen by the shallower queue.
        """
        live = self.registry.live()
        if not live:
            raise NoLiveWorkersError(
                "no live workers enrolled (fleet is empty or every lease "
                "expired)")
        by_id = {info.worker_id: info for info in live}
        if self.ring.worker_ids != frozenset(by_id):
            self.ring.rebuild(sorted(by_id))
        order = self.ring.preference(route_key)
        primary_id = order[0]
        candidates = [wid for wid in order if wid not in exclude]
        if not candidates:
            return None, False
        usable = [wid for wid in candidates
                  if self._breaker_state(wid) != "open"] or candidates
        choice = usable[0]
        if len(usable) > 1 and self.spill_threshold >= 0:
            with self._state_lock:
                depths = {wid: self.outstanding.get(wid, 0)
                          for wid in usable}
            least = min(usable, key=lambda wid: (depths[wid], wid))
            depth_gap = depths[choice] - depths[least]
            if least != choice and depth_gap > self.spill_threshold:
                choice = least
        if choice != primary_id:
            self._bump("stolen")
        return by_id[choice], choice == primary_id

    def _call_worker_sync(self, info: WorkerInfo, method: str, path: str,
                          body: Mapping[str, Any] | None, *,
                          raw: bool = False,
                          headers: Mapping[str, str] | None = None):
        """One RPC on a worker link with outstanding + relay accounting.

        ``raw=True`` returns the response bytes unparsed (the relay hot
        path); errors behave identically either way.  Blocking: called
        directly from handler threads, or on the loop's executor from the
        fan-outs and grouping windows.
        Every call lands in the relay-latency histogram by outcome class;
        non-``ok`` outcomes of dispatch calls (POST) also bump
        ``failures_by_class`` -- GET probes like scatter report lookups
        404 routinely and are not failures.
        """
        link = self._link(info)
        transport = link.request_bytes if raw else link.request
        with self._state_lock:
            self.outstanding[info.worker_id] = (
                self.outstanding.get(info.worker_id, 0) + 1)
        outcome = "ok"
        started = time.perf_counter()
        try:
            return transport(method, path, body, headers=headers)
        except CircuitOpenError:
            outcome = "circuit_open"
            raise
        except ServiceError as error:
            if error.status == 429:
                outcome = "http_429"
            elif error.status >= 500:
                outcome = "http_5xx"
            else:
                outcome = "http_4xx"
            raise
        except TransportError:
            outcome = "transport_error"
            raise
        finally:
            elapsed = time.perf_counter() - started
            with self._state_lock:
                count = self.outstanding.get(info.worker_id, 1) - 1
                if count <= 0:
                    self.outstanding.pop(info.worker_id, None)
                else:
                    self.outstanding[info.worker_id] = count
                if outcome != "ok" and method == "POST":
                    self.failures_by_class[outcome] = (
                        self.failures_by_class.get(outcome, 0) + 1)
            metrics = self.metrics
            if metrics is not None and metrics.relay_latency is not None:
                metrics.relay_latency.observe(elapsed, outcome)

    def _dispatch(self, body: dict[str, Any], route_key: str,
                  ctxs: "list[TraceContext | None]",
                  seeds: "list[int] | None" = None):
        """The one affinity-routed failover loop, for B requests (blocking).

        B = 1 (``seeds=None``) relays ``POST /solve`` with ``body`` and
        returns the worker's bytes with ``worker``/``attempts`` spliced
        in: no parse, no re-serialisation (the worker's row echoes the
        ``trace_id`` of the header this loop sends it).  B > 1
        posts the group's deduplicated ``seeds`` to ``/solve_batch`` on
        batch-capable workers and returns one row per member (``seeds``
        and ``ctxs`` in member order), or ``None`` when no worker took
        the group.  A 429 or a transport failure -- and, for a group, a
        404 from a worker without the route -- moves on to the next
        worker along the ring; any other HTTP error is about the request,
        identical on every worker, and propagates.
        """
        if seeds is None:
            path, payload_body = "/solve", body
        else:
            path = "/solve_batch"
            payload_body = {
                "workload": body["workload"],
                "algorithm": body["algorithm"],
                "config": body.get("config") or {},
                "graph_seed": body.get("graph_seed", 0),
                "verify": body.get("verify", True),
                "seeds": list(dict.fromkeys(seeds)),
            }
        members = 1 if seeds is None else len(seeds)
        traced = [ctx for ctx in ctxs if ctx is not None]
        failures: dict[str, Exception] = {}
        attempt = 0
        for _ in range(self.max_worker_attempts):
            info, is_primary = self._pick_worker(route_key, set(failures))
            if info is None:
                break
            if seeds is not None and not info.supports_batch():
                failures[info.worker_id] = ServiceError(
                    404, f"worker {info.worker_id!r} does not accept "
                         f"/solve_batch groups")
                continue
            attempt += 1
            # One RPC serves every member's trace: each traced member gets
            # its own fleet.attempt span; the worker-bound header carries
            # the first one (a group is one downstream request).
            attempt_ctxs = [ctx.child() for ctx in traced]
            headers = ({TRACE_HEADER: attempt_ctxs[0].to_header()}
                       if attempt_ctxs else None)
            attempt_start = time.time()
            attempt_began = time.perf_counter()

            def note_attempts(error: Exception | None = None,
                              **attrs: Any) -> None:
                if seeds is not None:
                    attrs["batch"] = len(payload_body["seeds"])
                for attempt_ctx in attempt_ctxs:
                    self._record_attempt(
                        attempt_ctx, info, attempt_start, attempt_began,
                        error=error, attempt=attempt, **attrs)

            try:
                payload = self._call_worker_sync(
                    info, "POST", path, payload_body, raw=seeds is None,
                    headers=headers)
            except ServiceError as error:
                note_attempts(error)
                if error.status == 429 or (seeds is not None
                                           and error.status == 404):
                    # That worker is saturated (or cannot take a group);
                    # the request is fine -- spill it to the next one.
                    failures[info.worker_id] = error
                    self._bump("retried")
                    continue
                raise
            except TransportError as error:
                note_attempts(error)
                failures[info.worker_id] = error
                self._bump("retried")
                continue
            note_attempts(primary=is_primary)
            if seeds is not None:
                rows = payload.get("rows")
                if (not isinstance(rows, list)
                        or len(rows) != len(payload_body["seeds"])):
                    raise TransportError(
                        info.worker_id,
                        f"solve_batch returned {type(rows).__name__} "
                        f"({len(rows) if isinstance(rows, list) else '?'} "
                        f"rows) for {len(payload_body['seeds'])} seeds")
                self._bump("batched", members)
                self._bump("batch_calls")
            self._bump("routed", members)
            if is_primary:
                self._bump("affinity_hits", members)
            if seeds is None:
                return _annotate_payload(payload, info.worker_id,
                                         len(failures) + 1)
            by_seed = dict(zip(payload_body["seeds"], rows))
            answered = []
            for seed, ctx in zip(seeds, ctxs):
                row = dict(by_seed[seed])
                row["worker"] = info.worker_id
                row["grouped"] = members
                if ctx is not None:
                    row["trace_id"] = ctx.trace_id
                answered.append(row)
            return answered
        if seeds is not None:
            return None
        self._bump("failed")
        return get_best_discovered_result({}, failures)  # raises

    def _fan_out(self, call, *, exclude: str | None = None,
                 required: str | None = None,
                 ) -> "tuple[dict[str, Any], dict[str, Exception]]":
        """``call(info)`` on every live worker but ``exclude`` (blocking).

        The calls run concurrently on the loop's executor, under the
        request timeout, and come back as a ``(discovered, failures)``
        pair keyed by worker id.  ``required`` names what an empty fleet
        cannot do: it then raises :class:`NoLiveWorkersError` instead of
        returning two empty maps.
        """
        live = [info for info in self.registry.live()
                if info.worker_id != exclude]
        if not live and required is not None:
            raise NoLiveWorkersError(f"no live workers {required}")

        async def gather() -> list[Any]:
            loop = asyncio.get_running_loop()
            return await asyncio.gather(
                *(loop.run_in_executor(None, call, info) for info in live),
                return_exceptions=True)

        discovered: dict[str, Any] = {}
        failures: dict[str, Exception] = {}
        for info, result in zip(live, self._run_on_loop(gather())):
            if isinstance(result, BaseException):
                failures[info.worker_id] = result  # type: ignore[assignment]
            else:
                discovered[info.worker_id] = result
        return discovered, failures

    def _get(self, path: str, *, raw: bool = False):
        """The per-worker call of a ``GET path`` fan-out."""
        return lambda info: self._call_worker_sync(info, "GET", path, None,
                                                   raw=raw)

    def _scatter_solve(self, body: dict[str, Any],
                       ctx: TraceContext | None = None) -> dict[str, Any]:
        """Speculative fan-out to every live worker; best result wins."""

        def call_one(info: WorkerInfo):
            attempt_ctx = ctx.child() if ctx is not None else None
            headers = ({TRACE_HEADER: attempt_ctx.to_header()}
                       if attempt_ctx is not None else None)
            attempt_start = time.time()
            attempt_began = time.perf_counter()
            try:
                result = self._call_worker_sync(info, "POST", "/solve",
                                                dict(body), headers=headers)
            except Exception as error:
                self._record_attempt(attempt_ctx, info, attempt_start,
                                     attempt_began, error=error,
                                     scatter=True)
                raise
            self._record_attempt(attempt_ctx, info, attempt_start,
                                 attempt_began, scatter=True)
            return result

        discovered, failures = self._fan_out(call_one,
                                             required="to scatter to")
        self._bump("scattered")
        try:
            row = _best_row(discovered, failures)
        except Exception:
            self._bump("failed")
            raise
        self._bump("routed")
        if ctx is not None:
            row["trace_id"] = ctx.trace_id
        row["scatter"] = {
            "discovered": sorted(discovered),
            "failures": {worker_id: f"{type(error).__name__}: {error}"
                         for worker_id, error in failures.items()},
        }
        return row

    # ------------------------------------------------------- batch grouping
    async def _submit_grouped(self, request: SolveRequest,
                              body: dict[str, Any], route_key: str,
                              ctx: TraceContext | None = None,
                              ) -> dict[str, Any]:
        """Join (or open) the grouping window for this request's shape."""
        shape = (request.workload, request.algorithm, request.config,
                 request.graph_seed, request.verify)
        loop = asyncio.get_running_loop()
        group = self._groups.get(shape)
        if group is None or group.closed:
            group = _Group(shape=shape, route_key=route_key,
                           template=dict(body))
            self._groups[shape] = group
            loop.create_task(self._flush_group(group))
        future: asyncio.Future = loop.create_future()
        group.members.append((int(request.seed), future, ctx))  # type: ignore[arg-type]
        return await future

    async def _flush_group(self, group: _Group) -> None:
        """Close the window, dispatch the group, settle every member."""
        try:
            await asyncio.sleep(self.batch_window_s)
        finally:
            group.closed = True
            if self._groups.get(group.shape) is group:
                del self._groups[group.shape]
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(None, self._dispatch_group,
                                                 group)
        except Exception as error:  # noqa: BLE001 - fan the failure out
            results = [error] * len(group.members)
        for (_, future, _), result in zip(group.members, results):
            if future.done():
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)

    def _dispatch_group(self, group: _Group) -> list[Any]:
        """One result (or exception) per member: a group of several goes
        out as one B > 1 dispatch; a lone member, or a group no worker
        took, as B = 1 dispatches, each with its own failover."""
        members = group.members
        if len(members) > 1:
            rows = self._dispatch(group.template, group.route_key,
                                  [ctx for _, _, ctx in members],
                                  seeds=[seed for seed, _, _ in members])
            if rows is not None:
                return rows
        results: list[Any] = []
        for seed, _, ctx in members:
            self._bump("solo")
            try:
                results.append(self._dispatch(
                    dict(group.template, seed=seed), group.route_key, [ctx]))
            except Exception as error:  # noqa: BLE001 - settle, don't crash
                results.append(error)
        return results

    # -------------------------------------------------------- observability
    def trace(self, trace_id: str) -> dict[str, Any] | None:
        """``GET /trace/<id>``: the assembled cross-hop span tree.

        Gathers the coordinator's own spans plus every live worker's
        ``/trace/<id>`` rows (workers not involved answer 404 and are
        skipped), tags each row with the process it came from, and
        assembles one tree.  Returns ``None`` when tracing is disabled,
        an empty dict when no hop knows the trace.
        """
        recorder = self.trace_recorder
        if recorder is None:
            return None
        rows = [dict(row) for row in recorder.spans(trace_id)]
        for row in rows:
            row.setdefault("worker", "coordinator")
        discovered, _ = self._fan_out(self._get(f"/trace/{trace_id}"))
        # A worker that never saw this trace answers 404; a dead one fails.
        for worker_id, result in discovered.items():
            for row in result.get("spans") or []:
                if isinstance(row, dict):
                    row = dict(row)
                    row.setdefault("worker", worker_id)
                    rows.append(row)
        if not rows:
            return {}
        tree = assemble_trace(rows)
        return {
            "trace_id": trace_id,
            "span_count": tree["span_count"],
            "services": tree["services"],
            "workers": sorted({str(row.get("worker") or "?")
                               for row in rows}),
            "roots": tree["roots"],
        }

    def fleet_metrics(self) -> str | None:
        """``GET /fleet/metrics``: every worker's page, worker-labelled.

        Scrapes each live worker's ``/metrics`` concurrently, adds the
        coordinator's own page under ``worker="coordinator"`` and merges
        them into one exposition document.  ``None`` when metrics are
        disabled locally.
        """
        metrics = self.metrics
        if metrics is None:
            return None
        discovered, failures = self._fan_out(self._get("/metrics", raw=True))
        pages = {worker_id: bytes(page).decode("utf-8", errors="replace")
                 for worker_id, page in discovered.items()}
        pages["coordinator"] = metrics.render()
        return federate_prometheus(pages, errors={
            worker_id: f"{type(error).__name__}: {error}"
            for worker_id, error in failures.items()})

    # ----------------------------------------------------------- warm reads
    def cache_fetch(self, key: str,
                    exclude: str | None = None) -> dict[str, Any]:
        """``GET /cache/<key>``: the fleet-shared warm-read fan-out.

        A worker that misses locally asks the coordinator, which scatters
        the key to every *other* live worker's ``/cache/<key>`` endpoint
        (``exclude`` names the asker, so the fan-out never bounces the
        miss back to it).  Same circuit breakers, outstanding accounting
        and relay-latency histogram as every other worker RPC.
        """
        discovered, failures = self._fan_out(
            self._get(f"/cache/{key}"), exclude=exclude,
            required="to query for cached rows")
        self._bump("warm_fetches")
        row = _best_row(discovered, failures)
        self._bump("warm_hits")
        return row

    # --------------------------------------------------------------- routes
    def _get_healthz(self, http, _) -> dict[str, Any]:
        return {"ok": True, "role": "coordinator",
                "workers": len(self.registry.live()),
                "uptime_s": round(time.monotonic() - self.started_at, 3)}

    def _get_stats(self, http, _) -> dict[str, Any]:
        return self.stats_row()

    def _get_workers(self, http, _) -> dict[str, Any]:
        return {"workers": self.registry.to_rows(),
                "ttl_s": self.registry.ttl_s}

    def _get_metrics(self, http, _) -> None:
        if self.metrics is None:
            raise ServiceError(404, "metrics are disabled on this coordinator")
        http.send_body(200, self.metrics.render().encode("utf-8"),
                       self.metrics.registry.content_type)

    def _get_fleet_metrics(self, http, _) -> None:
        page = self.fleet_metrics()
        if page is None:
            raise ServiceError(404, "metrics are disabled on this coordinator")
        http.send_body(200, page.encode("utf-8"),
                       self.metrics.registry.content_type)

    def _get_trace(self, http, trace_id: str) -> dict[str, Any]:
        result = self.trace(trace_id)
        if result is None:
            raise ServiceError(404, "tracing is disabled on this coordinator")
        if not result:
            raise ServiceError(
                404, f"unknown trace id {trace_id!r} (evicted, never "
                     f"recorded, or held only by a dead worker)")
        return result

    def _get_report(self, http, key: str) -> dict[str, Any]:
        return self.report(key)

    def _get_cache(self, http, key: str) -> dict[str, Any]:
        query = (http.path.split("?", 1) + [""])[1]
        exclude = None
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == "exclude" and value:
                exclude = unquote(value)
        return self.cache_fetch(key, exclude=exclude)

    def _post_solve(self, http, obj: dict[str, Any]):
        return self.solve(obj, trace_parent=http.headers.get(TRACE_HEADER))

    def _post_enroll(self, http, obj: dict[str, Any]) -> dict[str, Any]:
        return self.enroll(str(obj.get("worker_id") or ""),
                           str(obj.get("url") or ""),
                           obj.get("capabilities") or {})

    def _post_heartbeat(self, http, obj: dict[str, Any]) -> dict[str, Any]:
        worker_id = str(obj.get("worker_id") or "")
        if not self.registry.renew(worker_id, obj.get("status") or {}):
            raise ServiceError(
                410, f"worker {worker_id!r} is not enrolled (lease "
                     f"expired?): re-enroll")
        return {"ok": True}

    def _post_leave(self, http, obj: dict[str, Any]) -> dict[str, Any]:
        worker_id = str(obj.get("worker_id") or "")
        self._drop_link(worker_id)
        return {"ok": self.registry.deregister(worker_id)}

    # ---------------------------------------------------------------- stats
    def stats_row(self) -> dict[str, Any]:
        with self._state_lock:
            counters = dict(self.counters)
            outstanding = dict(self.outstanding)
            failures_by_class = dict(self.failures_by_class)
        routed = counters["routed"]
        affinity = counters["affinity_hits"]
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "counters": counters,
            "failures_by_class": failures_by_class,
            "affinity_hit_rate": round(affinity / routed, 4) if routed
            else 0.0,
            "workers": self.registry.to_rows(),
            "outstanding": outstanding,
            "breakers": self.breaker_states(),
            "ttl_s": self.registry.ttl_s,
            "batch_window_s": self.batch_window_s,
            "spill_threshold": self.spill_threshold,
            "tracing": (None if self.trace_recorder is None
                        else self.trace_recorder.stats_row()),
        }


def _make_handler(coordinator: FleetCoordinator, *, quiet: bool):
    return JsonHandler.bound(coordinator, quiet=quiet)


# ---------------------------------------------------------------------------
# ``repro fleet coordinator``
# ---------------------------------------------------------------------------

def add_coordinator_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8750,
                        help="TCP port; 0 picks an ephemeral port")
    parser.add_argument("--port-file", default=None,
                        help="write the bound port to this file (CI "
                             "scripts with --port 0)")
    parser.add_argument("--ttl", type=float, default=DEFAULT_TTL_S,
                        help="worker liveness lease in seconds "
                             f"(default: {DEFAULT_TTL_S})")
    parser.add_argument("--worker-timeout", type=float, default=120.0,
                        help="per-worker RPC timeout in seconds")
    parser.add_argument("--worker-retries", type=int, default=1,
                        help="connection-level retries per worker RPC")
    parser.add_argument("--batch-window", type=float, default=0.0,
                        help="seconds to hold same-shape explicit-seed "
                             "requests for solve_batch grouping (0 "
                             "disables grouping)")
    parser.add_argument("--spill-threshold", type=int, default=4,
                        help="in-flight depth gap beyond which a request "
                             "is stolen by the least-loaded worker")
    parser.add_argument("--no-metrics", action="store_true",
                        help="disable /metrics and metric recording")
    parser.add_argument("--no-tracing", action="store_true",
                        help="disable span recording, trace-context "
                             "propagation and /trace lookups")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request")


def serve_coordinator(args: argparse.Namespace) -> int:
    kwargs: dict[str, Any] = {}
    if getattr(args, "no_metrics", False):
        kwargs["metrics"] = None
    if getattr(args, "no_tracing", False):
        kwargs["tracing"] = False
    coordinator = FleetCoordinator(
        host=args.host, port=args.port, ttl_s=args.ttl,
        worker_timeout_s=args.worker_timeout,
        worker_retries=args.worker_retries,
        batch_window_s=args.batch_window,
        spill_threshold=args.spill_threshold,
        quiet=not args.verbose, **kwargs)
    host, port = coordinator.address
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(str(port))
    print(f"[repro.fleet] coordinator on http://{host}:{port} "
          f"(ttl={coordinator.registry.ttl_s}s, "
          f"batch_window={coordinator.batch_window_s}s, "
          f"spill_threshold={coordinator.spill_threshold}, "
          f"metrics={'off' if coordinator.metrics is None else 'on'}, "
          f"tracing="
          f"{'off' if coordinator.trace_recorder is None else 'on'})",
          flush=True)
    try:
        coordinator.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
    return 0
