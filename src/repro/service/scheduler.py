"""The async request scheduler: coalesce, admit, shard, dispatch.

Request model
-------------
A :class:`SolveRequest` names a *workload* (a scenario-registry graph cell
such as ``regular-n64-d4``, or a family name resolved to its first cell)
plus the algorithm, typed config and optional explicit seed -- the same
vocabulary as ``repro solve``.  Workloads are registry-built from an
explicit ``graph_seed``, so a request is pure data: any worker process can
rebuild the identical graph, and the request's content address (the
:class:`~repro.api.SolvePlan` key) is computable before any work happens.

Pipeline (one path, B seeds)
----------------------------
A request asks for B seeds: :meth:`~SolveScheduler.submit` is the case
B = 1 (the request's own ``seed``) and
:meth:`~SolveScheduler.submit_batch` a grouped seed sweep.  Both take the
same path:

1. **Plan** -- fetch the workload graph from the process-wide memo
   :func:`workload_graph`, which the worker entry points share, and resolve
   the algorithm/config and each seed to a :class:`SolvePlan` and its
   cache key.
2. **Cache** -- a key already in the two-tier cache is answered
   immediately (``status="hit"``).
3. **Coalesce** -- a key already *in flight*, queued or running, solo or
   inside a batch, attaches to its future (``status="coalesced"``):
   identical concurrent requests share one computation, the classic
   thundering-herd guard.  The keys left form *one* job.
4. **Admit** -- beyond ``max_pending`` queued jobs the request is refused
   with :class:`AdmissionError` (HTTP 429 at the server), keeping latency
   bounded under overload instead of queueing unboundedly.  With
   ``admission_target_s`` set, admission is additionally wired to
   *measured* per-shard service time: a request whose predicted wait on
   its shard (queue depth x latency EWMA) exceeds the target is refused
   early, so one slow shard sheds load while fast shards keep serving.
5. **Dispatch** -- the job enters the priority queue of shard
   ``hash(key) % shards``; each shard has one consumer task feeding its own
   single-worker ``ProcessPoolExecutor``, so a given content address always
   lands on the same worker (deterministic placement, warm per-worker
   state) and distinct shards run genuinely in parallel.  Lower ``priority``
   values run first within a shard; FIFO breaks ties.  The consumer runs
   a B = 1 job through ``_worker_solve`` and a larger one through
   ``_worker_solve_batch`` (one array program over B seeds), caches every
   row and resolves each key's future, whether or not its submitter is
   still waiting.

``submit(..., wait=False)`` returns as soon as the job is admitted
(``status="accepted"``, no report): the caller polls ``/report/<key>`` or
watches ``/events/<key>``.

Observability
-------------
Every request outcome -- ``hit``, ``computed``, ``coalesced``,
``rejected``, ``invalid``, ``error`` and ``cancelled`` (client timeout) --
flows through one funnel, :meth:`SolveScheduler._finish_request`, which
records the latency sample (``latencies_s`` *and* the per-algorithm
Prometheus histogram, labeled by status) and emits one structured
``request`` log line.  Earlier versions only recorded latency for
successful responses, which hid exactly the requests operators care
about; the funnel is the fix.  A request with ``stream=True`` additionally
opens an :class:`~repro.service.events.EventChannel` that round-by-round
progress is published to (see :mod:`repro.service.events`).

Workers return the *serialised* report (``repro.api.report_to_json``,
canonical compact text), not the live object -- payloads never cross the
process boundary, mirroring the persistent cache tier.  That text is the
report's only encoding: the consumer wraps it in a
:class:`~repro.service.cache.CachedReport` without parsing it, the cache
stores it, and :meth:`SolveResponse.to_json` splices it into the HTTP body,
so a hit neither parses nor re-encodes its report.  The consumer parses a
computed report at most once, when engine metrics or a live stream need
its fields.  The request's ``seed`` is forwarded verbatim (``None`` stays
``None``), so a worker re-derives the same seed/policy the plan predicted
and cached provenance is identical to a fresh ``repro.solve``.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro.api import REGISTRY, RunReport
from repro.api.serialize import report_to_json
from repro.congest.observers import RoundObserver, ambient_observation
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.service import jsontext
from repro.service.cache import CachedReport, SolveCache, key_for_plan
from repro.service.events import (
    EventChannel,
    SolveEventBus,
    StreamingObserver,
    _ChannelSink,
)
from repro.service.jsonlog import log_event
from repro.service.metrics import ServiceMetrics
from repro.service.request import SolveRequest
from repro.service.tracectx import Span, SpanRecorder, TraceContext

__all__ = ["AdmissionError", "SolveRequest", "SolveResponse", "SolveScheduler",
           "TraceRunObserver", "resolve_workload"]


class AdmissionError(RuntimeError):
    """Raised when the scheduler refuses a request: the pending queues are
    full (backpressure) or the scheduler is shutting down / closed."""

    http_status = 429


#: ``SolveScheduler(metrics=...)`` default: build a private registry.
_AUTO_METRICS = object()


def resolve_workload(workload: str) -> str:
    """Map a cell or family name to the concrete registry cell name."""
    try:
        return DEFAULT_REGISTRY.cell(workload).name
    except KeyError:
        cells = sorted(DEFAULT_REGISTRY.cells(family=workload),
                       key=lambda cell: cell.name)
        if not cells:
            known = ", ".join(sorted(c.name for c in DEFAULT_REGISTRY.cells()))
            raise KeyError(f"unknown workload {workload!r}: not a registry "
                           f"cell or family (cells: {known})") from None
        return cells[0].name


def build_workload(cell: str, *, graph_seed: int) -> nx.Graph:
    return DEFAULT_REGISTRY.build_cell(cell, seed=graph_seed)


GRAPH_MEMO_ENTRIES = 64


@functools.lru_cache(maxsize=GRAPH_MEMO_ENTRIES)
def workload_graph(cell: str, graph_seed: int) -> nx.Graph:
    """The process-wide graph memo: planning and every worker entry point
    share one graph per workload, so each cache keyed by graph identity
    (fingerprint, topology, ``G^k`` CSR) fills once per process.  Sound
    because no algorithm mutates its input graph.  A miss calls the module
    global :func:`build_workload` (uncached)."""
    return build_workload(cell, graph_seed=graph_seed)


@dataclass
class SolveResponse:
    """What ``submit`` resolves to: the report plus serving metadata.

    ``entry`` (the report's encoded text) is ``None`` exactly for
    ``status="accepted"`` (a ``wait=False`` submit); ``tier`` names the
    cache tier that served a hit (``"memory"`` / ``"persistent"``) and is
    ``None`` otherwise.  ``trace_id`` echoes the trace id of the request's
    propagated context whenever it parses, with tracing on or off.
    """

    entry: CachedReport | None
    key: str
    status: str  # "hit", "computed", "coalesced" or "accepted"
    cell: str
    latency_s: float = 0.0
    tier: str | None = None
    #: Trace id of the request's propagated context, when it had one.
    trace_id: str | None = None

    @property
    def report(self) -> RunReport | None:
        """The :class:`RunReport`, parsed on first access."""
        return None if self.entry is None else self.entry.report

    def to_json(self) -> str:
        """The response as compact JSON -- the HTTP body -- with the
        report's stored text spliced in as it is."""
        row: dict[str, Any] = {
            "key": self.key,
            "status": self.status,
            "cached": self.status == "hit",
            "cell": self.cell,
            "latency_s": round(self.latency_s, 6),
        }
        if self.tier is not None:
            row["tier"] = self.tier
        if self.trace_id is not None:
            row["trace_id"] = self.trace_id
        if self.entry is not None:
            row["report"] = jsontext.RawJSON(self.entry.text)
        return jsontext.dumps(row)


class TraceRunObserver(RoundObserver):
    """Record the engine phase of a solve as an ``engine.run`` child span.

    Passive by design: it only uses the run-level hooks, never the round
    or message hooks, so it is ``vector_compatible`` -- attaching it does
    not push a vector-registered algorithm onto the scalar fallback (the
    property the fleet's tracing-overhead gate depends on).  A replica
    batch calls all its runs' starts before their ends, in replica order,
    so each end closes the oldest open run: one span per replica.
    """

    vector_compatible = True

    def __init__(self, parent: TraceContext, sink: list[dict[str, Any]],
                 *, service: str = "worker") -> None:
        self.parent = parent
        self.sink = sink
        self.service = service
        #: Open runs, oldest first: (context, wall start, clock start,
        #: engine name).
        self._open: list[tuple[TraceContext, float, float, str]] = []

    def on_run_start(self, run) -> None:  # RunContext
        self._open.append((self.parent.child(), time.time(),
                           time.perf_counter(), getattr(run, "engine", "?")))

    def on_run_end(self, result) -> None:  # SimulationResult
        if not self._open:  # run never started
            return
        ctx, start_s, t0, engine = self._open.pop(0)
        attrs: dict[str, Any] = {"engine": engine}
        for key in ("engine_used", "rounds", "total_messages", "halted"):
            value = getattr(result, key, None)
            if value is not None:
                attrs[key] = value
        self.sink.append(Span(
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=ctx.parent_id, name="engine.run",
            service=self.service, start_s=start_s,
            duration_s=time.perf_counter() - t0,
            attrs=attrs).to_row())


def _worker_solve(workload: str, graph_seed: int, algorithm: str,
                  config: dict[str, Any], seed: int | None,
                  verify: bool, events_sink: Any = None) -> str:
    """Worker-process entry point: fetch the graph, solve, serialise.

    ``seed`` is forwarded verbatim so the worker re-derives exactly the
    seed/policy the scheduler's plan predicted -- cached provenance is
    indistinguishable from a fresh in-process ``repro.solve``.

    ``events_sink`` (anything with ``put(dict)``; a manager-queue proxy
    for process workers, a channel adapter for inline ones) switches on
    live streaming: a :class:`StreamingObserver` is ambiently installed
    so simulator-native rounds publish progress while the solve runs.
    """
    graph = workload_graph(workload, graph_seed)
    if events_sink is None:
        report = REGISTRY.solve(graph, algorithm, seed=seed, verify=verify,
                                **config)
    else:
        observer = StreamingObserver(events_sink)
        with ambient_observation(observer):
            report = REGISTRY.solve(graph, algorithm, seed=seed,
                                    verify=verify, **config)
    return report_to_json(report)


def _worker_solve_traced(workload: str, graph_seed: int, algorithm: str,
                         config: dict[str, Any], seed: int | None,
                         verify: bool, trace: str,
                         events_sink: Any = None) -> tuple[str, list[dict]]:
    """Traced variant of :func:`_worker_solve`; used only when the request
    carries an ``X-Repro-Trace`` context (``_worker_solve`` keeps its
    historical six-positional-argument shape for everything else).

    Returns ``(serialized_report, span_rows)``: spans ride back in-band
    with the result -- no extra IPC on the solve path -- covering the
    whole worker-side execution (``worker.solve``) with ``build_graph``
    and ``engine.run`` child phases.  The engine phase comes from a
    passive, vector-compatible :class:`TraceRunObserver`, so tracing does
    not push vector-registered algorithms onto their scalar fallback.
    When the job also streams, each span is additionally published as an
    ``{"event": "span"}`` frame over the existing event sink, so live
    subscribers see phases as they complete.
    """
    parsed = TraceContext.from_header(trace)
    root = parsed.child() if parsed is not None else TraceContext.new()
    spans: list[dict] = []
    start_s = time.time()
    t0 = time.perf_counter()
    status = "ok"
    try:
        build_ctx = root.child()
        build_start_s = time.time()
        build_t0 = time.perf_counter()
        graph = workload_graph(workload, graph_seed)
        spans.append(Span(
            trace_id=build_ctx.trace_id, span_id=build_ctx.span_id,
            parent_id=build_ctx.parent_id, name="build_graph",
            service="worker", start_s=build_start_s,
            duration_s=time.perf_counter() - build_t0,
            attrs={"workload": workload, "graph_seed": graph_seed,
                   "nodes": graph.number_of_nodes()}).to_row())

        observers: list[Any] = [TraceRunObserver(root, spans)]
        if events_sink is not None:
            observers.append(StreamingObserver(events_sink))
        with ambient_observation(*observers):
            report = REGISTRY.solve(graph, algorithm, seed=seed,
                                    verify=verify, **config)
    except Exception:
        status = "error"
        raise
    finally:
        spans.append(Span(
            trace_id=root.trace_id, span_id=root.span_id,
            parent_id=root.parent_id, name="worker.solve",
            service="worker", start_s=start_s,
            duration_s=time.perf_counter() - t0, status=status,
            attrs={"algorithm": algorithm, "pid": os.getpid()}).to_row())
        if events_sink is not None:
            for row in spans:
                try:
                    events_sink.put({"event": "span", **row})
                except Exception:  # noqa: BLE001 - sink died; spans still
                    break          # return in-band with the report
    return report_to_json(report), spans


def _worker_solve_batch(workload: str, graph_seed: int, algorithm: str,
                        config: dict[str, Any], seeds: list[int],
                        verify: bool) -> list[str]:
    """Worker entry point for one grouped seed sweep (``solve_batch``).

    The whole group executes as a single batch -- algorithms with a
    declared batched runner run all replicas as one array program over the
    shared topology -- and each seed's report is serialised independently,
    so every row is cacheable and replayable on its own.
    """
    graph = workload_graph(workload, graph_seed)
    reports = REGISTRY.solve_batch(graph, algorithm, seeds=seeds,
                                   verify=verify, **config)
    return [report_to_json(report) for report in reports]


@dataclass
class _Job:
    """One queued computation: the B keys of one request that neither the
    cache nor an in-flight job could answer, with their seeds.

    Each key has its own future, registered in ``SolveScheduler._inflight``
    for as long as the job runs, so any later request -- solo or batch --
    coalesces per key onto whichever job computes it.
    """

    request: SolveRequest
    cell: str
    keys: list[str]
    seeds: list[int | None]
    futures: "list[asyncio.Future[CachedReport]]" = field(repr=False)
    shard: int = 0
    #: Live event channel when a B = 1 job's request asked to stream.
    channel: EventChannel | None = field(repr=False, default=None)


class SolveScheduler:
    """Coalescing, admission-controlled, sharded dispatch over workers."""

    def __init__(self, *, cache: SolveCache | None = None,
                 shards: int | None = None, max_pending: int = 256,
                 admission_target_s: float | None = None,
                 inline: bool = False,
                 metrics: ServiceMetrics | None | object = _AUTO_METRICS,
                 tracing: bool = True,
                 ) -> None:
        """``cache=None`` keeps reports in a memory-only
        :class:`SolveCache`; pass ``SolveCache(path)`` (as ``repro serve``
        does) for the persistent tier.

        ``inline=True`` executes jobs on threads in-process (no worker
        pool) -- used by tests and constrained CI environments; the shard
        queues, coalescing and admission behave identically.

        ``metrics`` defaults to a private :class:`ServiceMetrics` registry
        (rendered by ``GET /metrics``); pass ``None`` to disable metric
        recording entirely -- the configuration the observability-overhead
        benchmark gate compares against.

        ``admission_target_s`` switches admission control from purely
        static (``max_pending``) to *measured*: each shard keeps an EWMA
        of its recent job service time, and a request whose predicted
        wait -- ``(queued jobs + running + this one) * ewma`` on its shard
        -- exceeds the target is refused with :class:`AdmissionError`
        even though slots remain.  A slow shard (huge graphs, cold cells)
        therefore sheds load early instead of queueing work it cannot
        finish in time, while fast shards keep admitting.  ``max_pending``
        remains as the hard upper bound; ``None`` (the default) keeps the
        historical static-only behaviour.

        ``tracing=False`` drops the span recorder: requests carrying an
        ``X-Repro-Trace`` context are still served identically but no
        spans are recorded or returned from ``GET /trace/<id>`` -- the
        fleet bench's tracing-overhead gate compares against this.

        The scheduler always resolves against the default
        :data:`repro.api.REGISTRY`: worker processes rebuild it on import,
        so a custom registry would let the planned content address and the
        executed solve disagree.
        """
        self.cache = cache if cache is not None else SolveCache("")
        self.registry = REGISTRY
        self.shards = max(1, shards if shards is not None
                          else min(4, os.cpu_count() or 1))
        self.max_pending = max(1, int(max_pending))
        self.admission_target_s = (None if admission_target_s is None
                                   else max(0.0, float(admission_target_s)))
        #: Per-shard EWMA of job service time (seconds); 0.0 until the
        #: shard has completed its first job.
        self.shard_latency_ewma_s: list[float] = [0.0] * self.shards
        self.inline = inline
        self._inflight: dict[str, asyncio.Future] = {}
        self._queues: list[asyncio.PriorityQueue] = []
        self._consumers: list[asyncio.Task] = []
        self._executors: list[Executor] = []
        self._seq = itertools.count()
        self._pending = 0
        self._started = False
        self._closed = False
        self.counters: dict[str, int] = {
            "requests": 0, "hits": 0, "computed": 0, "coalesced": 0,
            "rejected": 0, "rejected_latency": 0, "errors": 0, "invalid": 0,
            "timeouts": 0, "batch_jobs": 0,
        }
        self.latencies_s: deque[float] = deque(maxlen=4096)
        self.events = SolveEventBus()
        self.trace_recorder: SpanRecorder | None = (
            SpanRecorder() if tracing else None)
        if metrics is _AUTO_METRICS:
            metrics = ServiceMetrics()
        self.metrics: ServiceMetrics | None = metrics  # type: ignore[assignment]
        if self.metrics is not None:
            self.metrics.bind_scheduler(self)
        #: Lazily-started multiprocessing.Manager for cross-process event
        #: queues; only created when a process-pool job actually streams.
        self._manager = None

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        if self._closed:
            raise AdmissionError("scheduler is closed")
        if self._started:
            return
        self._started = True
        for shard in range(self.shards):
            queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
            self._queues.append(queue)
            if self.inline:
                executor: Executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-shard{shard}")
            else:
                executor = ProcessPoolExecutor(max_workers=1)
                # Fork the worker now, before any planning thread runs: a
                # fork taken while another thread is importing a module
                # leaves that module's import lock held in the child, whose
                # first solve that imports it then blocks forever.
                executor.submit(int)
            self._executors.append(executor)
            self._consumers.append(
                asyncio.create_task(self._consume(shard), name=f"shard-{shard}"))

    async def stop(self) -> None:
        """Shut the scheduler down; pending and future work is *refused*.

        Closing is terminal and race-free by contract:

        * a ``submit`` arriving during or after ``stop()`` raises a clean
          :class:`AdmissionError` instead of restarting the consumers or
          enqueueing into a queue nobody drains;
        * jobs still sitting in the shard queues when the consumers are
          cancelled have their futures failed with :class:`AdmissionError`,
          so every submitter (including coalesced waiters sharing the
          future) unblocks instead of hanging forever;
        * every live ``/events/<key>`` stream is terminated with an
          ``end`` frame, so SSE handler threads unblock too.
        """
        self._closed = True
        if not self._started:
            self.events.shutdown("scheduler closed")
            return
        self._started = False
        for task in self._consumers:
            task.cancel()
        for task in self._consumers:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        # Fail the jobs no consumer will ever pop (and any still-pending
        # in-flight future) so their submitters unblock with a clean error.
        shutdown_error = AdmissionError(
            "scheduler closed while the request was queued")
        for queue in self._queues:
            while True:
                try:
                    _, _, job = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                for future in job.futures:
                    if not future.done():
                        future.set_exception(shutdown_error)
        for future in list(self._inflight.values()):
            if not future.done():
                future.set_exception(shutdown_error)
        self._pending = 0
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)
        self._consumers.clear()
        self._executors.clear()
        self._queues.clear()
        self.events.shutdown("scheduler closed")
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    #: ``close`` is the conventional name for the terminal shutdown.
    close = stop

    # ------------------------------------------------------------- serving
    def _plan(self, request: SolveRequest,
              seeds: "list[int | None]") -> tuple[str, list[str]]:
        """Resolve workload -> graph -> one content address per seed
        (thread-side).

        Building an unmemoized graph and fingerprinting it sorts every
        node and edge -- too slow for the event loop, where it would stall
        concurrent requests (including microsecond cache hits) behind one
        large cell.  ``_serve`` runs this in an executor thread.
        """
        cell = resolve_workload(request.workload)
        graph = workload_graph(cell, request.graph_seed)
        config = request.config_dict
        return cell, [key_for_plan(self.registry.plan(
            graph, request.algorithm, seed=seed, **config)) for seed in seeds]

    def _finish_request(self, request: SolveRequest, status: str,
                        start: float, *, seed: int | None,
                        key: str | None = None,
                        cell: str | None = None, tier: str | None = None,
                        shard: int | None = None,
                        entry: CachedReport | None = None,
                        ) -> SolveResponse:
        """The one funnel every request outcome flows through.

        Records the latency sample (deque + labeled histogram) and emits
        the structured ``request`` log line -- for *every* status, not
        just successes: error, rejected, invalid and cancelled requests
        are precisely the ones operators page on, and they used to be
        invisible in ``latencies_s``.  ``seed`` is the row's own seed (a
        batch row's, not the request's ``None``), so the logged shape
        replays to the key that was served.
        """
        latency = time.perf_counter() - start
        self.latencies_s.append(latency)
        if self.metrics is not None:
            self.metrics.solve_latency.observe(latency, request.algorithm,
                                               status)
        trace_id = None
        parsed = (TraceContext.from_header(request.trace)
                  if request.trace else None)
        if parsed is not None:
            trace_id = parsed.trace_id
            recorder = self.trace_recorder
            if recorder is not None:
                ctx = parsed.child()
                span_status = ("error" if status in ("error", "rejected",
                                                     "invalid", "cancelled")
                               else "ok")
                attrs: dict[str, Any] = {"status": status,
                                         "algorithm": request.algorithm}
                for name, value in (("key", key), ("cell", cell),
                                    ("tier", tier), ("shard", shard)):
                    if value is not None:
                        attrs[name] = value
                recorder.record(Span(
                    trace_id=ctx.trace_id, span_id=ctx.span_id,
                    parent_id=ctx.parent_id, name="scheduler.request",
                    service="serve", start_s=time.time() - latency,
                    duration_s=latency, status=span_status, attrs=attrs))
        # The request shape (workload/config/seeds) rides along so a
        # ``--log-json`` stream doubles as a replayable traffic trace for
        # ``repro cache warm``.
        log_event("request", key=key, cell=cell,
                  algorithm=request.algorithm, status=status,
                  shard=shard, latency_ms=round(latency * 1e3, 3), tier=tier,
                  workload=request.workload, graph_seed=request.graph_seed,
                  seed=seed, config=request.config_dict,
                  **({"trace_id": trace_id} if trace_id else {}))
        return SolveResponse(entry=entry, key=key or "", status=status,
                             cell=cell or "", latency_s=latency, tier=tier,
                             trace_id=trace_id)

    async def submit(self, request: SolveRequest, *,
                     wait: bool = True) -> SolveResponse:
        """Serve one request: the B = 1 case of the one request path (see
        the module docstring for the pipeline).

        ``wait=False`` returns ``status="accepted"`` (no report) right
        after the job is admitted and enqueued; cache hits still answer
        with the report immediately.
        """
        (response,) = await self._serve(request, [request.seed], wait=wait)
        return response

    async def submit_batch(self, request: SolveRequest,
                           seeds: "list[int]") -> "list[SolveResponse]":
        """Serve one grouped seed sweep: one row per seed, one worker job.

        The fleet coordinator groups requests with an identical
        ``(workload, algorithm, config, graph_seed)`` shape but different
        explicit seeds and forwards them here as a single call.  The sweep
        takes the same path as :meth:`submit`, with B seeds: cached seeds
        answer ``hit``, a seed whose key is already in flight -- solo or
        inside another batch -- coalesces onto that computation, and the
        rest form *one* job (one admission slot) in the queue of the shard
        of the first such key.  The shard runs a job of B > 1 seeds as one
        ``repro.solve_batch`` -- algorithms with a batched runner sweep all
        replicas as a single array program.  Each row is cached, certified
        and bit-identical to a solo ``repro.solve`` with that seed, so the
        batch path never changes what a retry or replay observes.

        Each seed is one request with exactly one recorded outcome.  A
        repeated seed shares its first occurrence's answer (``hit``, or
        ``coalesced`` onto the computation).  When the batch is refused,
        invalid, fails or is cancelled, every seed not yet answered records
        that outcome before the exception propagates; a cancelled batch's
        job still runs and caches its rows.
        """
        seed_list = [int(seed) for seed in seeds]
        if not seed_list:
            return []
        return await self._serve(request, seed_list, wait=True)

    async def _serve(self, request: SolveRequest, seeds: "list[int | None]",
                     *, wait: bool) -> "list[SolveResponse]":
        """The one request path, for B = ``len(seeds)`` seeds."""
        start = time.perf_counter()
        self.counters["requests"] += len(seeds)
        outcomes: list[SolveResponse | None] = [None] * len(seeds)
        keys: list[str | None] = [None] * len(seeds)
        where: dict[str, Any] = {}  # cell and shard, once known

        def finish(index: int, status: str, **fields: Any) -> None:
            outcomes[index] = self._finish_request(
                request, status, start, seed=seeds[index], key=keys[index],
                **where, **fields)

        def finish_unanswered(status: str) -> int:
            """Record ``status`` for each seed still unanswered; the count."""
            unanswered = [index for index, outcome in enumerate(outcomes)
                          if outcome is None]
            for index in unanswered:
                finish(index, status)
            return len(unanswered)

        loop = asyncio.get_running_loop()
        try:
            if self._closed:
                self.counters["rejected"] += len(seeds)
                raise AdmissionError("scheduler is closed")
            if not self._started:
                # The first request starts the scheduler, before it plans:
                # process shards fork in ``start()``, which must not
                # overlap a planning thread's imports.
                await self.start()
            try:
                cell, keys[:] = await loop.run_in_executor(
                    None, self._plan, request, seeds)
            except (KeyError, TypeError, ValueError):
                # Unknown workload/algorithm or a malformed typed config
                # (the server maps these to 400): still one sample a seed.
                self.counters["invalid"] += finish_unanswered("invalid")
                raise
            where["cell"] = cell
            if self._closed:  # closed while planning off-loop: do not enqueue
                self.counters["rejected"] += len(seeds)
                raise AdmissionError("scheduler is closed")
            #: Position of each distinct key's first occurrence.
            first: dict[str, int] = {}
            for index, key in enumerate(keys):
                first.setdefault(key, index)
            unique = list(first.values())
            if self.cache.peer_fetch is not None:
                # The lookup may fan out to fleet peers (network I/O): keep
                # it off the event loop so concurrent requests -- including
                # microsecond memory hits -- are not stalled behind it.
                lookups = await loop.run_in_executor(None, lambda: [
                    self.cache.lookup(keys[index],
                                      require_certificate=request.verify)
                    for index in unique])
            else:
                lookups = [self.cache.lookup(
                    keys[index], require_certificate=request.verify)
                    for index in unique]
            misses: list[int] = []
            for index, (entry, tier) in zip(unique, lookups):
                if entry is None:
                    misses.append(index)
                    continue
                self.counters["hits"] += 1
                if request.stream:
                    self._replay_cached_stream(keys[index], cell, request,
                                               tier)
                finish(index, "hit", tier=tier, entry=entry)

            # A key already in flight -- queued or running, solo or inside
            # a batch -- attaches to that computation; the rest form one job.
            futures = {keys[index]: self._inflight.get(keys[index])
                       for index in misses}
            fresh = [index for index in misses if futures[keys[index]] is None]
            if fresh:
                shard = int(keys[fresh[0]], 16) % self.shards
                where["shard"] = shard
                refusal = self._check_admission(shard)
                if refusal is not None:
                    self.counters["rejected"] += outcomes.count(None)
                    raise AdmissionError(refusal)
                futures.update(self._enqueue(
                    request, cell, shard, [keys[index] for index in fresh],
                    [seeds[index] for index in fresh]))
            self.counters["coalesced"] += len(misses) - len(fresh)
            if not wait:
                for index in fresh:
                    finish(index, "accepted")
            for index in misses:
                if outcomes[index] is None:
                    entry = await asyncio.shield(futures[keys[index]])
                    finish(index, "computed" if index in fresh
                           else "coalesced", entry=entry)
        except asyncio.CancelledError:
            # The *submitter* was cancelled (client timeout / teardown);
            # the shielded job keeps running and will land in the cache.
            finish_unanswered("cancelled")
            raise
        except AdmissionError:
            finish_unanswered("rejected")
            raise
        except Exception:
            finish_unanswered("error")
            raise

        for index, key in enumerate(keys):
            if outcomes[index] is None:  # a repeat of an answered seed
                served = outcomes[first[key]]
                status = "hit" if served.status == "hit" else "coalesced"
                self.counters["hits" if status == "hit" else "coalesced"] += 1
                finish(index, status, tier=served.tier, entry=served.entry)
        return outcomes  # type: ignore[return-value]

    def _enqueue(self, request: SolveRequest, cell: str, shard: int,
                 keys: "list[str]", seeds: "list[int | None]",
                 ) -> "dict[str, asyncio.Future]":
        """Queue one admitted job on ``shard``; its futures by key."""
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in keys]
        channel: EventChannel | None = None
        if request.stream and len(keys) == 1:
            channel = self.events.open(keys[0])
            self._publish(channel, {
                "event": "queued", "key": keys[0], "cell": cell,
                "algorithm": request.algorithm, "shard": shard,
            })
        for key, future in zip(keys, futures):
            self._inflight[key] = future
            # The in-flight entry lives exactly as long as the *job*: a
            # submitter cancelled mid-await (e.g. wait_for timeout) must
            # not tear it down while the computation still runs, or an
            # identical retry would enqueue a duplicate instead of
            # coalescing.  The callback also retrieves an orphaned job's
            # exception so asyncio never logs "exception was never
            # retrieved".
            future.add_done_callback(self._retire_inflight(key))
        self._pending += 1
        job = _Job(request=request, cell=cell, keys=keys, seeds=seeds,
                   futures=futures, shard=shard, channel=channel)
        self._queues[shard].put_nowait(
            (request.priority, next(self._seq), job))
        return dict(zip(keys, futures))

    def queue_depths(self) -> "list[int]":
        """Jobs sitting in each shard's priority queue (the steal hook).

        Fleet workers report this from ``GET /fleet/status`` heartbeats so
        the coordinator can route retries and stolen work toward the
        shallowest node; an unstarted/stopped scheduler reports ``[]``.
        """
        return [queue.qsize() for queue in self._queues]

    def _retire_inflight(self, key: str):
        def callback(future: asyncio.Future) -> None:
            if self._inflight.get(key) is future:
                del self._inflight[key]
            if not future.cancelled():
                future.exception()  # mark retrieved (orphaned submitters)

        return callback

    def _publish(self, channel: EventChannel | None,
                 event: dict[str, Any]) -> None:
        if channel is None:
            return
        channel.publish(event)
        if self.metrics is not None:
            self.metrics.stream_events.inc(event.get("event", "unknown"))

    def _replay_cached_stream(self, key: str, cell: str,
                              request: SolveRequest, tier: str) -> None:
        """A streamed request served from cache still gets a terminal
        frame, so ``stream_events`` callers always see an ``end``."""
        channel = self.events.open(key)
        self._publish(channel, {
            "event": "end", "key": key, "cell": cell, "status": "hit",
            "tier": tier, "algorithm": request.algorithm,
        })
        self.events.close(key)

    # ----------------------------------------------------------- admission
    #: EWMA smoothing for per-shard service time: recent jobs dominate
    #: (a shard that just got slow sheds load within a few jobs) without
    #: one outlier swinging the estimate.
    _LATENCY_EWMA_ALPHA = 0.2

    def _note_shard_latency(self, shard: int, seconds: float) -> None:
        previous = self.shard_latency_ewma_s[shard]
        if previous <= 0.0:
            self.shard_latency_ewma_s[shard] = seconds
        else:
            alpha = self._LATENCY_EWMA_ALPHA
            self.shard_latency_ewma_s[shard] = (
                alpha * seconds + (1.0 - alpha) * previous)

    def _predicted_wait_s(self, shard: int) -> float:
        """Expected time for a new job on ``shard`` to *finish*: the jobs
        queued ahead of it, the one running, and itself, each at the
        shard's measured service time."""
        ewma = self.shard_latency_ewma_s[shard]
        depth = (self._queues[shard].qsize()
                 if shard < len(self._queues) else 0)
        return (depth + 2) * ewma

    def _check_admission(self, shard: int | None = None) -> str | None:
        """The reason this request must be refused, or ``None`` to admit.

        The static ``max_pending`` bound always applies; with an
        ``admission_target_s`` configured the request is additionally
        refused when its shard's measured latency predicts a wait beyond
        the target (see ``__init__``).
        """
        if self._pending >= self.max_pending:
            return (f"scheduler saturated: {self._pending} pending jobs "
                    f"(max_pending={self.max_pending})")
        if shard is not None and self.admission_target_s is not None:
            predicted = self._predicted_wait_s(shard)
            if (self.shard_latency_ewma_s[shard] > 0.0
                    and predicted > self.admission_target_s):
                self.counters["rejected_latency"] += 1
                return (f"shard {shard} overloaded: predicted wait "
                        f"{predicted:.3f}s exceeds admission target "
                        f"{self.admission_target_s:.3f}s (service-time "
                        f"ewma {self.shard_latency_ewma_s[shard]:.3f}s)")
        return None

    def record_timeout(self, seeds: int = 1) -> None:
        """Account one client-abandoned (504) request of ``seeds`` seeds.

        Called on the loop by the HTTP front end after it cancels the
        cross-thread future -- the scheduler-side coroutine records a
        ``cancelled`` latency sample per unanswered seed, this records the
        *why*, counted in seeds like ``requests``.
        """
        self.counters["timeouts"] += seeds

    async def _consume(self, shard: int) -> None:
        queue = self._queues[shard]
        executor = self._executors[shard]
        loop = asyncio.get_running_loop()
        while True:
            _, _, job = await queue.get()
            events_sink = pump = None
            job_started = time.perf_counter()
            try:
                events_sink, pump = self._job_event_plumbing(job, loop)
                rows = await self._run_job(job, executor, loop, events_sink)
                if len(job.keys) > 1:
                    self.counters["batch_jobs"] += 1
                for key, future, row in zip(job.keys, job.futures, rows):
                    entry = CachedReport.from_text(row)
                    self.cache.put(key, entry)
                    self.counters["computed"] += 1
                    self._record_engine_metrics(job.request.algorithm, entry)
                    if not future.done():
                        future.set_result(entry)
                if job.channel is not None:
                    await self._settle_stream(job, pump, events_sink, {
                        "event": "end", "key": job.keys[0],
                        "status": "computed", "rounds": entry.report.rounds,
                        "certified": entry.certified,
                    })
                    pump = None
            except asyncio.CancelledError:
                # Consumer cancellation means shutdown: fail (not cancel)
                # the job's futures so submitters awaiting them -- including
                # coalesced waiters -- see a clean AdmissionError rather
                # than a confusing CancelledError of their own coroutine.
                for future in job.futures:
                    if not future.done():
                        future.set_exception(AdmissionError(
                            "scheduler closed while the request was running"))
                if pump is not None and events_sink is not None:
                    try:  # best effort: unblock the pump thread
                        events_sink.put(None)
                    except Exception:  # noqa: BLE001 - manager gone
                        pass
                raise
            except Exception as error:  # noqa: BLE001 - surfaced per-request
                self.counters["errors"] += len(job.keys)
                log_event("job_error", key=job.keys[0], cell=job.cell,
                          algorithm=job.request.algorithm,
                          batch=len(job.keys),
                          error=f"{type(error).__name__}: {error}")
                for future in job.futures:
                    if not future.done():
                        future.set_exception(error)
                if job.channel is not None:
                    await self._settle_stream(job, pump, events_sink, {
                        "event": "end", "key": job.keys[0], "status": "error",
                        "error": f"{type(error).__name__}: {error}",
                    })
                    pump = None
            finally:
                self._note_shard_latency(
                    shard, (time.perf_counter() - job_started) / len(job.keys))
                self._pending -= 1
                queue.task_done()

    async def _run_job(self, job: _Job, executor: Executor,
                       loop: asyncio.AbstractEventLoop,
                       events_sink: Any) -> "list[str]":
        """The job's serialised rows, one per key: ``_worker_solve`` (or
        its traced or streamed form) for B = 1, one ``_worker_solve_batch``
        sweep for B > 1."""
        request = job.request
        if len(job.seeds) > 1:
            return await loop.run_in_executor(executor, functools.partial(
                _worker_solve_batch, job.cell, request.graph_seed,
                request.algorithm, request.config_dict, job.seeds,
                request.verify))
        (seed,) = job.seeds
        if request.trace is not None and self.trace_recorder is not None:
            serialized, span_rows = await loop.run_in_executor(
                executor, functools.partial(
                    _worker_solve_traced, job.cell, request.graph_seed,
                    request.algorithm, request.config_dict, seed,
                    request.verify, request.trace, events_sink))
            self.trace_recorder.record_rows(span_rows)
        elif events_sink is None:
            # Exactly the historical six positional arguments: tests (and
            # any deployment) that substitute ``_worker_solve`` keep
            # working for non-streamed jobs.
            serialized = await loop.run_in_executor(
                executor, _worker_solve, job.cell, request.graph_seed,
                request.algorithm, request.config_dict, seed, request.verify)
        else:
            serialized = await loop.run_in_executor(
                executor, functools.partial(
                    _worker_solve, job.cell, request.graph_seed,
                    request.algorithm, request.config_dict, seed,
                    request.verify, events_sink))
        return [serialized]

    # ------------------------------------------------------ event plumbing
    def _job_event_plumbing(self, job: _Job, loop: asyncio.AbstractEventLoop,
                            ):
        """``(events_sink, pump_future)`` for a job; ``(None, None)`` when
        not streaming.

        Inline workers run in this process, so the sink publishes straight
        into the channel.  Process-pool workers get a manager-queue proxy;
        a thread (the *pump*) drains it back into the channel until the
        ``None`` sentinel arrives after the job settles.
        """
        if job.channel is None:
            return None, None
        if self.inline:
            sink = _ChannelSink(
                job.channel,
                on_publish=(None if self.metrics is None else
                            (lambda event: self.metrics.stream_events.inc(
                                event.get("event", "unknown")))))
            return sink, None
        if self._manager is None:
            import multiprocessing

            self._manager = multiprocessing.Manager()
        events_queue = self._manager.Queue()
        channel = job.channel

        def pump() -> None:
            while True:
                event = events_queue.get()
                if event is None:
                    return
                self._publish(channel, event)

        pump_future = loop.run_in_executor(None, pump)
        return events_queue, pump_future

    async def _settle_stream(self, job: _Job, pump, events_sink,
                             final_event: dict[str, Any]) -> None:
        """Drain the pump (process mode), publish the terminal frame and
        archive the channel."""
        if pump is not None and events_sink is not None:
            events_sink.put(None)  # FIFO: lands after every worker event
            try:
                await pump
            except Exception:  # noqa: BLE001 - manager died mid-shutdown
                pass
        self._publish(job.channel, final_event)
        self.events.close(job.keys[0])

    def _record_engine_metrics(self, algorithm: str,
                               entry: CachedReport) -> None:
        """Engine requested/used counts from ``RunReport.metrics`` (the
        computed report's one parse, shared with its later readers)."""
        if self.metrics is None:
            return
        metrics = entry.report.metrics
        requested = metrics.get("engine_requested")
        used = metrics.get("engine_used")
        if requested is None or used is None:
            return
        self.metrics.engine_solves.inc(algorithm, requested, used)
        if requested != used:
            self.metrics.engine_fallbacks.inc(algorithm, requested, used)

    # --------------------------------------------------------------- stats
    def _percentile(self, values: list[float], q: float) -> float:
        if not values:
            return 0.0
        index = min(len(values) - 1, max(0, round(q * (len(values) - 1))))
        return values[index]

    def stats_row(self) -> dict[str, Any]:
        """The ``/stats`` document: counters, hit rate, latency percentiles.

        ``latency_ms`` covers *every* request outcome (labeled breakdowns
        live in the ``/metrics`` histograms).
        """
        values = sorted(self.latencies_s)
        requests = self.counters["requests"]
        served_from_cache = self.counters["hits"]
        return {
            "requests": requests,
            "hits": served_from_cache,
            "computed": self.counters["computed"],
            "coalesced": self.counters["coalesced"],
            "rejected": self.counters["rejected"],
            "errors": self.counters["errors"],
            "invalid": self.counters["invalid"],
            "timeouts": self.counters["timeouts"],
            "hit_rate": round(served_from_cache / requests, 4) if requests else 0.0,
            "batch_jobs": self.counters["batch_jobs"],
            "pending": self._pending,
            "queue_depths": self.queue_depths(),
            "shards": self.shards,
            "admission": {
                "max_pending": self.max_pending,
                "target_s": self.admission_target_s,
                "rejected_latency": self.counters["rejected_latency"],
                "shard_latency_ewma_ms": [
                    round(1e3 * value, 3)
                    for value in self.shard_latency_ewma_s],
            },
            "inline_workers": self.inline,
            "live_streams": len(self.events.live_keys()),
            "tracing": (None if self.trace_recorder is None
                        else self.trace_recorder.stats_row()),
            "latency_ms": {
                "count": len(values),
                "p50": round(1e3 * self._percentile(values, 0.50), 3),
                "p90": round(1e3 * self._percentile(values, 0.90), 3),
                "p99": round(1e3 * self._percentile(values, 0.99), 3),
            },
            "cache": self.cache.stats.to_row(),
        }
