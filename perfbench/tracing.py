"""Span recording around the program's public calls, from outside ``src/``.

``install(out_dir)`` wraps the calls each layer is entered through with
timers.  Every wrap records a span ``(name, start, end, id, parent,
request id, attrs)`` in memory; each process -- including forked pool
children -- writes its spans to ``<out_dir>/spans-<pid>.jsonl`` when it
exits.  Times come from ``perf_counter_ns`` (``CLOCK_MONOTONIC``, shared
by every process on the host), so spans from different processes line up.

How a request's spans find each other:

* The benchmark client sends ``TRACE_HEADER: <request id>;<span id>``; the
  HTTP handler wraps adopt it, and ``WorkerLink.request_bytes`` forwards it
  to the worker with its own span id as the parent.
* Planning and cache lookups run on executor threads, which the wrapped
  ``run_in_executor`` enters in the caller's context; ``key_for_plan``
  remembers which request a key belongs to, so the ``SolveCache.put``
  that the shard consumer task makes is adopted too.
* A pool child sees only the job's arguments: its ``worker.solve`` span
  carries the job identity, which ``scheduler.submit`` spans also carry,
  and the analysis joins the two.
"""

from __future__ import annotations

import asyncio
import atexit
import concurrent.futures
import contextlib
import contextvars
import dataclasses
import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import time
from typing import Any, Callable, Iterator

from perfbench.programs import TRACE_HEADER

__all__ = ["Tracer", "install", "job_id", "load_spans"]

Context = tuple  # (request id or None, span id)


def job_id(cell: str, graph_seed: int, algorithm: str,
           config: dict[str, Any] | tuple, seed: int | None) -> str:
    """The identity of one computation, as both sides of the pool see it."""
    items = config if isinstance(config, tuple) else tuple(
        sorted(config.items()))
    return f"{cell}|{graph_seed}|{algorithm}|{items!r}|{seed}"


class Tracer:
    """In-memory spans of one process (reset in forked children)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.current: contextvars.ContextVar[Context | None] = (
            contextvars.ContextVar("perfbench_span", default=None))
        #: cache key -> the ``scheduler.submit`` context that planned it.
        self.key_context: dict[str, Context] = {}
        self._reset()
        # A pool child leaves through os._exit, so atexit never runs there;
        # multiprocessing's finalizers do, once registered in the child
        # (its start-up clears the ones inherited from the parent).
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        atexit.register(self.flush)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)

    def _after_fork(self) -> None:
        self._reset()
        self.key_context = {}
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    @contextlib.contextmanager
    def adopt(self, context: Context | None) -> Iterator[None]:
        token = self.current.set(context)
        try:
            yield
        finally:
            self.current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        parent = self.current.get()
        span_id = f"{self.pid}:{next(self._ids)}"
        request = parent[0] if parent is not None else None
        token = self.current.set((request, span_id))
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self.current.reset(token)
            self.spans.append({
                "name": name, "start": start, "end": end, "id": span_id,
                "parent": parent[1] if parent is not None else None,
                "rid": request, "pid": self.pid, "attrs": attrs})

    def flush(self) -> None:
        if not self.spans or os.getpid() != self.pid:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for row in self.spans:
                handle.write(json.dumps(row, default=str) + "\n")
        self.spans = []


def load_spans(out_dir: str) -> list[dict[str, Any]]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle
                             if line.strip())
    return spans


# ---------------------------------------------------------------- wrapping
def _timed(tracer: Tracer, name: str, function: Callable,
           after: Callable[[dict, Any, tuple, dict], None] | None = None,
           before: Callable[[dict, tuple, dict], None] | None = None,
           ) -> Callable:
    """``function`` inside a span; ``before``/``after`` fill its attrs."""
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                if before is not None:
                    before(attrs, args, kwargs)
                result = await function(*args, **kwargs)
                if after is not None:
                    after(attrs, result, args, kwargs)
                return result
    else:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                if before is not None:
                    before(attrs, args, kwargs)
                result = function(*args, **kwargs)
                if after is not None:
                    after(attrs, result, args, kwargs)
                return result
    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global naming ``original`` at
    ``replacement`` (modules import these helpers by name)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _header_context(handler) -> Context | None:
    value = handler.headers.get(TRACE_HEADER)
    if not value:
        return None
    request, _, parent = value.partition(";")
    return (request, parent or None)


def _traced_handler_factory(tracer: Tracer, make_handler: Callable,
                            name: str) -> Callable:
    @functools.wraps(make_handler)
    def factory(*args, **kwargs):
        base = make_handler(*args, **kwargs)

        class Handler(base):
            def do_POST(self) -> None:  # noqa: N802 - http.server contract
                context = _header_context(self)
                if context is None:
                    return base.do_POST(self)
                with tracer.adopt(context), tracer.span(name):
                    return base.do_POST(self)

        return Handler

    return factory


def install(out_dir: str) -> Tracer:
    """Wrap the program's layer entry points; returns the process tracer."""
    import repro.api as api
    import repro.api.problems as problems
    import repro.api.registry as registry
    import repro.api.serialize as serialize
    import repro.fleet.coordinator as coordinator
    import repro.fleet.transport as transport
    import repro.fleet.worker  # noqa: F401 - rebinding reaches its globals
    import repro.service.cache as cache
    import repro.service.scheduler as scheduler
    import repro.service.server as server
    import repro.service.shardstore as shardstore

    tracer = Tracer(out_dir)

    # HTTP front ends: adopt the client's request id.
    server._make_handler = _traced_handler_factory(
        tracer, server._make_handler, "server.handle")
    coordinator._make_handler = _traced_handler_factory(
        tracer, coordinator._make_handler, "fleet.handle")

    server.ServiceServer.submit = _timed(
        tracer, "server.submit", server.ServiceServer.submit)

    def submit_before(attrs, args, kwargs):
        scheduler_self, request = args[0], args[1]
        attrs["queue_depth"] = sum(scheduler_self.queue_depths())
        attrs["job"] = job_id(request.workload, request.graph_seed,
                              request.algorithm, request.config, request.seed)

    def submit_after(attrs, response, args, kwargs):
        attrs["status"] = response.status
        attrs["key"] = response.key

    scheduler.SolveScheduler.submit = _timed(
        tracer, "scheduler.submit", scheduler.SolveScheduler.submit,
        after=submit_after, before=submit_before)

    # Unlike asyncio.to_thread, run_in_executor does not carry context
    # variables into the executor thread; the program plans and looks up
    # keys there, so carry the request's span along.  (A process pool
    # cannot take the bound Context.run: pool jobs are joined by identity.)
    run_in_executor = asyncio.BaseEventLoop.run_in_executor

    @functools.wraps(run_in_executor)
    def run_in_executor_in_context(self, executor, func, *args):
        if executor is None or isinstance(
                executor, concurrent.futures.ThreadPoolExecutor):
            func = functools.partial(contextvars.copy_context().run, func)
        return run_in_executor(self, executor, func, *args)

    asyncio.BaseEventLoop.run_in_executor = run_in_executor_in_context

    # repro.api: planning, keys, certification, serialisation, solving.
    registry.SolverRegistry.plan = _timed(tracer, "api.plan",
                                          registry.SolverRegistry.plan)
    registry.SolverRegistry.solve = _timed(tracer, "api.solve",
                                           registry.SolverRegistry.solve)
    problems.Problem.certify = _timed(tracer, "api.certify",
                                      problems.Problem.certify)

    key_for_plan = cache.key_for_plan

    @functools.wraps(key_for_plan)
    def traced_key_for_plan(plan):
        owner = tracer.current.get()
        with tracer.span("api.key"):
            key = key_for_plan(plan)
        if owner is not None:
            tracer.key_context[key] = owner
        return key

    _rebind(key_for_plan, traced_key_for_plan)

    def serialized_bytes(attrs, text, args, kwargs):
        attrs["bytes"] = len(text)

    _rebind(serialize.report_to_json, _timed(
        tracer, "api.serialize", serialize.report_to_json,
        after=serialized_bytes))

    # Graph builds (the scheduler's memo and every pool job).
    _rebind(scheduler.build_workload, _timed(
        tracer, "graphs.build", scheduler.build_workload))

    # The pool child's whole job, tagged with the job identity.
    def worker_job(attrs, args, kwargs):
        attrs["job"] = job_id(*args[:4], args[4])

    _rebind(scheduler._worker_solve, _timed(
        tracer, "worker.solve", scheduler._worker_solve, before=worker_job))

    # Algorithm.run is a dataclass field: swap each registered spec.
    def run_result(attrs, outcome, args, kwargs):
        attrs["rounds"] = outcome.rounds
        requested = outcome.metrics.get("engine_requested")
        used = outcome.metrics.get("engine_used")
        attrs["fallback"] = (requested is not None and used is not None
                             and requested != used)

    algorithms = api.REGISTRY._algorithms
    for name, spec in list(algorithms.items()):
        algorithms[name] = dataclasses.replace(spec, run=_timed(
            tracer, "algo.run", spec.run, after=run_result,
            before=lambda attrs, args, kwargs, name=name: attrs.update(
                algorithm=name)))

    # repro.service.cache and shardstore.
    def lookup_tier(attrs, result, args, kwargs):
        attrs["tier"] = result[1]

    cache.SolveCache.lookup = _timed(tracer, "cache.lookup",
                                     cache.SolveCache.lookup,
                                     after=lookup_tier)
    cache_put = _timed(tracer, "cache.put", cache.SolveCache.put)

    @functools.wraps(cache.SolveCache.put)
    def adopting_put(self, key, report):
        owner = tracer.current.get()
        if owner is None:
            owner = tracer.key_context.pop(key, None)
        with tracer.adopt(owner):
            return cache_put(self, key, report)

    cache.SolveCache.put = adopting_put
    shardstore.ShardStore.get = _timed(tracer, "shardstore.get",
                                       shardstore.ShardStore.get)
    shardstore.ShardStore.put = _timed(tracer, "shardstore.put",
                                       shardstore.ShardStore.put)

    # repro.fleet: the relay hop forwards the request id.
    request_bytes = transport.WorkerLink.request_bytes

    @functools.wraps(request_bytes)
    def traced_request_bytes(self, method, path, body=None, *, headers=None):
        with tracer.span("fleet.worker_call"):
            context = tracer.current.get()
            forwarded = dict(headers or {})
            if context[0] is not None:
                forwarded[TRACE_HEADER] = f"{context[0]};{context[1]}"
            return request_bytes(self, method, path, body, headers=forwarded)

    transport.WorkerLink.request_bytes = traced_request_bytes
    return tracer
