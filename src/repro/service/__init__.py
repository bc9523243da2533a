"""The serving layer: content-addressed solve cache + async batch serving.

The fourth subsystem (after ``congest``, ``api`` and ``scenarios``): it
turns the solver library into a servable system.  PR 3's provenance block
-- ``(graph_fingerprint, algorithm, canonical config, seed)`` -- identifies
a run bit-for-bit, i.e. it *is* a content address; this package builds the
machinery that exploits it:

* :mod:`repro.service.cache` -- a tiered result cache (in-process LRU +
  persistent sharded store + optional fleet-peer fetch) keyed by that
  address, storing serialised :class:`~repro.api.RunReport` rows and
  replaying their certificates on hit;
* :mod:`repro.service.shardstore` -- the persistent tier's engine: N
  key-shards of segmented append-only JSON-lines logs with in-memory
  span indexes, TTL + LRU eviction under a size budget, and segment
  compaction (``repro cache stats|compact`` inspect and maintain it);
* :mod:`repro.service.scheduler` -- an asyncio scheduler with request
  coalescing (identical in-flight requests share one computation),
  priority + admission queues and key-sharded dispatch to a
  ``ProcessPoolExecutor`` worker pool;
* :mod:`repro.service.server` / :mod:`repro.service.client` -- a
  stdlib-only JSON-over-HTTP endpoint (``repro serve``: ``POST /solve``,
  ``GET /report/<key>``, ``/healthz``, ``/stats``, ``/metrics``,
  ``/events/<key>``) and its thin client;
* :mod:`repro.service.frontdoor` -- the HTTP layer that ``repro serve``,
  the fleet worker and the fleet coordinator share: ``LoopServer`` (one
  asyncio loop thread + HTTP acceptor lifecycle) and ``JsonHandler`` (a
  route table, one counted ``send_body`` and one error-to-status funnel);
* :mod:`repro.service.metrics` / :mod:`repro.service.jsonlog` /
  :mod:`repro.service.events` -- the observability layer: a stdlib
  Prometheus-text metrics registry, JSON-lines structured request
  logging (``repro serve --log-json``) and live solve streaming over
  server-sent events.

Quick use (in-process, no HTTP)::

    from repro.service import SolveCache
    cache = SolveCache()                  # two tiers, default store
    hit = cache.solve(graph, "power-mis", k=2)
    hit.report.certificate.ok             # replayed verbatim on a hit
    hit.hit, hit.tier                     # (True, "memory") the second time

Full stack (HTTP; a server or scheduler built without a ``cache`` keeps
reports in memory only -- ``repro serve`` uses the default store unless
``--cache-path`` names another)::

    from repro.service import ServiceClient, ServiceServer
    with ServiceServer(port=0) as server:
        client = ServiceClient(server.url)
        row = client.solve("regular-n24-d3", "power-mis", config={"k": 2})
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_EXPORTS = {
    "AdmissionError": "repro.service.scheduler",
    "CacheStats": "repro.service.cache",
    "CachedReport": "repro.service.cache",
    "CachedSolve": "repro.service.cache",
    "EventChannel": "repro.service.events",
    "MetricsRegistry": "repro.service.metrics",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "ServiceMetrics": "repro.service.metrics",
    "ServiceServer": "repro.service.server",
    "ShardStore": "repro.service.shardstore",
    "SolveCache": "repro.service.cache",
    "SolveEventBus": "repro.service.events",
    "SolveRequest": "repro.service.request",
    "SolveResponse": "repro.service.scheduler",
    "SolveScheduler": "repro.service.scheduler",
    "SolveTimeout": "repro.service.server",
    "Span": "repro.service.tracectx",
    "SpanRecorder": "repro.service.tracectx",
    "StreamingObserver": "repro.service.events",
    "TRACE_HEADER": "repro.service.tracectx",
    "TraceContext": "repro.service.tracectx",
    "configure_json_logging": "repro.service.jsonlog",
    "default_cache_path": "repro.service.cache",
    "log_event": "repro.service.jsonlog",
    "shard_of": "repro.service.shardstore",
    "solve_key": "repro.service.cache",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
