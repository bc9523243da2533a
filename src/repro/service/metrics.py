"""A small stdlib metrics registry rendered in Prometheus text format.

The service layer needs three instrument kinds -- monotonic counters,
point-in-time gauges and bucketed latency histograms -- plus one wrinkle:
much of what ``/metrics`` should expose is *already counted* elsewhere
(``SolveScheduler.counters``, :class:`~repro.service.cache.CacheStats`,
``asyncio.Queue.qsize``).  Re-counting those at event time would duplicate
state and add hot-path cost, so the registry supports two styles:

* **event-driven instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) -- mutated as things happen (e.g. the per-algorithm
  solve latency histogram, which has no other home);
* **sampled families** (:meth:`MetricsRegistry.counter_family` /
  :meth:`gauge_family`) -- a callable evaluated at scrape time that
  returns ``[(label_values, value), ...]`` straight from the live objects
  (queue depths, cache counters, scheduler status counters).

Rendering follows the Prometheus text exposition format (version 0.0.4):
``# HELP`` / ``# TYPE`` headers, escaped label values, ``_bucket`` /
``_sum`` / ``_count`` series with cumulative ``le`` buckets for
histograms.  Everything is guarded by one registry lock, so instruments
are safe to update from the scheduler loop, worker threads and HTTP
handler threads at once.

The whole module is dependency-free and import-light on purpose: a
scheduler built with ``metrics=None`` skips every call site, which is what
the <5% observability-overhead gate in ``bench_service_throughput``
compares against.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "FLEET_RELAY_LATENCY_BUCKETS",
    "SOLVE_LATENCY_BUCKETS",
]

#: Default buckets of the solve-latency histograms (seconds).  Spanning
#: sub-millisecond cache hits through minute-long frontier solves.
SOLVE_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Buckets for coordinator->worker relay latency (seconds).  Deliberately
#: coarser than :data:`SOLVE_LATENCY_BUCKETS`: a relay includes a cross-
#: host round-trip plus the remote solve, so sub-millisecond resolution is
#: noise while the tail (retries, timeouts, circuit probes) stretches past
#: a local solve's -- the top bound doubles the request-timeout ballpark.
FLEET_RELAY_LATENCY_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0)

_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: Any) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_labels(names: Sequence[str], values: Sequence[Any],
                   extra: tuple[str, str] | None = None) -> str:
    pairs = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Instrument:
    """Shared shape: a name, help text, label names and a values table."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], lock: threading.Lock) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._values: dict[tuple[str, ...], float] = {}

    def _key(self, labelvalues: Sequence[Any]) -> tuple[str, ...]:
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {len(labelvalues)} values")
        return tuple(str(value) for value in labelvalues)

    def samples(self) -> "list[str]":
        return [f"{self.name}{_format_labels(self.labelnames, key)} "
                f"{_format_value(value)}"
                for key, value in sorted(self._values.items())]

    def render(self) -> str:
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} {self.kind}"]
        lines.extend(self.samples())
        return "\n".join(lines)


class Counter(_Instrument):
    """A monotonic counter, optionally labeled."""

    kind = "counter"

    def inc(self, *labelvalues: Any, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *labelvalues: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)


class Gauge(_Instrument):
    """A point-in-time value, optionally labeled."""

    kind = "gauge"

    def set(self, value: float, *labelvalues: Any) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, *labelvalues: Any, amount: float = 1.0) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, *labelvalues: Any, amount: float = 1.0) -> None:
        self.inc(*labelvalues, amount=-amount)

    def value(self, *labelvalues: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)


class Histogram(_Instrument):
    """A bucketed histogram with cumulative ``le`` series.

    Per label set the table holds ``[count_per_bucket..., sum, count]``;
    buckets are upper bounds (``le``), cumulated at render time so the
    observe path is one bisect + three adds.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str],
                 lock: threading.Lock,
                 buckets: Sequence[float] = SOLVE_LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._table: dict[tuple[str, ...], list[float]] = {}

    def observe(self, value: float, *labelvalues: Any) -> None:
        key = self._key(labelvalues)
        with self._lock:
            row = self._table.get(key)
            if row is None:
                row = [0.0] * (len(self.buckets) + 2)
                self._table[key] = row
            index = bisect_left(self.buckets, value)
            if index < len(self.buckets):
                row[index] += 1
            row[-2] += value   # _sum
            row[-1] += 1       # _count

    def count(self, *labelvalues: Any) -> int:
        with self._lock:
            row = self._table.get(self._key(labelvalues))
            return int(row[-1]) if row else 0

    def samples(self) -> list[str]:
        lines: list[str] = []
        with self._lock:
            rows = sorted((key, list(row))
                          for key, row in self._table.items())
        for key, row in rows:
            cumulative = 0.0
            for bound, bucket_count in zip(self.buckets, row):
                cumulative += bucket_count
                labels = _format_labels(self.labelnames, key,
                                        extra=("le", _format_value(bound)))
                lines.append(f"{self.name}_bucket{labels} "
                             f"{_format_value(cumulative)}")
            inf_labels = _format_labels(self.labelnames, key,
                                        extra=("le", "+Inf"))
            lines.append(f"{self.name}_bucket{inf_labels} "
                         f"{_format_value(row[-1])}")
            plain = _format_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(row[-2])}")
            lines.append(f"{self.name}_count{plain} "
                         f"{_format_value(row[-1])}")
        return lines


class _SampledFamily:
    """A counter/gauge family whose values are read at scrape time.

    ``sampler()`` returns ``[(label_values_tuple, value), ...]`` straight
    from live objects -- no double bookkeeping, no hot-path cost.  A
    sampler that raises is rendered as an empty family rather than failing
    the whole scrape.
    """

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str],
                 kind: str,
                 sampler: Callable[[], Iterable[tuple[Sequence[Any], float]]],
                 ) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self.kind = kind
        self.sampler = sampler

    def render(self) -> str:
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} {self.kind}"]
        try:
            samples = list(self.sampler())
        except Exception:  # noqa: BLE001 - a scrape must never 500
            samples = []
        for labelvalues, value in samples:
            labels = _format_labels(self.labelnames,
                                    [str(v) for v in labelvalues])
            lines.append(f"{self.name}{labels} {_format_value(float(value))}")
        return "\n".join(lines)


class MetricsRegistry:
    """Instrument factory + Prometheus text renderer (one lock for all)."""

    content_type = _CONTENT_TYPE

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, Any] = {}

    def _add(self, family: Any) -> Any:
        if family.name in self._families:
            raise ValueError(f"metric {family.name!r} already registered")
        self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._add(Counter(name, help_text, labelnames, self._lock))

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._add(Gauge(name, help_text, labelnames, self._lock))

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = SOLVE_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._add(Histogram(name, help_text, labelnames, self._lock,
                                   buckets=buckets))

    def counter_family(self, name: str, help_text: str,
                       labelnames: Sequence[str],
                       sampler: Callable[[], Iterable[tuple[Sequence[Any],
                                                            float]]],
                       ) -> _SampledFamily:
        return self._add(_SampledFamily(name, help_text, labelnames,
                                        "counter", sampler))

    def gauge_family(self, name: str, help_text: str,
                     labelnames: Sequence[str],
                     sampler: Callable[[], Iterable[tuple[Sequence[Any],
                                                          float]]],
                     ) -> _SampledFamily:
        return self._add(_SampledFamily(name, help_text, labelnames,
                                        "gauge", sampler))

    def render(self) -> str:
        """The full exposition document (trailing newline included)."""
        blocks = [family.render() for family in self._families.values()]
        return "\n".join(blocks) + "\n" if blocks else "\n"


class ServiceMetrics:
    """The named instrument set of one ``repro.service`` scheduler/server.

    Event-driven instruments cover what nothing else records (latency
    histograms by algorithm and outcome, engine requested/used pairs,
    HTTP and SSE traffic); :meth:`bind_scheduler` registers the sampled
    families that mirror the scheduler's and cache's existing counters at
    scrape time.  Each scheduler owns its own instance, so test servers
    never share state.  Local solve latency uses
    :data:`SOLVE_LATENCY_BUCKETS`; the fleet relay histogram uses the
    coarser :data:`FLEET_RELAY_LATENCY_BUCKETS`.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.started_at = time.time()
        #: Set by :meth:`bind_fleet`; ``None`` on plain schedulers.
        self.relay_latency: Histogram | None = None
        self.solve_latency = self.registry.histogram(
            "repro_solve_latency_seconds",
            "Request latency through the scheduler by algorithm and outcome "
            "(every outcome: hits, computed, coalesced, rejected, invalid, "
            "errors, cancelled).",
            ("algorithm", "status"),
            buckets=SOLVE_LATENCY_BUCKETS)
        self.engine_solves = self.registry.counter(
            "repro_engine_solves_total",
            "Computed solves by algorithm and requested/used round engine "
            "(requested != used marks a silent engine fallback).",
            ("algorithm", "requested", "used"))
        self.engine_fallbacks = self.registry.counter(
            "repro_engine_fallbacks_total",
            "Computed solves whose requested engine fell back to another "
            "backend.",
            ("algorithm", "requested", "used"))
        self.http_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP responses by method, route and status code.",
            ("method", "route", "code"))
        self.client_disconnects = self.registry.counter(
            "repro_http_client_disconnects_total",
            "Responses abandoned mid-write by the client (broken pipe / "
            "connection reset).",
            ("route",))
        self.stream_events = self.registry.counter(
            "repro_stream_events_total",
            "Events published to /events/<key> subscribers by event type.",
            ("event",))
        self.stream_subscribers = self.registry.gauge(
            "repro_stream_subscribers",
            "Currently connected /events/<key> subscribers.")

    def _bind_trace_recorder(self, owner: Any) -> None:
        """Sampled span-recorder families (``owner.trace_recorder``).

        The recorder attribute is read at scrape time so a scheduler or
        coordinator built with tracing disabled renders empty families.
        """

        def _span_samples():
            recorder = getattr(owner, "trace_recorder", None)
            if recorder is None:
                return []
            stats = recorder.stats_row()
            return [(("recorded",), float(stats["recorded_total"])),
                    (("dropped",), float(stats["dropped_total"])),
                    (("trace_evicted",),
                     float(stats["evicted_traces_total"]))]

        self.registry.counter_family(
            "repro_trace_spans_total",
            "Trace spans recorded, dropped (per-trace cap) and lost to "
            "whole-trace LRU eviction.",
            ("event",), _span_samples)

        def _trace_samples():
            recorder = getattr(owner, "trace_recorder", None)
            if recorder is None:
                return []
            return [((), float(recorder.stats_row()["traces"]))]

        self.registry.gauge_family(
            "repro_trace_traces_retained",
            "Distinct traces currently held in the span ring buffer.",
            (), _trace_samples)

    def bind_scheduler(self, scheduler: Any) -> None:
        """Register scrape-time families over the scheduler's live state."""
        registry = self.registry

        def _request_samples():
            return [((status,), float(count))
                    for status, count in sorted(scheduler.counters.items())]

        registry.counter_family(
            "repro_requests_total",
            "Scheduler requests by outcome counter "
            "(requests is the total; the rest partition it).",
            ("status",), _request_samples)

        def _cache_samples():
            stats = scheduler.cache.stats
            return [
                (("memory", "hit"), float(stats.memory_hits)),
                (("persistent", "hit"), float(stats.persistent_hits)),
                (("peer", "hit"), float(stats.peer_hits)),
                (("peer", "error"), float(stats.peer_errors)),
                (("any", "miss"), float(stats.misses)),
                (("memory", "eviction"), float(stats.evictions)),
                (("any", "put"), float(stats.puts)),
            ]

        registry.counter_family(
            "repro_cache_events_total",
            "Solve-cache lookups and mutations by tier and event "
            "(tier peer counts fleet-shared warm fetches).",
            ("tier", "event"), _cache_samples)

        def _shard_entry_samples():
            return [((str(row["shard"]),), float(row["entries"]))
                    for row in scheduler.cache.shard_occupancy()]

        registry.gauge_family(
            "repro_cache_shard_entries",
            "Live rows per persistent-cache shard (sharded tier only).",
            ("shard",), _shard_entry_samples)

        def _shard_byte_samples():
            samples = []
            for row in scheduler.cache.shard_occupancy():
                shard = str(row["shard"])
                samples.append(((shard, "live"), float(row["live_bytes"])))
                samples.append(((shard, "disk"), float(row["disk_bytes"])))
            return samples

        registry.gauge_family(
            "repro_cache_shard_bytes",
            "Bytes per persistent-cache shard: live rows vs on-disk "
            "segment footprint (their gap is reclaimable by compaction).",
            ("shard", "kind"), _shard_byte_samples)

        def _store_event_samples():
            return [((event,), float(count)) for event, count
                    in sorted(scheduler.cache.store_counters().items())]

        registry.counter_family(
            "repro_cache_store_events_total",
            "Sharded-store maintenance events: TTL/LRU evictions, "
            "segment compactions/deletions, index rescans and "
            "wrong-key span reads detected (and healed).",
            ("event",), _store_event_samples)

        def _queue_samples():
            return [((str(shard),), float(queue.qsize()))
                    for shard, queue in enumerate(scheduler._queues)]

        registry.gauge_family(
            "repro_queue_depth",
            "Jobs sitting in each shard's priority queue.",
            ("shard",), _queue_samples)

        registry.gauge_family(
            "repro_pending_jobs",
            "Jobs admitted but not yet completed (queued + running).",
            (), lambda: [((), float(scheduler._pending))])

        registry.gauge_family(
            "repro_scheduler_shards",
            "Configured worker shards.",
            (), lambda: [((), float(scheduler.shards))])

        registry.gauge_family(
            "repro_uptime_seconds",
            "Seconds since this metrics registry was created.",
            (), lambda: [((), time.time() - self.started_at)])

        self._bind_trace_recorder(scheduler)

    def bind_fleet(self, coordinator: Any) -> None:
        """Register scrape-time families over a fleet coordinator's state.

        The coordinator's dispatch counters (routed / retried / stolen /
        scattered / batched / solo / affinity hits / failures) and the
        worker registry's liveness view are already counted where they
        happen; these families mirror them at scrape time, per worker
        where a worker label exists.
        """
        registry = self.registry

        registry.counter_family(
            "repro_fleet_requests_total",
            "Coordinator dispatch outcomes (routed is the total forwarded; "
            "affinity_hits counts those served by their ring-primary; "
            "retried, stolen, scattered, batched, solo and failed classify "
            "the rest of the traffic).",
            ("outcome",),
            lambda: [((outcome,), float(count)) for outcome, count
                     in sorted(coordinator.counters.items())])

        registry.gauge_family(
            "repro_fleet_live_workers",
            "Workers currently enrolled and inside their liveness TTL.",
            (), lambda: [((), float(len(coordinator.registry.live())))])

        registry.counter_family(
            "repro_fleet_workers_expired_total",
            "Workers dropped from the registry after missing heartbeats "
            "for a full TTL.",
            (), lambda: [((), float(coordinator.registry.expired_total))])

        registry.gauge_family(
            "repro_fleet_worker_heartbeat_age_seconds",
            "Seconds since each live worker's last enroll/heartbeat.",
            ("worker",),
            lambda: [((info.worker_id,), age) for info, age
                     in coordinator.registry.heartbeat_ages()])

        registry.gauge_family(
            "repro_fleet_worker_outstanding",
            "Requests the coordinator currently has in flight per worker.",
            ("worker",),
            lambda: [((worker_id,), float(count)) for worker_id, count
                     in sorted(coordinator.outstanding.items())])

        registry.gauge_family(
            "repro_fleet_worker_queue_depth",
            "Per-worker scheduler queue depth as of the last heartbeat.",
            ("worker",),
            lambda: [((info.worker_id,), float(info.queue_depth))
                     for info in coordinator.registry.live()])

        self.relay_latency = registry.histogram(
            "repro_fleet_relay_latency_seconds",
            "Coordinator->worker call latency by outcome (ok, http_4xx, "
            "http_429, http_5xx, transport_error, circuit_open) -- one "
            "observation per attempt, so a retried request contributes "
            "several.",
            ("outcome",),
            buckets=FLEET_RELAY_LATENCY_BUCKETS)

        registry.counter_family(
            "repro_fleet_failures_total",
            "Failed coordinator->worker attempts by failure class.",
            ("class",),
            lambda: [((cls,), float(count)) for cls, count
                     in sorted(coordinator.failures_by_class.items())])

        def _circuit_samples():
            samples = []
            for worker_id, state in sorted(
                    coordinator.breaker_states().items()):
                for candidate in ("closed", "half-open", "open"):
                    samples.append(((worker_id, candidate),
                                    1.0 if state == candidate else 0.0))
            return samples

        registry.gauge_family(
            "repro_fleet_circuit_state",
            "Per-worker circuit-breaker state (1 on the active state, 0 "
            "on the other two).",
            ("worker", "state"), _circuit_samples)

        def _ring_samples(field):
            return [((worker_id,), float(row[field])) for worker_id, row
                    in sorted(coordinator.ring.occupancy().items())]

        registry.gauge_family(
            "repro_fleet_ring_vnodes",
            "Virtual nodes each worker owns on the consistent-hash ring.",
            ("worker",), lambda: _ring_samples("vnodes"))

        registry.gauge_family(
            "repro_fleet_ring_keyspace_share",
            "Fraction of the hash keyspace routed to each worker "
            "(affinity balance; sums to 1 over live workers).",
            ("worker",), lambda: _ring_samples("keyspace_share"))

        self._bind_trace_recorder(coordinator)

    def render(self) -> str:
        return self.registry.render()
