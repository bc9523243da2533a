"""The worker registry: enroll, heartbeat, expire.

Fleet workers are *self-enrolling*: a worker boots its own solve server,
then announces itself to the coordinator (``POST /fleet/enroll``) with its
URL and capability tags -- which round engines it can run, whether it
accepts grouped ``/solve_batch`` calls, how warm its two-tier cache is,
how many shards it schedules over.  Liveness is lease-based: every enroll
or heartbeat renews a TTL, and a worker that misses heartbeats for a full
TTL is expired from the routing set (its in-flight requests fail over at
the transport layer first; expiry just stops *new* work landing on it).

The registry is deliberately dumb about placement: it answers "who is
alive and what can they do", nothing else.  Routing policy (consistent
hashing, stealing, scatter) lives in
:mod:`repro.fleet.coordinator`, which reads :meth:`WorkerRegistry.live`
on every decision -- so expiry takes effect immediately without any
cross-component invalidation protocol.

Everything is guarded by one lock: enroll/heartbeat arrive on HTTP
handler threads while the coordinator's asyncio loop reads the live set
and the sweep task expires stale leases.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["WorkerInfo", "WorkerRegistry"]

#: Default liveness lease: a worker missing heartbeats for this many
#: seconds stops receiving new work.  Workers heartbeat at ttl/3.
DEFAULT_TTL_S = 10.0


@dataclass
class WorkerInfo:
    """One enrolled worker: address, capabilities and lease state."""

    worker_id: str
    url: str
    #: Capability tags advertised at enroll time and refreshed by
    #: heartbeats: ``engines`` (round-engine backends available),
    #: ``batch`` (accepts ``POST /solve_batch`` groups), ``shards``,
    #: ``cache`` (a :meth:`SolveCache.warmth_summary` row).
    capabilities: dict[str, Any] = field(default_factory=dict)
    enrolled_at: float = 0.0
    last_heartbeat: float = 0.0
    heartbeats: int = 0
    #: Bumped on every (re-)enroll, so a worker that crashed and came back
    #: is distinguishable from one that never left.
    generation: int = 1
    #: Live load snapshot from the most recent heartbeat.
    queue_depth: int = 0
    pending: int = 0

    def supports_batch(self) -> bool:
        return bool(self.capabilities.get("batch"))

    def to_row(self, *, heartbeat_age_s: float | None = None,
               ) -> dict[str, Any]:
        row = {
            "worker_id": self.worker_id,
            "url": self.url,
            "capabilities": dict(self.capabilities),
            "generation": self.generation,
            "heartbeats": self.heartbeats,
            "queue_depth": self.queue_depth,
            "pending": self.pending,
        }
        warmth = self.cache_warmth()
        if warmth is not None:
            row["cache_warmth"] = warmth
        if heartbeat_age_s is not None:
            row["heartbeat_age_s"] = round(heartbeat_age_s, 3)
        return row

    def cache_warmth(self) -> dict[str, Any] | None:
        """The heartbeat-refreshed cache snapshot, flattened for display.

        ``None`` until the worker's first status carries a ``cache``
        summary.  ``shards`` is the per-shard entry-count vector from the
        worker's persistent tier (empty for memory-only caches), so
        ``repro fleet status`` and the ``/fleet/workers`` document show
        where the fleet's warm keys actually live.
        """
        cache = self.capabilities.get("cache")
        if not isinstance(cache, Mapping):
            return None
        return {
            "tier": cache.get("tier"),
            "memory_entries": cache.get("memory_entries"),
            "persistent_entries": cache.get("persistent_entries"),
            "persistent_bytes": cache.get("persistent_bytes"),
            "hit_rate": cache.get("hit_rate"),
            "shards": list(cache.get("shards") or []),
        }


class WorkerRegistry:
    """Lease-based worker membership (enroll / renew / expire)."""

    def __init__(self, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerInfo] = {}
        #: Monotonic count of leases dropped by :meth:`expire` (metrics).
        self.expired_total = 0

    # ------------------------------------------------------------ lifecycle
    def enroll(self, worker_id: str, url: str,
               capabilities: Mapping[str, Any] | None = None,
               ) -> dict[str, Any]:
        """Enroll (or re-enroll) a worker; returns its lease terms.

        Re-enrolling an id bumps its generation and replaces URL and
        capabilities wholesale -- the restart case.  The returned lease
        tells the worker how often to heartbeat.
        """
        if not worker_id or not url:
            raise ValueError("enroll requires a worker_id and a url")
        now = self._clock()
        with self._lock:
            existing = self._workers.get(worker_id)
            generation = existing.generation + 1 if existing is not None else 1
            info = WorkerInfo(worker_id=worker_id, url=url,
                              capabilities=dict(capabilities or {}),
                              enrolled_at=now, last_heartbeat=now,
                              generation=generation)
            self._workers[worker_id] = info
        return {"worker_id": worker_id, "generation": generation,
                "ttl_s": self.ttl_s,
                "heartbeat_interval_s": round(self.ttl_s / 3.0, 3)}

    def renew(self, worker_id: str,
              status: Mapping[str, Any] | None = None) -> bool:
        """Heartbeat: extend the lease, refresh the load/warmth snapshot.

        Returns ``False`` for an unknown (or already-expired) worker --
        the HTTP layer maps that to 410 Gone so the worker re-enrolls
        instead of heartbeating into the void.
        """
        now = self._clock()
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None or now - info.last_heartbeat > self.ttl_s:
                return False
            info.last_heartbeat = now
            info.heartbeats += 1
            if status:
                depths = status.get("queue_depths")
                if isinstance(depths, (list, tuple)):
                    info.queue_depth = int(sum(depths))
                if "pending" in status:
                    info.pending = int(status["pending"])
                cache = status.get("cache")
                if isinstance(cache, Mapping):
                    info.capabilities["cache"] = dict(cache)
            return True

    def deregister(self, worker_id: str) -> bool:
        """Graceful leave (``POST /fleet/leave``): drop the lease now."""
        with self._lock:
            return self._workers.pop(worker_id, None) is not None

    def expire(self) -> list[WorkerInfo]:
        """Drop every lease older than the TTL; returns what was dropped."""
        now = self._clock()
        with self._lock:
            dead = [info for info in self._workers.values()
                    if now - info.last_heartbeat > self.ttl_s]
            for info in dead:
                del self._workers[info.worker_id]
            self.expired_total += len(dead)
        return dead

    # -------------------------------------------------------------- queries
    def live(self) -> list[WorkerInfo]:
        """Workers inside their TTL, stably ordered by id (expires first)."""
        self.expire()
        with self._lock:
            return sorted(self._workers.values(),
                          key=lambda info: info.worker_id)

    def get(self, worker_id: str) -> WorkerInfo | None:
        with self._lock:
            return self._workers.get(worker_id)

    def heartbeat_ages(self) -> list[tuple[WorkerInfo, float]]:
        """``(info, seconds_since_last_heartbeat)`` for each live worker."""
        now = self._clock()
        return [(info, max(0.0, now - info.last_heartbeat))
                for info in self.live()]

    def to_rows(self) -> list[dict[str, Any]]:
        """The ``GET /fleet/workers`` document."""
        return [info.to_row(heartbeat_age_s=age)
                for info, age in self.heartbeat_ages()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)
