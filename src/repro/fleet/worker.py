"""The fleet worker: a ``repro serve`` node that enrolls itself.

``repro fleet worker --coordinator URL`` boots the *full* single-box
service stack -- :class:`~repro.service.scheduler.SolveScheduler` behind
:class:`~repro.service.server.ServiceServer`, with its two-tier cache,
coalescing, admission control and metrics -- and then:

* **enrolls** with the coordinator, advertising its URL and capability
  tags (round engines available, grouped ``/solve_batch`` support, shard
  count, cache warmth);
* **heartbeats** at the interval the lease prescribes (TTL/3), carrying a
  load/warmth snapshot (queue depths per shard, pending count, cache
  summary) that feeds the coordinator's stealing decisions and
  ``repro_fleet_*`` gauges;
* **re-enrolls** automatically when a heartbeat answers 410 Gone -- the
  coordinator restarted or expired the lease while this worker was
  partitioned away -- so a healed worker rejoins the routing set without
  operator intervention;
* **warm-reads from peers** (unless ``--no-peer-warm``): a local cache
  miss first asks the coordinator's ``GET /cache/<key>`` fan-out before
  recomputing, so a worker that inherits remapped fingerprints after
  membership churn serves them from the fleet's shared warmth.  The hop
  rides its own short-timeout client and circuit breaker -- a struggling
  coordinator degrades to cold solves, never to blocked lookups.

Two fleet-only routes extend the service server's route table:

``POST /solve_batch``
    ``{"workload", "algorithm", "config", "graph_seed", "verify",
    "seeds": [..]}`` -- the coordinator's grouped dispatch.  Runs the
    whole seed sweep as one batched-replica array program
    (:meth:`SolveScheduler.submit_batch`) and answers ``{"rows": [...]}``
    in the order of the deduplicated ``seeds`` list.
``GET /fleet/status``
    Enrollment state: worker id, coordinator URL, lease generation,
    heartbeat counters, current capabilities.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
from typing import Any, Mapping, Sequence
from urllib.parse import quote

from repro.service import jsontext
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import SolveRequest, SolveScheduler
from repro.service.server import (
    ServiceServer,
    add_scheduler_arguments,
    scheduler_from_args,
)
from repro.fleet.transport import CircuitBreaker

__all__ = ["FleetWorker", "add_worker_arguments", "default_worker_id",
           "serve_worker"]


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per process, stable across re-enrolls."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _engine_names() -> list[str]:
    """Canonical round-engine names this process can run."""
    try:
        from repro.congest import vector_engine  # noqa: F401 - registers
    except Exception:  # noqa: BLE001 - numpy-less builds still enroll
        pass
    from repro.congest.engine import _ENGINES

    return sorted({engine_class.name for engine_class in _ENGINES.values()})


class _WorkerServer(ServiceServer):
    """A service server whose route table adds the two fleet routes."""

    routes = {**ServiceServer.routes,
              "GET /fleet/status": "_get_fleet_status",
              "POST /solve_batch": "_post_solve_batch"}

    def __init__(self, fleet: "FleetWorker", **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.fleet = fleet

    def _get_fleet_status(self, http, _) -> dict[str, Any]:
        return self.fleet.status_row()

    def _post_solve_batch(self, http, obj: dict[str, Any]) -> bytes:
        self._adopt_trace(http, obj)
        seeds_field = obj.pop("seeds", None)
        if (not isinstance(seeds_field, list) or not seeds_field
                or not all(isinstance(seed, int) for seed in seeds_field)):
            raise ValueError(
                "solve_batch requires 'seeds': a non-empty list of ints")
        responses = self.submit(SolveRequest.from_obj(obj),
                                seeds=list(seeds_field))
        rows = ",".join(response.to_json() for response in responses)
        return jsontext.dumps({"count": len(responses),
                               "rows": jsontext.RawJSON(f"[{rows}]")}
                              ).encode("utf-8")


class FleetWorker:
    """One enrollable node: server + enrollment + heartbeat daemon."""

    def __init__(self, coordinator_url: str, *,
                 worker_id: str | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 advertise_url: str | None = None,
                 scheduler: SolveScheduler | None = None,
                 enroll_timeout_s: float = 30.0,
                 heartbeat_interval_s: float | None = None,
                 quiet: bool = True,
                 request_timeout_s: float = 600.0,
                 peer_warm_reads: bool = True) -> None:
        self.coordinator_url = coordinator_url.rstrip("/")
        self.worker_id = worker_id or default_worker_id()
        self.server = _WorkerServer(
            self, host=host, port=port, scheduler=scheduler, quiet=quiet,
            request_timeout_s=request_timeout_s)
        self._advertise_url = advertise_url
        self.enroll_timeout_s = float(enroll_timeout_s)
        #: ``None`` until enrolled; then the lease the coordinator granted.
        self.lease: dict[str, Any] | None = None
        self._heartbeat_interval_override = heartbeat_interval_s
        self.heartbeats_sent = 0
        self.re_enrolls = 0
        self._stop_event = threading.Event()
        self._beat_thread: threading.Thread | None = None
        # Short timeout + client-side backoff: a booting coordinator is
        # the common case, a dead one should fail fast.
        self._coordinator = ServiceClient(self.coordinator_url,
                                          timeout=10.0, retries=4)
        # Peer warm reads ride a *separate* client: no retries and a short
        # timeout, because the fallback (recompute locally) is always
        # available and a slow warm read is worse than a cold solve.
        self.peer_warm_reads = bool(peer_warm_reads)
        self._warm_client = ServiceClient(self.coordinator_url,
                                          timeout=5.0, retries=0)
        self._warm_breaker = CircuitBreaker()
        self.warm_fetches = 0
        self.warm_hits = 0
        if self.peer_warm_reads:
            self.server.scheduler.cache.peer_fetch = self._peer_fetch

    # -------------------------------------------------------------- identity
    @property
    def url(self) -> str:
        return self._advertise_url or self.server.url

    def capabilities(self) -> dict[str, Any]:
        return {
            "engines": _engine_names(),
            "batch": True,
            "shards": self.server.scheduler.shards,
            "inline": self.server.scheduler.inline,
            "cache": self.server.scheduler.cache.warmth_summary(),
        }

    def _status(self) -> dict[str, Any]:
        scheduler = self.server.scheduler
        return {
            "queue_depths": scheduler.queue_depths(),
            "pending": scheduler._pending,
            "cache": scheduler.cache.warmth_summary(),
        }

    # ----------------------------------------------------- peer warm reads
    def _peer_fetch(self, key: str) -> dict[str, Any] | None:
        """Ask the fleet for ``key`` via ``GET /cache/<key>`` on the
        coordinator, which scatters to every *other* worker's cache tier.

        Installed as ``SolveCache.peer_fetch``, so it runs on a local miss
        only -- outside the cache lock and (via the scheduler's executor
        hop) off the event loop.  A fleet-wide miss (404) is a clean
        ``None``; transport trouble trips this worker's own breaker and
        re-raises, which the cache counts as a peer error and treats as a
        miss -- a struggling coordinator costs one timeout, not one per
        lookup.
        """
        self._warm_breaker.acquire()
        self.warm_fetches += 1
        try:
            row = self._warm_client.request(
                "GET",
                f"/cache/{quote(key)}?exclude={quote(self.worker_id)}")
        except ServiceError as error:
            if error.status in (404, 503):
                # No peer holds the key / no live peers: a clean miss.
                self._warm_breaker.record_success()
                return None
            self._warm_breaker.record_failure()
            raise
        except OSError:
            self._warm_breaker.record_failure()
            raise
        self._warm_breaker.record_success()
        self.warm_hits += 1
        return row

    def status_row(self) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "url": self.url,
            "coordinator": self.coordinator_url,
            "enrolled": self.lease is not None,
            "lease": dict(self.lease) if self.lease else None,
            "heartbeats_sent": self.heartbeats_sent,
            "re_enrolls": self.re_enrolls,
            "warm_reads": {
                "enabled": self.peer_warm_reads,
                "fetches": self.warm_fetches,
                "hits": self.warm_hits,
                "breaker": self._warm_breaker.state,
            },
            "capabilities": self.capabilities(),
        }

    # ------------------------------------------------------------- lifecycle
    def enroll(self) -> dict[str, Any]:
        """Announce this worker; retried until ``enroll_timeout_s``."""
        deadline = time.monotonic() + self.enroll_timeout_s
        body = {"worker_id": self.worker_id, "url": self.url,
                "capabilities": self.capabilities()}
        last_error: Exception | None = None
        while True:
            try:
                self.lease = self._coordinator.request(
                    "POST", "/fleet/enroll", body)
                return self.lease
            except (ServiceError, OSError) as error:
                last_error = error
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"could not enroll with coordinator "
                        f"{self.coordinator_url}: {last_error}"
                    ) from last_error
                time.sleep(0.25)

    def _heartbeat_interval(self) -> float:
        if self._heartbeat_interval_override is not None:
            return max(0.05, float(self._heartbeat_interval_override))
        lease = self.lease or {}
        return max(0.05, float(lease.get("heartbeat_interval_s", 1.0)))

    def _heartbeat_once(self) -> None:
        try:
            self._coordinator.request(
                "POST", "/fleet/heartbeat",
                {"worker_id": self.worker_id, "status": self._status()})
            self.heartbeats_sent += 1
        except ServiceError as error:
            if error.status == 410:
                # Lease expired (partition, coordinator restart): rejoin.
                try:
                    self.enroll()
                    self.re_enrolls += 1
                except RuntimeError:
                    pass  # coordinator still gone; keep trying next beat
            # Other statuses: transient coordinator trouble, retry later.
        except OSError:
            pass  # coordinator unreachable; the lease protects routing

    def _heartbeat_loop(self) -> None:
        while not self._stop_event.wait(self._heartbeat_interval()):
            self._heartbeat_once()

    def start(self) -> None:
        """Start serving, enroll, and begin heartbeating."""
        self.server.start()
        self.enroll()
        self._beat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-fleet-heartbeat",
            daemon=True)
        self._beat_thread.start()

    def stop(self) -> None:
        """Clean shutdown: deregister from the coordinator, then stop."""
        if getattr(self, "_stopped", False):
            return
        self._stopped = True
        self._stop_event.set()
        if self._beat_thread is not None:
            self._beat_thread.join(timeout=5)
        try:
            self._coordinator.request("POST", "/fleet/leave",
                                      {"worker_id": self.worker_id})
        except (ServiceError, OSError):
            pass  # the lease will expire on its own
        self.server.stop()

    def crash(self) -> None:
        """Die *without* deregistering (chaos tests and demos).

        Stops heartbeating and serving but sends no ``/fleet/leave``: the
        coordinator discovers the death the hard way -- transport failures
        followed by lease expiry -- exactly as with a SIGKILLed process.
        """
        if getattr(self, "_stopped", False):
            return
        self._stopped = True
        self._stop_event.set()
        if self._beat_thread is not None:
            self._beat_thread.join(timeout=5)
        self.server.stop()

    def __enter__(self) -> "FleetWorker":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def run_forever(self) -> None:
        """Foreground mode for the CLI: serve until interrupted."""
        self.start()
        try:
            self._stop_event.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()


# ---------------------------------------------------------------------------
# ``repro fleet worker``
# ---------------------------------------------------------------------------

def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--coordinator", required=True,
                        help="coordinator URL, e.g. http://127.0.0.1:8750")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker identity "
                             "(default: <host>-<pid>)")
    add_scheduler_arguments(parser, port=0,
                            port_help="TCP port; 0 picks an ephemeral port "
                                      "(the default: the coordinator learns "
                                      "the URL from enrollment)")
    parser.add_argument("--advertise-url", default=None,
                        help="URL to enroll with when the bind address "
                             "is not reachable from the coordinator")
    parser.add_argument("--no-peer-warm", action="store_true",
                        help="disable coordinator-mediated warm reads "
                             "from fleet peers on local cache misses")
    parser.add_argument("--enroll-timeout", type=float, default=30.0,
                        help="seconds to keep retrying the initial enroll")


def serve_worker(args: argparse.Namespace) -> int:
    scheduler = scheduler_from_args(args, log_prefix="repro.fleet")
    if scheduler is None:
        return 2
    worker = FleetWorker(args.coordinator, worker_id=args.worker_id,
                         host=args.host, port=args.port,
                         advertise_url=args.advertise_url,
                         scheduler=scheduler,
                         enroll_timeout_s=args.enroll_timeout,
                         quiet=not args.verbose,
                         peer_warm_reads=not args.no_peer_warm)
    host, port = worker.server.address
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(str(port))
    print(f"[repro.fleet] worker {worker.worker_id!r} on "
          f"http://{host}:{port} -> coordinator {worker.coordinator_url} "
          f"(shards={scheduler.shards}, "
          f"workers={'inline' if scheduler.inline else 'process-pool'}, "
          f"cache={scheduler.cache.path or 'memory-only'}, "
          f"tracing={'off' if scheduler.trace_recorder is None else 'on'})",
          flush=True)
    worker.run_forever()
    return 0
