"""Coordinator -> worker RPC: JSON/HTTP with retries and circuit breaking.

The fleet speaks the same stdlib JSON/HTTP protocol as ``repro serve`` --
a worker *is* a ``ServiceServer`` -- so the transport layer is a thin
hardening wrapper around :class:`~repro.service.client.ServiceClient`:

* **Backoff retries** come from the client itself (``retries=N`` with
  exponential backoff + jitter on connection errors);
* **Circuit breaking** lives here: after ``failure_threshold`` consecutive
  transport failures a worker's circuit opens and calls fail fast with
  :class:`CircuitOpenError` for ``reset_after_s`` seconds, then a single
  half-open probe decides between closing it and re-opening -- a dead
  worker costs one timeout, not one timeout per request;
* **Idempotent replay** is free by construction: every solve is content-
  addressed by its ``solve_key``, so re-sending a request -- to the same
  worker after a reconnect, or to a different worker after a failure --
  either hits the cache or deterministically recomputes the bit-identical
  report.  The coordinator retries without bookkeeping or dedup tables.

Failure taxonomy (what the resolver ranks):

* :class:`~repro.service.client.ServiceError` -- the worker *answered*
  with an HTTP error.  4xx describes the request (it would fail on every
  worker); 5xx describes the solve; 429 describes that worker's load.
* :class:`TransportError` -- the worker could not be reached or died
  mid-request (connection refused/reset, timeout).  Says nothing about
  the request; retry elsewhere.
* :class:`CircuitOpenError` -- we did not even try; the worker's recent
  history says it is down.
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import Any, Callable, Mapping

from repro.service.client import ServiceClient, ServiceError

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "FleetError",
    "NoLiveWorkersError",
    "TransportError",
    "WorkerLink",
    "get_best_discovered_result",
]


class FleetError(RuntimeError):
    """Base class for fleet-level failures."""


class NoLiveWorkersError(FleetError):
    """The registry has no live worker to route to (or all were excluded)."""

    http_status = 503


class TransportError(FleetError):
    """A worker could not be reached (connection-level, not HTTP-level)."""

    http_status = 502

    def __init__(self, worker_id: str, message: str,
                 cause: Exception | None = None) -> None:
        super().__init__(f"worker {worker_id!r}: {message}")
        self.worker_id = worker_id
        self.cause = cause


class CircuitOpenError(TransportError):
    """The worker's circuit is open: failing fast instead of retrying it."""

    def __init__(self, worker_id: str, retry_in_s: float) -> None:
        super().__init__(worker_id,
                         f"circuit open (probe in {retry_in_s:.1f}s)")
        self.retry_in_s = retry_in_s


class CircuitBreaker:
    """A consecutive-failure circuit with a timed half-open probe.

    closed -> (``failure_threshold`` consecutive failures) -> open ->
    (``reset_after_s`` elapses) -> half-open: exactly one caller gets to
    probe; its success closes the circuit, its failure re-opens the full
    window.  Thread-safe: coordinator transport calls run on executor
    threads.
    """

    def __init__(self, *, failure_threshold: int = 3,
                 reset_after_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.reset_after_s = float(reset_after_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.reset_after_s:
                return "half-open"
            return "open"

    def acquire(self) -> None:
        """Claim permission for one call; raises when the circuit is open.

        In the half-open window only the first caller proceeds (the
        probe); concurrent callers keep failing fast until the probe's
        verdict arrives.
        """
        with self._lock:
            if self._opened_at is None:
                return
            elapsed = self._clock() - self._opened_at
            if elapsed >= self.reset_after_s and not self._probing:
                self._probing = True
                return
            raise CircuitOpenError(
                "?", max(0.0, self.reset_after_s - elapsed))

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._probing or self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._probing = False


class WorkerLink:
    """One coordinator->worker connection: client + breaker + counters."""

    def __init__(self, worker_id: str, url: str, *,
                 timeout_s: float = 60.0, retries: int = 1,
                 failure_threshold: int = 3,
                 reset_after_s: float = 5.0) -> None:
        self.worker_id = worker_id
        self.url = url
        self.client = ServiceClient(url, timeout=timeout_s, retries=retries)
        self.breaker = CircuitBreaker(failure_threshold=failure_threshold,
                                      reset_after_s=reset_after_s)
        self.calls = 0
        self.failures = 0

    def request(self, method: str, path: str,
                body: Mapping[str, Any] | None = None, *,
                headers: Mapping[str, str] | None = None) -> dict[str, Any]:
        """One RPC through the breaker.

        :class:`ServiceError` (the worker answered with an HTTP error) is
        *not* a transport failure -- an unhealthy request must not open a
        healthy worker's circuit -- except for 5xx, which counts against
        the worker without being converted: the caller still sees the
        original error for the resolver to rank.  ``headers`` (e.g. the
        propagated ``X-Repro-Trace`` context) ride through to the client.
        """
        return self._call(self.client.request, method, path, body, headers)

    def request_bytes(self, method: str, path: str,
                      body: Mapping[str, Any] | None = None, *,
                      headers: Mapping[str, str] | None = None) -> bytes:
        """Like :meth:`request` but returns the raw JSON response bytes
        (the coordinator's relay hot path; errors behave identically)."""
        return self._call(self.client.request_bytes, method, path, body,
                          headers)

    def _call(self, transport, method: str, path: str,
              body: Mapping[str, Any] | None,
              headers: Mapping[str, str] | None = None):
        try:
            self.breaker.acquire()
        except CircuitOpenError as error:
            raise CircuitOpenError(self.worker_id, error.retry_in_s) from None
        self.calls += 1
        try:
            result = transport(method, path, body, headers=headers)
        except ServiceError as error:
            if error.status >= 500:
                self.failures += 1
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
            raise
        except (OSError, http.client.HTTPException, TimeoutError) as error:
            self.failures += 1
            self.breaker.record_failure()
            raise TransportError(
                self.worker_id, f"{type(error).__name__}: {error}",
                cause=error) from error
        self.breaker.record_success()
        return result

    def close(self) -> None:
        """Close the link's keep-alive connections, whichever threads
        opened them."""
        self.client.close()


#: Failure ranking for :func:`get_best_discovered_result`, most
#: informative first.  A 4xx says the *request* is bad (identical on every
#: worker: the best possible explanation); a 5xx names the solver fault;
#: 429 describes fleet load; transport errors only say a worker was
#: unreachable; an open circuit says we did not even try.
def _failure_rank(error: Exception) -> tuple[int, int]:
    if isinstance(error, ServiceError):
        if 400 <= error.status < 429:
            return (0, error.status)
        if error.status >= 500:
            return (1, error.status)
        return (2, error.status)  # 429 and other odd statuses
    if isinstance(error, CircuitOpenError):
        return (4, 0)
    if isinstance(error, TransportError):
        return (3, 0)
    return (5, 0)


def get_best_discovered_result(discovered: Mapping[str, Any],
                               failures: Mapping[str, Exception]) -> Any:
    """Pick the best scatter outcome, or raise the most informative failure.

    The asyncio analogue of MAAS's ``get_best_discovered_result`` over a
    ``DeferredList(consumeErrors=True)`` fan-out: the coordinator collects
    a ``(discovered, failures)`` pair keyed by worker id.  Any success
    wins -- solves are content-addressed, so every discovered result is
    bit-identical and the first is as good as any.  With no success the
    *most informative* failure is raised (see :func:`_failure_rank`): a
    request-level 4xx beats a solver 5xx beats load shedding beats
    "connection refused" beats "circuit was open".
    """
    if discovered:
        return next(iter(discovered.values()))
    if failures:
        best_worker = min(failures, key=lambda wid: _failure_rank(
            failures[wid]))
        raise failures[best_worker]
    raise NoLiveWorkersError("no live workers answered and none failed -- "
                             "the fleet is empty")
