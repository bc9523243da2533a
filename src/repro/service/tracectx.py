"""W3C-traceparent-style trace context + ring-buffered span recording.

The fleet's distributed tracing is stdlib-only and deliberately small:

* :class:`TraceContext` is the propagated identity -- a 128-bit trace id,
  a 64-bit span id, and the parent span id -- carried between hops as the
  ``X-Repro-Trace`` HTTP header in W3C ``traceparent`` shape::

      00-<32 hex trace_id>-<16 hex span_id>-01

  The receiver parses the header, derives a :meth:`TraceContext.child`
  (fresh span id, ``parent_id`` = the sender's span id), and records its
  own work under that child.  Malformed headers parse to ``None`` and the
  hop simply goes untraced -- tracing never fails a request.

* :class:`Span` is one recorded unit of work: name, owning service,
  wall-clock start, duration, ``ok``/``error`` status and free-form
  attributes.  Spans serialize to plain dict rows so they can cross
  process boundaries (the worker pool returns them in-band with the
  report) and HTTP boundaries (coordinator ``GET /trace/<id>`` assembly).

* :class:`SpanRecorder` is the per-process store: a thread-safe, LRU
  ring of per-trace span lists with hard caps on both the number of
  retained traces and the spans per trace, so a long-lived worker's
  memory stays bounded no matter the traffic.  Overflow increments
  ``dropped_total`` instead of growing; :meth:`SpanRecorder.export_jsonl`
  dumps everything as JSON lines for offline tooling.

The module imports only the standard library, so the fleet coordinator
can trace without loading the solver.  The run observer that records a
solve's ``engine.run`` phase subclasses the engine's ``RoundObserver`` and
therefore lives beside its one user, as
:class:`repro.service.scheduler.TraceRunObserver`; the name still resolves
here, importing the scheduler on first access.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "Span",
    "SpanRecorder",
    "TraceContext",
    "TRACE_HEADER",
]

#: HTTP header carrying the trace context between fleet hops.
TRACE_HEADER = "X-Repro-Trace"

_VERSION = "00"
_FLAGS = "01"  # always sampled: recording is cheap and ring-bounded


def _hex(n_bytes: int) -> str:
    return os.urandom(n_bytes).hex()


def _is_hex(value: str, length: int) -> bool:
    if len(value) != length:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class TraceContext:
    """One hop's identity inside a trace (immutable; derive with child)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context (new trace id, no parent)."""
        return cls(trace_id=_hex(16), span_id=_hex(8))

    def child(self) -> "TraceContext":
        """Derive the next hop: same trace, fresh span, parented here."""
        return TraceContext(trace_id=self.trace_id, span_id=_hex(8),
                            parent_id=self.span_id)

    def to_header(self) -> str:
        """Render the ``X-Repro-Trace`` header value."""
        return f"{_VERSION}-{self.trace_id}-{self.span_id}-{_FLAGS}"

    @classmethod
    def from_header(cls, value: str | None) -> "TraceContext | None":
        """Parse a header value; ``None`` for anything malformed.

        A bad header must never fail the request -- the caller treats
        ``None`` as "this hop is untraced" and carries on.
        """
        if not value or not isinstance(value, str):
            return None
        parts = value.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, _flags = parts
        if not _is_hex(version, 2) or version == "ff":
            return None
        if not _is_hex(trace_id, 32) or not _is_hex(span_id, 16):
            return None
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id=trace_id.lower(), span_id=span_id.lower())


@dataclass
class Span:
    """One recorded unit of work inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    service: str
    start_s: float
    duration_s: float
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_row(self) -> dict[str, Any]:
        """Plain-dict shape used across process and HTTP boundaries."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "service": self.service,
            "start_s": round(self.start_s, 6),
            "duration_ms": round(self.duration_s * 1000.0, 3),
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """Thread-safe LRU ring of per-trace span rows with hard caps."""

    def __init__(self, *, max_traces: int = 256,
                 max_spans_per_trace: int = 512) -> None:
        self.max_traces = max(1, int(max_traces))
        self.max_spans_per_trace = max(1, int(max_spans_per_trace))
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[dict[str, Any]]]" = OrderedDict()
        self.recorded_total = 0
        self.dropped_total = 0
        self.evicted_traces_total = 0

    def record(self, span: Span) -> None:
        self.record_row(span.to_row())

    def record_row(self, row: Mapping[str, Any]) -> None:
        """Store one span row (any mapping with a ``trace_id`` key)."""
        trace_id = row.get("trace_id")
        if not trace_id:
            with self._lock:
                self.dropped_total += 1
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = []
                self._traces[trace_id] = spans
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
                    self.evicted_traces_total += 1
            else:
                self._traces.move_to_end(trace_id)
            if len(spans) >= self.max_spans_per_trace:
                self.dropped_total += 1
                return
            spans.append(dict(row))
            self.recorded_total += 1

    def record_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.record_row(row)

    def spans(self, trace_id: str) -> list[dict[str, Any]]:
        """All retained rows for one trace (copies; empty when unknown)."""
        with self._lock:
            spans = self._traces.get(trace_id)
            return [dict(row) for row in spans] if spans else []

    def trace_ids(self) -> list[str]:
        """Retained trace ids, least-recently-touched first."""
        with self._lock:
            return list(self._traces)

    def export_jsonl(self, trace_id: str | None = None) -> str:
        """Span rows as JSON lines (one trace, or every retained trace)."""
        with self._lock:
            if trace_id is not None:
                rows = list(self._traces.get(trace_id, ()))
            else:
                rows = [row for spans in self._traces.values()
                        for row in spans]
        return "\n".join(json.dumps(row, sort_keys=True) for row in rows)

    def stats_row(self) -> dict[str, int]:
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": sum(len(s) for s in self._traces.values()),
                "recorded_total": self.recorded_total,
                "dropped_total": self.dropped_total,
                "evicted_traces_total": self.evicted_traces_total,
            }


def __getattr__(name: str) -> Any:
    if name == "TraceRunObserver":
        from repro.service.scheduler import TraceRunObserver

        return TraceRunObserver
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
