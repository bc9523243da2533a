"""Distributed tracing primitives and fleet telemetry plumbing.

Unit layers (no sockets): the ``X-Repro-Trace`` header round-trip and
its malformed-input tolerance, child-context derivation, the
:class:`SpanRecorder` LRU ring (caps, eviction counters, JSONL export),
cross-hop span-tree assembly and rendering, Prometheus federation
(worker labelling, family regrouping, scrape-failure comments),
per-family histogram bucket overrides, JSON-log size rotation, and the
``vector_compatible`` observer contract that keeps tracing off the
vector engine's fallback path.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.congest import CongestNetwork, Simulator, VectorEngine
from repro.congest.engine import Runtime
from repro.congest.observers import RoundObserver, StatsObserver
from repro.congest.transport import Transport
from repro.graphs import random_regular_graph
from repro.fleet.tracing import (
    assemble_trace,
    federate_prometheus,
    render_span_tree,
)
from repro.service.jsonlog import (
    DEFAULT_LOG_BACKUPS,
    DEFAULT_LOG_MAX_BYTES,
    configure_json_logging,
    log_event,
    service_logger,
)
from repro.service.metrics import (
    FLEET_RELAY_LATENCY_BUCKETS,
    SOLVE_LATENCY_BUCKETS,
    ServiceMetrics,
)
from repro.service.tracectx import (
    Span,
    SpanRecorder,
    TraceContext,
    TraceRunObserver,
)


# ---------------------------------------------------------------------------
# Trace context: header round-trip and derivation
# ---------------------------------------------------------------------------

class TestTraceContext:
    def test_new_mints_well_formed_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        assert ctx.parent_id is None
        int(ctx.trace_id, 16), int(ctx.span_id, 16)  # both hex

    def test_header_round_trip(self):
        ctx = TraceContext.new()
        header = ctx.to_header()
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        parsed = TraceContext.from_header(header)
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    def test_child_keeps_trace_and_parents_to_sender(self):
        root = TraceContext.new()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        grandchild = child.child()
        assert grandchild.parent_id == child.span_id

    @pytest.mark.parametrize("header", [
        None, "", "nonsense", "00-abc-def-01",
        "00-" + "g" * 32 + "-" + "a" * 16 + "-01",      # non-hex trace
        "00-" + "a" * 32 + "-" + "a" * 16,              # 3 parts
        "ff-" + "a" * 32 + "-" + "a" * 16 + "-01",      # forbidden version
        "00-" + "0" * 32 + "-" + "a" * 16 + "-01",      # all-zero trace
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",      # all-zero span
        "00-" + "a" * 31 + "-" + "a" * 16 + "-01",      # short trace
    ])
    def test_malformed_headers_parse_to_none(self, header):
        assert TraceContext.from_header(header) is None

    def test_header_parsing_lowercases(self):
        header = "00-" + "A" * 32 + "-" + "B" * 16 + "-01"
        parsed = TraceContext.from_header(header)
        assert parsed.trace_id == "a" * 32
        assert parsed.span_id == "b" * 16


# ---------------------------------------------------------------------------
# Span recorder: ring semantics
# ---------------------------------------------------------------------------

def _span(trace_id: str, name: str = "x") -> Span:
    ctx = TraceContext.new()
    return Span(trace_id=trace_id, span_id=ctx.span_id, parent_id=None,
                name=name, service="test", start_s=1.0, duration_s=0.5)


class TestSpanRecorder:
    def test_record_and_fetch(self):
        recorder = SpanRecorder()
        recorder.record(_span("t1", "alpha"))
        recorder.record(_span("t1", "beta"))
        rows = recorder.spans("t1")
        assert [row["name"] for row in rows] == ["alpha", "beta"]
        assert rows[0]["duration_ms"] == pytest.approx(500.0)
        assert recorder.spans("unknown") == []

    def test_trace_cap_evicts_least_recently_touched(self):
        recorder = SpanRecorder(max_traces=2)
        recorder.record(_span("t1"))
        recorder.record(_span("t2"))
        recorder.record(_span("t1"))  # touch t1 so t2 is the LRU victim
        recorder.record(_span("t3"))
        assert recorder.spans("t2") == []
        assert len(recorder.spans("t1")) == 2
        assert len(recorder.spans("t3")) == 1
        assert recorder.evicted_traces_total == 1

    def test_span_cap_drops_overflow(self):
        recorder = SpanRecorder(max_spans_per_trace=3)
        for _ in range(5):
            recorder.record(_span("t1"))
        assert len(recorder.spans("t1")) == 3
        assert recorder.dropped_total == 2
        assert recorder.recorded_total == 3

    def test_rows_without_trace_id_are_dropped(self):
        recorder = SpanRecorder()
        recorder.record_row({"name": "orphan"})
        assert recorder.dropped_total == 1
        assert recorder.recorded_total == 0

    def test_export_jsonl(self):
        recorder = SpanRecorder()
        recorder.record(_span("t1", "alpha"))
        recorder.record(_span("t2", "beta"))
        lines = recorder.export_jsonl().splitlines()
        assert len(lines) == 2
        assert {json.loads(line)["name"] for line in lines} == \
            {"alpha", "beta"}
        only = recorder.export_jsonl("t2")
        assert json.loads(only)["name"] == "beta"

    def test_stats_row(self):
        recorder = SpanRecorder()
        recorder.record(_span("t1"))
        stats = recorder.stats_row()
        assert stats["traces"] == 1
        assert stats["spans"] == 1
        assert stats["recorded_total"] == 1
        assert stats["dropped_total"] == 0
        assert stats["evicted_traces_total"] == 0


# ---------------------------------------------------------------------------
# Cross-hop assembly + rendering
# ---------------------------------------------------------------------------

def _row(trace: str, span: str, parent: str | None, name: str,
         start: float, **attrs) -> dict:
    return {"trace_id": trace, "span_id": span, "parent_id": parent,
            "name": name, "service": "svc", "start_s": start,
            "duration_ms": 1.0, "status": "ok", "attrs": attrs}


class TestAssembleTrace:
    def test_builds_tree_sorted_by_start(self):
        rows = [
            _row("t", "bb", "aa", "late-child", 3.0),
            _row("t", "aa", None, "root", 1.0),
            _row("t", "cc", "aa", "early-child", 2.0),
        ]
        tree = assemble_trace(rows)
        assert tree["trace_id"] == "t"
        assert tree["span_count"] == 3
        (root,) = tree["roots"]
        assert root["name"] == "root"
        assert [child["name"] for child in root["children"]] == \
            ["early-child", "late-child"]

    def test_orphaned_spans_surface_as_roots(self):
        rows = [
            _row("t", "aa", None, "root", 1.0),
            _row("t", "bb", "dead-parent", "orphan", 2.0),
        ]
        tree = assemble_trace(rows)
        assert [root["name"] for root in tree["roots"]] == \
            ["root", "orphan"]

    def test_duplicate_span_ids_first_writer_wins(self):
        rows = [
            _row("t", "aa", None, "first", 1.0),
            _row("t", "aa", None, "second", 2.0),
        ]
        tree = assemble_trace(rows)
        assert tree["span_count"] == 1
        assert tree["roots"][0]["name"] == "first"

    def test_render_shows_every_span_with_connectors(self):
        rows = [
            _row("t", "aa", None, "fleet.solve", 1.0),
            _row("t", "bb", "aa", "fleet.attempt", 2.0, worker="w0"),
            _row("t", "cc", "bb", "worker.solve", 3.0),
        ]
        text = render_span_tree(assemble_trace(rows))
        lines = text.splitlines()
        assert lines[0].startswith("trace t (3 spans")
        assert "fleet.solve" in lines[1]
        assert "└─ fleet.attempt" in lines[2]
        assert "worker=w0" in lines[2]
        assert "└─ worker.solve" in lines[3]


# ---------------------------------------------------------------------------
# Prometheus federation
# ---------------------------------------------------------------------------

PAGE_A = """\
# HELP repro_http_requests_total HTTP requests served.
# TYPE repro_http_requests_total counter
repro_http_requests_total{method="GET"} 5
# HELP repro_solve_latency_seconds Solve latency.
# TYPE repro_solve_latency_seconds histogram
repro_solve_latency_seconds_bucket{le="1.0"} 2
repro_solve_latency_seconds_count 2
"""

PAGE_B = """\
# HELP repro_http_requests_total HTTP requests served.
# TYPE repro_http_requests_total counter
repro_http_requests_total{method="GET"} 9
# HELP repro_uptime_seconds Uptime.
# TYPE repro_uptime_seconds gauge
repro_uptime_seconds 33.0
"""


class TestFederatePrometheus:
    def test_labels_every_sample_with_its_worker(self):
        page = federate_prometheus({"w0": PAGE_A, "w1": PAGE_B})
        assert 'repro_http_requests_total{worker="w0",method="GET"} 5' \
            in page
        assert 'repro_http_requests_total{worker="w1",method="GET"} 9' \
            in page
        assert 'repro_uptime_seconds{worker="w1"} 33.0' in page

    def test_families_are_contiguous_with_one_header(self):
        page = federate_prometheus({"w0": PAGE_A, "w1": PAGE_B})
        lines = page.splitlines()
        assert lines.count(
            "# HELP repro_http_requests_total HTTP requests served.") == 1
        # Both workers' samples sit in one block directly after the
        # family header -- the exposition format forbids interleaving.
        start = lines.index("# TYPE repro_http_requests_total counter")
        block = lines[start + 1:start + 3]
        assert all(line.startswith("repro_http_requests_total{")
                   for line in block)

    def test_histogram_series_stay_in_their_family(self):
        page = federate_prometheus({"w0": PAGE_A})
        lines = page.splitlines()
        bucket = next(index for index, line in enumerate(lines)
                      if line.startswith("repro_solve_latency_seconds_"))
        assert lines[bucket - 1] == \
            "# TYPE repro_solve_latency_seconds histogram"

    def test_scrape_failures_become_comments(self):
        page = federate_prometheus({"w0": PAGE_A},
                                   errors={"w1": "connection refused"})
        assert "# federation: scrape of worker 'w1' failed: " \
               "connection refused" in page


# ---------------------------------------------------------------------------
# Histogram buckets per family
# ---------------------------------------------------------------------------

class TestHistogramBuckets:
    def test_default_solve_buckets_unchanged(self):
        metrics = ServiceMetrics()
        assert metrics.solve_latency.buckets == \
            tuple(SOLVE_LATENCY_BUCKETS)

    def test_fleet_relay_buckets_are_coarser_than_solve(self):
        assert FLEET_RELAY_LATENCY_BUCKETS[-1] > SOLVE_LATENCY_BUCKETS[-1]
        assert len(FLEET_RELAY_LATENCY_BUCKETS) >= 10


# ---------------------------------------------------------------------------
# JSON log rotation (satellite: --log-json-max-bytes)
# ---------------------------------------------------------------------------

class TestLogRotation:
    def test_defaults_documented(self):
        assert DEFAULT_LOG_MAX_BYTES == 64 * 1024 * 1024
        assert DEFAULT_LOG_BACKUPS == 3

    def test_tiny_max_bytes_rotates(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        handler = configure_json_logging(str(path), max_bytes=512,
                                         backup_count=2)
        try:
            for index in range(200):
                log_event("solve", index=index)
            handler.flush()
            rotated = sorted(p.name for p in tmp_path.iterdir())
            assert "svc.jsonl" in rotated
            assert "svc.jsonl.1" in rotated
            assert len(rotated) <= 3  # live file + backup_count backups
            assert path.stat().st_size <= 512 + 256  # one line of slack
        finally:
            handler.close()
            service_logger().removeHandler(handler)

    def test_zero_max_bytes_never_rotates(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        handler = configure_json_logging(str(path), max_bytes=0,
                                         backup_count=2)
        try:
            for index in range(50):
                log_event("solve", index=index)
            handler.flush()
            assert [p.name for p in tmp_path.iterdir()] == ["svc.jsonl"]
        finally:
            handler.close()
            service_logger().removeHandler(handler)

    def test_lines_stay_json(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        handler = configure_json_logging(str(path), max_bytes=0)
        try:
            log_event("solve", status="hit")
            handler.flush()
            lines = path.read_text().splitlines()
            assert lines
            row = json.loads(lines[-1])
            assert row["event"] == "solve"
            assert row["status"] == "hit"
        finally:
            handler.close()
            service_logger().removeHandler(handler)


# ---------------------------------------------------------------------------
# vector_compatible: tracing must not force the scalar fallback
# ---------------------------------------------------------------------------

def _network() -> CongestNetwork:
    return CongestNetwork(random_regular_graph(20, 4, seed=1), id_seed=1)


def _runtime(observers=()):
    from repro.mis.luby import LubyMISNode

    simulator = Simulator(_network(), LubyMISNode, seed=1,
                          observers=observers)
    for instance in simulator._instances:
        instance.initialize()
    transport = Transport(simulator.topology,
                          bandwidth_bits=simulator.network.bandwidth_bits,
                          profile_slots=False)
    return Runtime(topology=simulator.topology, transport=transport,
                   instances=simulator._instances,
                   observers=tuple(simulator.observers))


class TestVectorCompatibleObservers:
    def test_round_observer_defaults_to_incompatible(self):
        assert RoundObserver.vector_compatible is False
        assert StatsObserver.vector_compatible is False

    def test_trace_run_observer_is_compatible(self):
        assert TraceRunObserver.vector_compatible is True

    def test_traced_run_stays_on_the_vector_path(self):
        from repro.mis.luby import LubyMISNode

        sink: list[dict] = []
        observer = TraceRunObserver(TraceContext.new(), sink)
        traced = Simulator(_network(), LubyMISNode, seed=7,
                           engine="vector", observers=(observer,)).run(500)
        assert traced.engine_used == "vector", \
            "tracing forced the vector engine onto its scalar fallback"
        # The run-level observer still saw the run.
        assert [row["name"] for row in sink] == ["engine.run"]
        assert sink[0]["attrs"]["rounds"] == traced.rounds
        assert sink[0]["attrs"]["engine_used"] == "vector"
        # And the traced run is bit-identical to the untraced one.
        bare = Simulator(_network(), LubyMISNode, seed=7,
                         engine="vector").run(500)
        assert traced.outputs == bare.outputs
        assert traced.total_messages == bare.total_messages

    def test_traced_replica_batch_records_one_span_per_replica(self):
        import networkx as nx

        from repro.congest.batch import simulate_replicas
        from repro.congest.observers import ambient_observation
        from repro.mis.luby import LubyMISNode

        sink: list[dict] = []
        graph = nx.random_regular_graph(4, 30, seed=1)
        with ambient_observation(TraceRunObserver(TraceContext.new(), sink)):
            results = simulate_replicas(graph, LubyMISNode, [3, 4, 5])
        assert [r.engine_used for r in results] == ["vector"] * 3
        assert [row["name"] for row in sink] == ["engine.run"] * 3
        assert [row["attrs"]["rounds"] for row in sink] \
            == [r.rounds for r in results]
        assert len({row["span_id"] for row in sink}) == 3

    def test_select_program_tolerates_compatible_observers(self):
        compatible = _runtime(
            observers=(TraceRunObserver(TraceContext.new(), []),))
        assert VectorEngine.select_kernel(compatible) is not None
        incompatible = _runtime(observers=(StatsObserver(),))
        assert VectorEngine.select_kernel(incompatible) is None
