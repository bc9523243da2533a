"""Per-layer metrics from the traced run, and what each should move.

Each request's spans form one tree rooted at the client's span.  A span's
self time is its duration minus the part of it its children cover; the
client span's own self time is ``unattributed_us`` -- time no wrapped
call accounts for (socket transfer, HTTP parsing, queue hand-offs).  The
self times of a request's spans therefore add up to what the client
observed; ``trace.sum_error_us`` reports the largest amount by which any
request misses that (overlapping or escaping child spans would show there).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Mapping

from perfbench.workloads import SOLVE_POWER_MIX

__all__ = ["PER_LAYER", "RATIO_BASES", "LAYER_MOVES", "moves", "analyse",
           "self_times"]

_ALGORITHMS = [algorithm for _, algorithm, _, _ in SOLVE_POWER_MIX]
_SIMULATED = [name for name in _ALGORITHMS if name.endswith("-sim")]

#: Every per-layer metric, in print order, with its unit.
PER_LAYER: dict[str, str] = {
    "api.plan_us": "us",
    "api.certify_ms": "ms",
    "api.certify_share": "ratio",
    "api.serialize_us": "us",
    "api.report_bytes": "bytes",
    "graphs.build_ms": "ms",
    "graphs.builds_per_miss": "count",
    **{f"algo.run_ms.{name}": "ms" for name in _ALGORITHMS},
    **{f"algo.rounds.{name}": "count" for name in _ALGORITHMS},
    "congest.rounds_per_s": "1/s",
    "congest.engine_fallbacks": "count",
    "server.http_us": "us",
    "scheduler.submit_self_us": "us",
    "scheduler.queue_depth": "count",
    "scheduler.hits": "count",
    "scheduler.computed": "count",
    "scheduler.coalesced": "count",
    "scheduler.rejected": "count",
    "cache.lookup_us.memory": "us",
    "cache.lookup_us.persistent": "us",
    "cache.put_us": "us",
    "cache.hit_ratio.memory": "ratio",
    "cache.hit_ratio.persistent": "ratio",
    "shardstore.get_us": "us",
    "shardstore.put_us": "us",
    "shardstore.evictions_lru": "count",
    "shardstore.compacted_segments": "count",
    "shardstore.wrong_key_reads": "count",
    "shardstore.disk_bytes": "bytes",
    "fleet.worker_call_us": "us",
    "fleet.relay_us": "us",
    "fleet.affinity_hit_ratio": "ratio",
    "fleet.retried": "count",
    "fleet.stolen": "count",
    "fleet.failed": "count",
    "unattributed_us": "us",
    "trace.requests": "count",
    "trace.sum_error_us": "us",
    "trace.overhead_frac": "ratio",
}

#: What each ratio is a share of.
RATIO_BASES: dict[str, str] = {
    "api.certify_share": "time in SolverRegistry.solve",
    "cache.hit_ratio.memory": "SolveCache.lookup calls",
    "cache.hit_ratio.persistent": "SolveCache.lookup calls",
    "fleet.affinity_hit_ratio": "requests the coordinator routed",
    "trace.overhead_frac": "untraced throughput",
}

#: Layer metric prefix -> the end-to-end metrics and workloads it should
#: move.  Expected no-change pairs: algorithm, engine and
#: certification changes leave fleet-warm alone; service and fleet
#: changes leave solve-power alone.
LAYER_MOVES: dict[str, str] = {
    "api.plan_us": "throughput_rps, cpu_ms_per_req on fleet-warm",
    "api.certify": "throughput_rps on solve-power; cpu_ms_per_req on "
                   "serve-churn",
    "api.serialize_us": "throughput_rps on solve-power; cpu_ms_per_req on "
                        "serve-churn, fleet-warm",
    "api.report_bytes": "throughput_rps on solve-power; cpu_ms_per_req on "
                        "serve-churn",
    "graphs.": "throughput_rps, cpu_ms_per_req on serve-churn",
    "algo.": "throughput_rps, cpu_ms_per_req on solve-power",
    "congest.": "throughput_rps on solve-power; fallbacks must stay 0",
    "server.http_us": "throughput_rps on fleet-warm, serve-churn",
    "scheduler.": "throughput_rps on serve-churn, fleet-warm",
    "cache.": "throughput_rps on fleet-warm; throughput_rps, "
              "cpu_ms_per_req on serve-churn",
    "shardstore.": "cpu_ms_per_req, throughput_rps on serve-churn",
    "fleet.": "throughput_rps, cpu_ms_per_req on fleet-warm, nothing else",
    "unattributed_us": "the rest of each request's time",
    "trace.": "the tracing itself: coverage, consistency, overhead",
}


def moves(name: str) -> str:
    """What the per-layer metric ``name`` should move (``LAYER_MOVES``)."""
    for prefix, target in LAYER_MOVES.items():
        if name.startswith(prefix):
            return target
    raise KeyError(name)


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans: Iterable[Mapping[str, Any]]) -> dict[str, int]:
    """``span id -> self time (ns)`` for one request's spans.

    Each span counts only inside its parent's (already clipped) interval:
    work a server does after the client has its reply -- metrics, log
    lines, a descheduled handler thread -- is not on the request's path.
    Self times then partition the root's duration exactly, unless sibling
    spans overlap.
    """
    spans = list(spans)
    by_id = {span["id"]: span for span in spans}
    children: dict[str, list[Mapping[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["parent"] in by_id:
            children[span["parent"]].append(span)
    clipped: dict[str, tuple[int, int]] = {}
    pending = [(span, (span["start"], span["end"])) for span in spans
               if span["parent"] not in by_id]
    while pending:
        span, (low, high) = pending.pop()
        interval = (max(span["start"], low), min(span["end"], high))
        if interval[0] > interval[1]:
            interval = (interval[0], interval[0])
        clipped[span["id"]] = interval
        pending.extend((child, interval) for child in children[span["id"]])
    return {span_id: (high - low) - _union_length(
                [clipped[child["id"]] for child in children[span_id]])
            for span_id, (low, high) in clipped.items()}


def _attach_pool_jobs(spans: list[dict[str, Any]]) -> None:
    """Give each pool child's ``worker.solve`` the ``scheduler.submit``
    span that waited for it (same job identity, enclosing interval)."""
    submits: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["name"] == "scheduler.submit" and span["rid"] is not None:
            submits[span["attrs"].get("job")].append(span)
    for span in spans:
        if span["name"] != "worker.solve" or span["parent"] is not None:
            continue
        owners = [owner for owner in submits.get(span["attrs"].get("job"), [])
                  if owner["start"] <= span["start"]
                  and span["end"] <= owner["end"]]
        if owners:
            owner = max(owners, key=lambda candidate: candidate["start"])
            span["parent"], span["rid"] = owner["id"], owner["rid"]


def _resolve_requests(spans: list[dict[str, Any]]) -> None:
    """Inherit each span's request id from its nearest tagged ancestor."""
    by_id = {span["id"]: span for span in spans}

    def resolve(span: dict[str, Any], depth: int = 0) -> str | None:
        if span["rid"] is None and depth < 64:
            parent = by_id.get(span["parent"])
            if parent is not None:
                span["rid"] = resolve(parent, depth + 1)
        return span["rid"]

    for span in spans:
        resolve(span)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def analyse(program_spans: list[dict[str, Any]],
            client_spans: list[dict[str, Any]], *,
            counters: Mapping[str, float]) -> tuple[dict[str, float],
                                                    dict[str, float]]:
    """``(per_layer_metrics, budget)`` of the traced timed phase.

    ``counters`` holds the program-side counter deltas over the phase
    (shardstore and fleet counters); ``budget`` is the mean self time per
    request of every span name, plus ``unattributed_us``.
    """
    spans = [dict(span) for span in program_spans]
    _attach_pool_jobs(spans)
    _resolve_requests(spans)
    requests: dict[str, list[dict[str, Any]]] = {
        span["rid"]: [span] for span in client_spans}
    for span in spans:
        if span["rid"] in requests:
            requests[span["rid"]].append(span)

    named: dict[str, list[dict[str, Any]]] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    unattributed: list[float] = []
    sum_error = 0.0
    plan_per_request: list[float] = []
    http_per_request: list[float] = []
    relay_per_request: list[float] = []
    for request_spans in requests.values():
        root = request_spans[0]
        selfs = self_times(request_spans)
        unattributed.append(selfs[root["id"]] / 1e3)
        sum_error = max(sum_error, abs(
            (root["end"] - root["start"]) - sum(selfs.values())) / 1e3)
        by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
        for span in request_spans[1:]:
            named[span["name"]].append(span)
            by_name[span["name"]].append(span)
            self_by_name[span["name"]] += selfs[span["id"]] / 1e3
        plan_per_request.append(sum(
            span["end"] - span["start"]
            for span in by_name["api.plan"] + by_name["api.key"]) / 1e3)
        client_ns = root["end"] - root["start"]
        if by_name["server.submit"]:
            http_per_request.append((client_ns - sum(
                span["end"] - span["start"]
                for span in by_name["server.submit"])) / 1e3)
        if by_name["fleet.handle"]:
            relay_per_request.append(sum(
                span["end"] - span["start"]
                for span in by_name["fleet.handle"])
                / 1e3 - sum(span["end"] - span["start"]
                            for span in by_name["fleet.worker_call"]) / 1e3)

    def mean_duration(name: str, scale: float) -> float:
        return _mean([(span["end"] - span["start"]) / scale
                      for span in named[name]])

    metrics: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    metrics["api.plan_us"] = _mean(plan_per_request)
    metrics["api.certify_ms"] = mean_duration("api.certify", 1e6)
    solve_ns = sum(span["end"] - span["start"] for span in named["api.solve"])
    certify_ns = sum(span["end"] - span["start"]
                     for span in named["api.certify"])
    metrics["api.certify_share"] = certify_ns / solve_ns if solve_ns else 0.0
    metrics["api.serialize_us"] = mean_duration("api.serialize", 1e3)
    metrics["api.report_bytes"] = _mean([span["attrs"].get("bytes", 0)
                                         for span in named["api.serialize"]])
    metrics["graphs.build_ms"] = mean_duration("graphs.build", 1e6)
    statuses = [span["attrs"].get("status", "rejected")
                for span in named["scheduler.submit"]]
    misses = statuses.count("computed")
    metrics["graphs.builds_per_miss"] = (len(named["graphs.build"]) / misses
                                         if misses else 0.0)
    runs_by_algorithm: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in named["algo.run"]:
        runs_by_algorithm[span["attrs"].get("algorithm")].append(span)
    for name in _ALGORITHMS:
        runs = runs_by_algorithm[name]
        metrics[f"algo.run_ms.{name}"] = _mean(
            [(span["end"] - span["start"]) / 1e6 for span in runs])
        metrics[f"algo.rounds.{name}"] = _mean(
            [span["attrs"].get("rounds", 0) for span in runs])
    sim_runs = [span for name in _SIMULATED
                for span in runs_by_algorithm[name]]
    sim_seconds = sum(span["end"] - span["start"] for span in sim_runs) / 1e9
    metrics["congest.rounds_per_s"] = (
        sum(span["attrs"].get("rounds", 0) for span in sim_runs) / sim_seconds
        if sim_seconds else 0.0)
    metrics["congest.engine_fallbacks"] = float(sum(
        1 for span in named["algo.run"] if span["attrs"].get("fallback")))
    metrics["server.http_us"] = _mean(http_per_request)
    if named["scheduler.submit"]:
        metrics["scheduler.submit_self_us"] = (
            self_by_name["scheduler.submit"] / len(named["scheduler.submit"]))
    metrics["scheduler.queue_depth"] = _mean(
        [span["attrs"].get("queue_depth", 0)
         for span in named["scheduler.submit"]])
    for status in ("hits", "computed", "coalesced", "rejected"):
        metrics[f"scheduler.{status}"] = float(
            statuses.count("hit" if status == "hits" else status))
    lookups = named["cache.lookup"]
    for tier in ("memory", "persistent"):
        tiered = [span for span in lookups
                  if span["attrs"].get("tier") == tier]
        metrics[f"cache.lookup_us.{tier}"] = _mean(
            [(span["end"] - span["start"]) / 1e3 for span in tiered])
        metrics[f"cache.hit_ratio.{tier}"] = (len(tiered) / len(lookups)
                                              if lookups else 0.0)
    metrics["cache.put_us"] = mean_duration("cache.put", 1e3)
    metrics["shardstore.get_us"] = mean_duration("shardstore.get", 1e3)
    metrics["shardstore.put_us"] = mean_duration("shardstore.put", 1e3)
    metrics["fleet.worker_call_us"] = mean_duration("fleet.worker_call", 1e3)
    metrics["fleet.relay_us"] = _mean(relay_per_request)
    for name, value in counters.items():
        if name in metrics:
            metrics[name] = float(value)
    metrics["unattributed_us"] = _mean(unattributed)
    metrics["trace.requests"] = float(len(requests))
    metrics["trace.sum_error_us"] = sum_error

    count = max(1, len(requests))
    budget = {name: total / count for name, total in sorted(
        self_by_name.items())}
    budget["unattributed_us"] = metrics["unattributed_us"]
    budget["client_us"] = _mean([(spans_[0]["end"] - spans_[0]["start"]) / 1e3
                                 for spans_ in requests.values()])
    return metrics, budget
