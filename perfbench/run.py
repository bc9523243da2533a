#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each exists):

``solve-power``  in-process certified ``repro.solve`` calls, one caller;
``serve-churn``  ``repro serve`` with a small LRU over a budgeted sharded
                 store: zipf re-reads plus 1 in 8 fresh seeds;
``fleet-warm``   ``repro fleet coordinator`` + 2 inline workers, zipf hits
                 on 16 warm keys.

The HTTP load is a closed loop from 2 client threads with one keep-alive
connection each.  Every run replays a fixed-count sequence generated from
``--seed`` (``perfbench/workloads.py``), cut into ``PARTS`` parts: each
part follows a set-up of its own, so set-up is timed ``PARTS`` times (its
median is reported) and the timed requests are spread over the whole run.
Each part is cut into windows of consecutive requests, each with its own
wall time, CPU and host-steal readings.  Windows the hypervisor stole
much CPU from are left out (``stats.low_steal``), so a burst of steal on
a shared host does not read as a program change; every metric is
computed, as measured, from the requests of the windows kept.

``--trace 0`` prints the end-to-end metrics; the result line carries the
ones ``BENCHMARK.json`` gates (set-up time, peak RSS, response size) and
the lines above it the timings too.  ``--trace 1`` replays the
first part twice, untraced and then under ``perfbench/launch.py``'s span
recorders, and prints the per-layer metrics (``perfbench/layers.py``)
with the tracing overhead.  Every run also prints the host facts and the
CPU-steal fraction over its timed phase.  The exit code is non-zero when
any correctness check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import procfs, tracing  # noqa: E402
from perfbench.launch import SEGMENT_BYTES  # noqa: E402
from perfbench.layers import (  # noqa: E402
    PER_LAYER, RATIO_BASES, analyse, moves)
from perfbench.programs import (  # noqa: E402
    POLL_S, Program, closed_loop, get_json, wait_healthy)
from perfbench.stats import (  # noqa: E402
    low_steal, percentile, tail_percentile)
from perfbench.workloads import (  # noqa: E402
    CHURN_MEMORY_ENTRIES, SOLVE_POWER_MIX, WINDOW, churn_plan, parts,
    solve_power_sequence, warm_keys, warm_sequence)

SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")

CLIENTS = 2
REPLAY_SAMPLES = 6
WORKLOAD_NAMES = ("solve-power", "serve-churn", "fleet-warm")

CHURN_BUDGET_MB = 0.08


@dataclass
class Phase:
    """What one timed phase measured: every request, index-aligned with
    the sequence, and the readings of each window."""

    outcomes: list[Any]
    windows: list[Any]
    peak_rss_mb: float
    steal: float

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def elapsed_s(self) -> float:
        return sum(window.elapsed_s for window in self.windows)

    @property
    def completed(self) -> list[Any]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    def kept(self) -> tuple[list[Any], list[float]]:
        """The windows the metrics are read from (``stats.low_steal``) and
        the latencies (ms) of the requests they completed."""
        windows = low_steal(self.windows)
        latencies = [self.outcomes[index].latency_s * 1e3
                     for window in windows for index in window.requests
                     if self.outcomes[index].ok]
        return windows, latencies

    def throughput(self) -> float:
        """Completed requests per second over the kept windows."""
        windows, latencies = self.kept()
        return len(latencies) / sum(window.elapsed_s for window in windows)

    @classmethod
    def join(cls, phases: list["Phase"]) -> "Phase":
        """The parts of one run as a single phase, indices rebased."""
        outcomes: list[Any] = []
        windows: list[Any] = []
        for phase in phases:
            offset = len(outcomes)
            outcomes += [dataclasses.replace(outcome,
                                             index=outcome.index + offset)
                         for outcome in phase.outcomes]
            windows += [dataclasses.replace(window, requests=range(
                window.requests.start + offset, window.requests.stop + offset))
                for window in phase.windows]
        elapsed = sum(phase.elapsed_s for phase in phases)
        return cls(outcomes=outcomes, windows=windows,
                   peak_rss_mb=max(phase.peak_rss_mb for phase in phases),
                   steal=sum(phase.steal * phase.elapsed_s
                             for phase in phases) / elapsed)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# ------------------------------------------------------------- program side
class Deployment:
    """The program processes of one set-up and the port clients talk to."""

    def __init__(self, ctx: "Context", *, traced: bool) -> None:
        self.ctx = ctx
        self.traced = traced
        self.programs: list[Any] = []
        self.port = 0
        self.store: str | None = None
        self.trace_dir = ctx.fresh_dir("trace") if traced else None
        self.results_dir = ctx.fresh_dir("results")

    def spawn(self, repro_args: list[str]):
        argv = [sys.executable, LAUNCH]
        if self.traced:
            argv += ["--trace-dir", self.trace_dir]
        argv += ["--", *repro_args]
        env = dict(os.environ, PYTHONPATH=SRC,
                   REPRO_RESULTS_DIR=self.results_dir)
        program = Program(argv, cwd=ROOT, env=env,
                          log_path=self.ctx.fresh_path("program", ".log"))
        self.programs.append(program)
        return program

    def boot(self, repro_args: list[str]) -> int:
        """Spawn, wait for the port file and a healthy ``/healthz``."""
        port_file = self.ctx.fresh_path("port", ".txt")
        program = self.spawn([*repro_args, "--port", "0",
                              "--port-file", port_file])
        port = program.wait_port(port_file)
        wait_healthy(port, program)
        return port

    @property
    def sessions(self) -> list[int]:
        return [program.pid for program in self.programs]

    def stop(self) -> None:
        # Fleet workers leave through the coordinator: stop it last.
        for program in reversed(self.programs):
            program.stop()
        self.programs = []


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    workdir: str
    _counter: int = 0

    def fresh_path(self, stem: str, suffix: str = "") -> str:
        self._counter += 1
        return os.path.join(self.workdir, f"{stem}-{self._counter}{suffix}")

    def fresh_dir(self, stem: str) -> str:
        path = self.fresh_path(stem)
        os.makedirs(path)
        return path


def fill(port: int, requests: list[Any]) -> None:
    """Compute ``requests`` once through the program (closed loop)."""
    outcomes = closed_loop(port, [request.body() for request in requests],
                           clients=CLIENTS)
    bad = [outcome for outcome in outcomes if not outcome.ok]
    if bad:
        raise RuntimeError(f"warm fill failed: HTTP {bad[0].status} "
                           f"{bad[0].payload[:200]!r}")


def start_serve_churn(ctx: Context, *, traced: bool) -> Deployment:
    deployment = Deployment(ctx, traced=traced)
    deployment.store = ctx.fresh_dir("store")
    try:
        deployment.port = deployment.boot(
            ["serve", "--cache-path", deployment.store,
             "--memory-entries", str(CHURN_MEMORY_ENTRIES),
             "--cache-budget-mb", str(CHURN_BUDGET_MB)])
        prefill, _ = churn_plan(ctx.seed, ctx.seconds)
        fill(deployment.port, prefill)
    except BaseException:
        deployment.stop()
        raise
    return deployment


def start_fleet_warm(ctx: Context, *, traced: bool) -> Deployment:
    deployment = Deployment(ctx, traced=traced)
    try:
        deployment.port = deployment.boot(["fleet", "coordinator"])
        coordinator = f"http://127.0.0.1:{deployment.port}"
        # Workers start only once the coordinator answers, so their first
        # enrollment succeeds without the enroll retry sleep.
        port_files = [ctx.fresh_path("port", ".txt") for _ in range(2)]
        workers = [deployment.spawn(
            ["fleet", "worker", "--coordinator", coordinator,
             "--worker-id", f"w{index}", "--inline-workers", "--shards", "1",
             "--no-persist", "--port", "0", "--port-file", port_file])
            for index, port_file in enumerate(port_files)]
        for worker, port_file in zip(workers, port_files):
            worker.wait_port(port_file)
        deadline = time.monotonic() + 60
        while True:
            _, body = get_json(deployment.port, "/fleet/workers")
            if len(body.get("workers", [])) >= len(workers):
                break
            if time.monotonic() > deadline:
                raise TimeoutError("fleet workers never enrolled")
            time.sleep(POLL_S)
        fill(deployment.port, warm_keys(ctx.seed))
    except BaseException:
        deployment.stop()
        raise
    return deployment


def timed_phase(deployment: Deployment, requests: list[Any], *,
                traced: bool) -> Phase:
    bodies = [request.body() for request in requests]
    sessions = deployment.sessions
    size = WINDOW[deployment.ctx.workload]
    clock = procfs.WindowClock(
        lambda: procfs.cpu_seconds(procfs.session_pids(sessions)))
    starts = iter(range(0, len(bodies), size))

    def close_window() -> None:
        first = next(starts)
        clock.close(range(first, min(len(bodies), first + size)))

    outcomes = closed_loop(deployment.port, bodies, clients=CLIENTS,
                           traced=traced, window=size, on_window=close_window)
    return Phase(outcomes=outcomes, windows=clock.windows,
                 peak_rss_mb=procfs.peak_rss_mb(
                     procfs.session_pids(sessions)),
                 steal=clock.steal())


# ------------------------------------------------------------------- checks
def _rows(phase: Phase) -> list[dict[str, Any]]:
    rows = []
    for outcome in phase.completed:
        try:
            rows.append(json.loads(outcome.payload))
        except ValueError:
            rows.append({})
    return rows


def check_all_hits(phase: Phase) -> Check:
    statuses = [row.get("status") for row in _rows(phase)]
    misses = [status for status in statuses if status != "hit"]
    return Check("every response is a hit", not misses and bool(statuses),
                 f"{len(misses)} of {len(statuses)} not hits "
                 f"({sorted(set(map(str, misses)))})" if misses else
                 f"{len(statuses)} hits")


def check_replays(ctx: Context, phase: Phase) -> Check:
    """A seeded sample of served reports equals a direct ``repro.replay``."""
    from repro.api import REGISTRY, report_from_json
    from repro.scenarios.registry import DEFAULT_REGISTRY

    rows = _rows(phase)
    rng = random.Random(f"replay:{ctx.workload}:{ctx.seed}")
    sample = rng.sample(range(len(rows)), min(REPLAY_SAMPLES, len(rows)))
    graphs: dict[str, Any] = {}
    mismatches = []
    for index in sample:
        row = rows[index]
        try:
            served = report_from_json(row["report"])
            cell = row["cell"]
            if cell not in graphs:
                graphs[cell] = DEFAULT_REGISTRY.build_cell(cell, seed=0)
            replayed = REGISTRY.replay(graphs[cell], served.provenance)
            same = (replayed.output == served.output
                    and replayed.rounds == served.rounds
                    and replayed.certificate is not None
                    and replayed.certificate.ok)
        except (KeyError, TypeError, ValueError) as error:
            same = False
            row = {"key": f"{type(error).__name__}: {error}"}
        if not same:
            mismatches.append(row.get("key"))
    return Check(f"{len(sample)} sampled reports equal repro.replay",
                 bool(sample) and not mismatches,
                 f"mismatched: {mismatches}" if mismatches else "")


_METRIC_LINE = re.compile(r'^(\w+)\{([^}]*)\}\s+([-0-9.e+]+)$')


def store_counters(port: int) -> dict[str, float]:
    """Sharded-store event counters and disk bytes from ``GET /metrics``."""
    _, text = get_json(port, "/metrics")
    counters: dict[str, float] = {"disk_bytes": 0.0}
    for line in text.splitlines():
        match = _METRIC_LINE.match(line.strip())
        if match is None:
            continue
        name, labels, value = match.groups()
        if name == "repro_cache_store_events_total":
            event = labels.split('"')[1]
            counters[event] = float(value)
        elif name == "repro_cache_shard_bytes" and 'kind="disk"' in labels:
            counters["disk_bytes"] += float(value)
    return counters


def directory_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def churn_checks(deployment: Deployment, before: dict[str, float],
                 after: dict[str, float]) -> list[Check]:
    from repro.service.shardstore import DEFAULT_SHARDS

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    limit = (int(CHURN_BUDGET_MB * 1024 * 1024)
             + DEFAULT_SHARDS * SEGMENT_BYTES)
    on_disk = directory_bytes(deployment.store)
    return [
        Check("no wrong-key reads", after.get("wrong_key_reads", 0) == 0,
              f"{after.get('wrong_key_reads', 0):.0f}"),
        Check("LRU evictions during the timed phase",
              delta("evictions_lru") > 0, f"{delta('evictions_lru'):.0f}"),
        Check("segment compactions during the timed phase",
              delta("compacted_segments") > 0,
              f"{delta('compacted_segments'):.0f}"),
        Check("disk use within budget + one segment per shard",
              on_disk <= limit, f"{on_disk} of {limit} bytes"),
    ]


def fleet_counters(port: int) -> dict[str, float]:
    _, stats = get_json(port, "/stats")
    return {name: float(value)
            for name, value in stats.get("counters", {}).items()}


# ---------------------------------------------------------------- workloads
@dataclass
class Workload:
    start: Callable[..., Deployment]
    sequence: Callable[[int, int], list[Any]]
    checks: Callable[[Context, Phase], list[Check]]


WORKLOADS = {
    "serve-churn": Workload(
        start_serve_churn, lambda seed, seconds: churn_plan(seed, seconds)[1],
        lambda ctx, phase: [check_replays(ctx, phase)]),
    "fleet-warm": Workload(
        start_fleet_warm, warm_sequence,
        lambda ctx, phase: [check_all_hits(phase), check_replays(ctx, phase)]),
}


def run_http(ctx: Context, trace: bool) -> dict[str, Any]:
    """End-to-end or traced run of one HTTP workload."""
    workload = WORKLOADS[ctx.workload]
    sequence = parts(workload.sequence(ctx.seed, ctx.seconds), ctx.workload)
    result: dict[str, Any] = {"checks": [], "setup_s": []}

    def measured(requests: list[Any], traced: bool) -> tuple[Phase, dict]:
        """Set up a fresh program, replay ``requests``, stop it."""
        started = time.perf_counter()
        deployment = workload.start(ctx, traced=traced)
        if not traced:
            # setup_s is the untraced program's: tracing slows set-up too.
            result["setup_s"].append(time.perf_counter() - started)
        try:
            counters_before = _program_counters(ctx, deployment)
            phase = timed_phase(deployment, requests, traced=traced)
            counters_after = _program_counters(ctx, deployment)
            if ctx.workload == "serve-churn":
                result["checks"] += churn_checks(
                    deployment, counters_before, counters_after)
        finally:
            deployment.stop()
        if traced:
            result["trace_dir"] = deployment.trace_dir
        return phase, _deltas(counters_before, counters_after)

    if not trace:
        result["phase"] = Phase.join([measured(requests, False)[0]
                                      for requests in sequence])
        result["checks"] += workload.checks(ctx, result["phase"])
        return result

    untraced, _ = measured(sequence[0], False)
    phase, counters = measured(sequence[0], True)
    result["checks"] += (workload.checks(ctx, untraced)
                         + workload.checks(ctx, phase))
    layer_metrics, budget = analyse(tracing.load_spans(result["trace_dir"]),
                                    client_spans(phase), counters=counters)
    layer_metrics["trace.overhead_frac"] = overhead(untraced, phase)
    result.update(phase=phase, untraced=untraced, per_layer=layer_metrics,
                  budget=budget)
    return result


def _program_counters(ctx: Context,
                      deployment: Deployment) -> dict[str, float]:
    if ctx.workload == "serve-churn":
        return store_counters(deployment.port)
    if ctx.workload == "fleet-warm":
        return fleet_counters(deployment.port)
    return {}


def _deltas(before: dict[str, float], after: dict[str, float],
            ) -> dict[str, float]:
    """Program counters over the phase, named like the per-layer metrics."""
    counters: dict[str, float] = {}
    for name in ("evictions_lru", "compacted_segments", "wrong_key_reads"):
        if name in after:
            counters[f"shardstore.{name}"] = after[name] - before.get(name, 0)
    if "disk_bytes" in after:
        counters["shardstore.disk_bytes"] = after["disk_bytes"]
    if "routed" in after:
        routed = after["routed"] - before.get("routed", 0)
        hits = after["affinity_hits"] - before.get("affinity_hits", 0)
        counters["fleet.affinity_hit_ratio"] = hits / routed if routed else 0
        for name in ("retried", "stolen", "failed"):
            counters[f"fleet.{name}"] = after[name] - before.get(name, 0)
    return counters


def client_spans(phase: Phase) -> list[dict[str, Any]]:
    """The root span of every completed request, as the client timed it."""
    return [{"name": "client.request", "start": outcome.start_ns,
             "end": outcome.end_ns, "id": f"client:{outcome.index}",
             "parent": None, "rid": f"r{outcome.index}", "pid": 0,
             "attrs": {}} for outcome in phase.completed]


def overhead(untraced: Phase, traced: Phase) -> float:
    """Throughput lost to tracing, as a share of the untraced throughput."""
    return 1.0 - traced.throughput() / untraced.throughput()


# -------------------------------------------------------------- solve-power
_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.api import REGISTRY
from repro.scenarios.registry import DEFAULT_REGISTRY
mix = json.loads(sys.argv[2])
graphs = {cell: DEFAULT_REGISTRY.build_cell(cell, seed=0) for cell, *_ in mix}
for cell, algorithm, config, _ in mix:
    report = REGISTRY.solve(graphs[cell], algorithm, seed=1, **config)
    if not report.certificate.ok:
        sys.exit(f"{algorithm} on {cell} did not certify")
print("ready", flush=True)
"""


def solve_power_setup() -> float:
    """Spawn-to-ready of a fresh interpreter: import ``repro``, build the
    registry graphs and complete one solve of every mix entry."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", _PROBE, SRC, json.dumps(SOLVE_POWER_MIX)],
        cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        process.stdout.close()
        process.wait(timeout=120)
    if line.strip() != b"ready" or process.returncode != 0:
        raise RuntimeError("solve-power set-up probe failed")
    return elapsed


@dataclass
class _Solved:
    index: int
    start_ns: int
    end_ns: int
    ok: bool
    size: int  # bytes of the report's JSON

    @property
    def latency_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def solve_phase(requests: list[Any], graphs: dict[str, Any],
                tracer: Any = None) -> Phase:
    """Certified ``REGISTRY.solve`` + ``report_to_json`` per request, one
    caller; with a ``tracer`` each call is adopted as its request's root."""
    from repro.api import REGISTRY, report_to_json

    def own_cpu() -> dict[int, float]:
        times = os.times()
        return {os.getpid(): times.user + times.system}

    clock = procfs.WindowClock(own_cpu)
    size = WINDOW["solve-power"]
    outcomes = []
    for first in range(0, len(requests), size):
        for index in range(first, min(len(requests), first + size)):
            request = requests[index]
            scope = (tracer.adopt((f"r{index}", f"client:{index}"))
                     if tracer is not None else contextlib.nullcontext())
            begin = time.perf_counter_ns()
            with scope:
                report = REGISTRY.solve(graphs[request.cell],
                                        request.algorithm, seed=request.seed,
                                        **request.config_dict)
                report_bytes = len(report_to_json(report).encode("utf-8"))
            ok = report.certificate is not None and report.certificate.ok
            outcomes.append(_Solved(index, begin, time.perf_counter_ns(), ok,
                                    report_bytes))
        clock.close(range(first, min(len(requests), first + size)))
    return Phase(outcomes=outcomes, windows=clock.windows,
                 peak_rss_mb=procfs.peak_rss_mb([os.getpid()]),
                 steal=clock.steal())


def run_solve_power(ctx: Context, trace: bool) -> dict[str, Any]:
    from repro.api import REGISTRY
    from repro.scenarios.registry import DEFAULT_REGISTRY

    sequence = parts(solve_power_sequence(ctx.seed, ctx.seconds),
                     "solve-power")
    graphs = {cell: DEFAULT_REGISTRY.build_cell(cell, seed=0)
              for cell, *_ in SOLVE_POWER_MIX}
    for cell, algorithm, config, _ in SOLVE_POWER_MIX:  # untimed warm-up
        REGISTRY.solve(graphs[cell], algorithm, seed=1, **config)
    result: dict[str, Any] = {"checks": []}

    def certified(phase: Phase) -> Check:
        bad = [outcome.index for outcome in phase.outcomes if not outcome.ok]
        return Check("every report certifies", not bad,
                     f"{len(bad)} uncertified" if bad else
                     f"{phase.attempted} certified")

    if not trace:
        result["setup_s"], phases = [], []
        for requests in sequence:
            result["setup_s"].append(solve_power_setup())
            phases.append(solve_phase(requests, graphs))
        result["phase"] = Phase.join(phases)
        result["checks"].append(certified(result["phase"]))
        return result

    untraced = solve_phase(sequence[0], graphs)
    trace_dir = ctx.fresh_dir("trace")
    tracer = tracing.install(trace_dir)
    phase = solve_phase(sequence[0], graphs, tracer)
    tracer.flush()
    result["checks"] += [certified(untraced), certified(phase)]
    layer_metrics, budget = analyse(tracing.load_spans(trace_dir),
                                    client_spans(phase),
                                    counters={})
    layer_metrics["trace.overhead_frac"] = overhead(untraced, phase)
    result.update(phase=phase, untraced=untraced, per_layer=layer_metrics,
                  budget=budget, setup_s=[])
    return result


# ------------------------------------------------------------------ report
#: End-to-end metrics as ``BENCHMARK.json`` lists them: the ones two sets
#: of runs of the same code reproduce on a shared 2-vCPU host.  Throughput,
#: latency and CPU per request are printed with them, not gated: with no
#: steal to show for it, the host's speed wanders by up to 1.6x over
#: minutes, and their quartile spread over ten runs reached 17-36%, past
#: the largest bound a gate may have (``CHANGES.md``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "response_bytes": "bytes",
}


def end_to_end(phase: Phase, setup_s: list[float]) -> dict[str, dict]:
    """Every end-to-end metric with its unit and sample count.

    Throughput, CPU per request and the latency percentiles are computed
    as measured over the windows ``Phase.kept`` keeps; the failure share
    is over the whole phase.
    """
    windows, latencies = phase.kept()
    done = len(latencies)
    counts = {"samples": done, "windows": len(windows),
              "windows_run": len(phase.windows)}
    metrics: dict[str, dict] = {
        "throughput_rps": {"value": phase.throughput(), "unit": "1/s",
                           **counts},
        "latency_p50_ms": {"value": percentile(latencies, 0.5),
                           "unit": "ms", **counts},
        "cpu_ms_per_req": {"value": sum(window.cpu_s for window in windows)
                           * 1e3 / done, "unit": "ms", **counts},
        "peak_rss_mb": {"value": phase.peak_rss_mb, "unit": "MB",
                        "samples": 1},
        "response_bytes": {"value": statistics.mean(
            outcome.size for outcome in phase.completed), "unit": "bytes",
            "samples": len(phase.completed)},
        "failed_frac": {"value": (phase.attempted - len(phase.completed))
                        / phase.attempted, "unit": "ratio",
                        "samples": phase.attempted},
    }
    for name, q in (("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)):
        found = tail_percentile(latencies, q)
        if found is not None:
            metrics[name] = {"value": found[0], "unit": "ms", **counts,
                             "beyond": found[1]}
    if setup_s:
        metrics["setup_s"] = {"value": statistics.median(setup_s),
                              "unit": "s", "samples": len(setup_s)}
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK_ROOT, exist_ok=True)
    ctx = Context(args.workload, args.seed, max(1, args.seconds),
                  tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    host = procfs.host_facts(SRC)
    run_steal_before = procfs.read_cpu_sample()
    try:
        if args.workload == "solve-power":
            result = run_solve_power(ctx, bool(args.trace))
        else:
            result = run_http(ctx, bool(args.trace))
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    phase: Phase = result["phase"]
    # End-to-end metrics always come from an untraced phase.
    metrics = end_to_end(result.get("untraced", phase), result["setup_s"])
    checks: list[Check] = result["checks"]
    attempted = phase.attempted
    failed = attempted - len(phase.completed)
    if "untraced" in result:
        attempted += result["untraced"].attempted
        failed += (result["untraced"].attempted
                   - len(result["untraced"].completed))
    correct = failed == 0 and all(check.ok for check in checks)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "clients": (
            1 if args.workload == "solve-power" else CLIENTS),
        "host": host,
        "steal": {"timed_phase": phase.steal,
                  "run": procfs.steal_fraction(run_steal_before,
                                               procfs.read_cpu_sample())},
        "window_steal": [round(window.steal, 4)
                         for window in result.get("untraced", phase).windows],
        "requests": attempted, "elapsed_s": phase.elapsed_s,
        "setup_samples_s": result["setup_s"],
        "metrics": metrics,
        "checks": [check.__dict__ for check in checks],
    }
    for name, row in metrics.items():
        extra = "".join(f", {key} {row[key]}" for key in
                        ("windows", "windows_run", "beyond") if key in row)
        print(f"{args.workload}  {name:<16} {row['value']:12.4f} "
              f"{row['unit']:<5} (samples {row['samples']}{extra})")
    for check in checks:
        print(f"{args.workload}  check {'ok  ' if check.ok else 'FAIL'} "
              f"{check.name}: {check.detail}")
    print(f"{args.workload}  steal {phase.steal:.3f} of host CPU over the "
          f"timed phase; host {host}")
    if args.trace:
        report["per_layer"] = result["per_layer"]
        report["budget_us_per_request"] = result["budget"]
        for name, unit in PER_LAYER.items():
            base = (f" (of {RATIO_BASES[name]})" if name in RATIO_BASES
                    else "")
            print(f"{args.workload}  layer {name:<32} "
                  f"{result['per_layer'][name]:14.4f} {unit:<5} "
                  f"-> {moves(name)}{base}")
        for name, value in result["budget"].items():
            print(f"{args.workload}  budget {name:<24} {value:12.1f} us "
                  f"per request")
        values = {name: {"value": result["per_layer"][name], "unit": unit}
                  for name, unit in PER_LAYER.items()}
    else:
        values = {name: {"value": metrics[name]["value"], "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()
                  if name in metrics}
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
