"""``repro fleet <coordinator|worker|status>``.

The operational surface of :mod:`repro.fleet`:

``repro fleet coordinator [--port 8750 --batch-window 0.02 ...]``
    Run the front door: registry, affinity routing, scatter, grouping.
``repro fleet worker --coordinator http://HOST:PORT [...]``
    Boot a full solve server and enroll it with the coordinator.
``repro fleet status --coordinator http://HOST:PORT``
    One-shot snapshot of the fleet: workers, dispatch counters, affinity
    hit rate (pretty-printed ``GET /stats``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

__all__ = ["main"]


def _status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.coordinator, timeout=args.timeout)
    try:
        stats = client.request("GET", "/stats")
    except (ServiceError, OSError) as error:
        print(f"repro fleet status: coordinator {args.coordinator} "
              f"unreachable: {error}")
        return 1
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    counters = stats.get("counters", {})
    workers = stats.get("workers", [])
    print(f"coordinator {args.coordinator}  "
          f"uptime {stats.get('uptime_s', 0.0):.1f}s  "
          f"workers {len(workers)}  "
          f"affinity-hit-rate {stats.get('affinity_hit_rate', 0.0):.2%}")
    print("counters: " + "  ".join(
        f"{name}={counters[name]}" for name in sorted(counters)))
    failures = stats.get("failures_by_class") or {}
    if failures:
        print("failures: " + "  ".join(
            f"{name}={failures[name]}" for name in sorted(failures)))
    tracing = stats.get("tracing")
    if tracing is not None:
        print(f"tracing: traces={tracing.get('traces', 0)}  "
              f"spans={tracing.get('spans', 0)}  "
              f"recorded={tracing.get('recorded_total', 0)}  "
              f"dropped={tracing.get('dropped_total', 0)}  "
              f"evicted={tracing.get('evicted_traces_total', 0)}")
    for row in workers:
        cache = (row.get("capabilities") or {}).get("cache") or {}
        warmth = row.get("cache_warmth") or {}
        shard_vector = warmth.get("shards") or []
        warm = (f"warm={warmth.get('persistent_entries', 0)}rows"
                f"/{(warmth.get('persistent_bytes') or 0) // 1024}KiB"
                f" shards={'/'.join(str(n) for n in shard_vector)}"
                if shard_vector else
                f"warm={warmth.get('persistent_entries', 0)}rows")
        print(f"  worker {row['worker_id']}  {row['url']}  "
              f"gen={row.get('generation')}  "
              f"beats={row.get('heartbeats')}  "
              f"age={row.get('heartbeat_age_s', 0.0):.1f}s  "
              f"queue={row.get('queue_depth', 0)}  "
              f"cache-hit-rate={cache.get('hit_rate', 0.0):.2f}  "
              f"{warm}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and run one role.

    Only the named role's module is imported: the worker's pulls in the
    whole solver, which the coordinator and ``status`` never need.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    role = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Distributed solve fleet: coordinator, workers, "
                    "status.")
    commands = parser.add_subparsers(dest="command", required=True)

    coordinator = commands.add_parser(
        "coordinator", help="run the fleet front door")
    if role == "coordinator":
        from repro.fleet.coordinator import add_coordinator_arguments

        add_coordinator_arguments(coordinator)

    worker = commands.add_parser(
        "worker", help="run one solve worker and enroll it")
    if role == "worker":
        from repro.fleet.worker import add_worker_arguments

        add_worker_arguments(worker)

    status = commands.add_parser(
        "status", help="print a snapshot of the fleet")
    status.add_argument("--coordinator", required=True,
                        help="coordinator URL")
    status.add_argument("--timeout", type=float, default=10.0)
    status.add_argument("--json", action="store_true",
                        help="print the raw /stats document")

    args = parser.parse_args(argv)
    if args.command == "coordinator":
        from repro.fleet.coordinator import serve_coordinator

        return serve_coordinator(args)
    if args.command == "worker":
        from repro.fleet.worker import serve_worker

        return serve_worker(args)
    return _status(args)


if __name__ == "__main__":
    raise SystemExit(main())
