"""``repro cache``: operate the persistent solve-cache tier from the CLI.

``repro cache warm --trace service.jsonl --top 32``
    Replay the hottest request shapes from a recorded traffic trace into
    a cache, so a freshly provisioned node (or a worker about to enroll
    in a fleet) starts warm instead of paying cold solves for its whole
    working set.  The trace is a ``repro serve --log-json`` stream: every
    completed request logs an ``event: "request"`` line carrying its full
    shape (workload, algorithm, config, graph_seed, seed), which makes
    the log replayable by construction.  Keys are ranked by how often
    they appear; the top K are re-solved either

    * against a running service (``--server URL``) -- the server's own
      scheduler computes and caches, so its in-process LRU warms too; or
    * directly into a local store (``--cache-path``, plus the same
      sharding/budget/TTL knobs ``repro serve`` takes) via an inline
      scheduler -- point it at the directory a fleet worker will mount.

``repro cache stats [--cache-path PATH]``
    The warmth summary, per-shard occupancy table and store event
    counters of a cache store.

``repro cache compact [--cache-path PATH]``
    Compact the persistent tier: drop dead segment bytes (superseded and
    evicted rows).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections import Counter
from typing import Any, Sequence

__all__ = ["add_cache_arguments", "main"]

#: Default replay breadth: enough to cover a working set's hot head
#: without turning warming into a full recompute of the trace.
DEFAULT_TOP = 32


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-path", default=None,
                        help="cache store path (default: the shared "
                             "solve-cache directory)")
    parser.add_argument("--cache-shards", type=int, default=None,
                        help="key shards when creating a sharded store")
    parser.add_argument("--cache-budget-mb", type=float, default=None,
                        dest="cache_budget_mb", metavar="MB",
                        help="on-disk size budget for the store")
    parser.add_argument("--cache-ttl", type=float, default=None,
                        dest="cache_ttl", metavar="SECONDS",
                        help="expire entries older than this")
    parser.add_argument("--memory-entries", type=int, default=1024,
                        help="in-process LRU capacity while warming")


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    commands = parser.add_subparsers(dest="command", required=True)

    warm = commands.add_parser(
        "warm", help="replay the hottest keys of a recorded traffic trace")
    warm.add_argument("--trace", required=True,
                      help="a 'repro serve --log-json' stream to replay")
    warm.add_argument("--top", type=int, default=DEFAULT_TOP,
                      help=f"how many of the most-requested keys to warm "
                           f"(default: {DEFAULT_TOP})")
    warm.add_argument("--server", default=None, metavar="URL",
                      help="warm a running service instead of a local "
                           "store (POSTs each shape to its /solve)")
    warm.add_argument("--no-verify", action="store_true",
                      help="skip certificate verification on replayed "
                           "solves (faster; cached rows stay uncertified)")
    _add_store_arguments(warm)

    stats = commands.add_parser(
        "stats", help="warmth summary and per-shard occupancy of a store")
    _add_store_arguments(stats)

    compact = commands.add_parser(
        "compact", help="drop dead rows/segments from the persistent tier")
    _add_store_arguments(compact)


def _build_cache(args: argparse.Namespace):
    from repro.service.server import build_cache_from_args

    try:
        return build_cache_from_args(args)
    except ValueError as error:  # a --cache-path that is not a directory
        print(f"[repro.cache] {error}", file=sys.stderr)
        raise SystemExit(2) from None


# ---------------------------------------------------------------------------
# warm
# ---------------------------------------------------------------------------

def _load_trace(path: str, top: int) -> list[tuple[str, int, dict[str, Any]]]:
    """``(key, request_count, request_shape)`` for the top-K hottest keys.

    Only ``event: "request"`` lines that carry a replayable shape count;
    corrupt lines and rows from older logs (no shape fields) are skipped,
    so a trace that rotated mid-upgrade still warms what it can.
    """
    counts: Counter[str] = Counter()
    shapes: dict[str, dict[str, Any]] = {}
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(row, dict) or row.get("event") != "request":
                continue
            key = row.get("key")
            if (not isinstance(key, str) or not key
                    or not row.get("workload") or not row.get("algorithm")):
                skipped += 1
                continue
            counts[key] += 1
            shapes[key] = {
                "workload": row["workload"],
                "algorithm": row["algorithm"],
                "config": row.get("config") or {},
                "graph_seed": int(row.get("graph_seed") or 0),
                "seed": row.get("seed"),
            }
    if skipped:
        print(f"[repro.cache] skipped {skipped} unreplayable trace lines",
              file=sys.stderr)
    return [(key, count, shapes[key])
            for key, count in counts.most_common(max(1, top))]


def _warm_via_server(url: str, hot: list[tuple[str, int, dict[str, Any]]],
                     verify: bool) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url)
    tiers: Counter[str] = Counter()
    failures = 0
    for key, count, shape in hot:
        try:
            row = client.solve(shape["workload"], shape["algorithm"],
                               config=shape["config"],
                               graph_seed=shape["graph_seed"],
                               seed=shape["seed"], verify=verify)
        except (ServiceError, OSError) as error:
            failures += 1
            print(f"[repro.cache] {key[:12]}… x{count}: FAILED ({error})")
            continue
        tier = row.get("tier") or "computed"
        tiers[tier] += 1
        print(f"[repro.cache] {key[:12]}… x{count}: {tier}")
    summary = ", ".join(f"{tier}={n}" for tier, n in sorted(tiers.items()))
    print(f"[repro.cache] warmed {sum(tiers.values())}/{len(hot)} keys "
          f"on {url} ({summary or 'nothing'})")
    return 1 if failures else 0


def _warm_locally(args: argparse.Namespace,
                  hot: list[tuple[str, int, dict[str, Any]]],
                  verify: bool) -> int:
    from repro.service.scheduler import SolveRequest, SolveScheduler

    cache = _build_cache(args)
    scheduler = SolveScheduler(cache=cache, shards=1, inline=True,
                               metrics=None, tracing=False)
    tiers: Counter[str] = Counter()
    failures = 0

    async def replay() -> None:
        nonlocal failures
        await scheduler.start()
        try:
            for key, count, shape in hot:
                request = SolveRequest.from_obj({**shape, "verify": verify})
                try:
                    response = await scheduler.submit(request)
                except Exception as error:  # noqa: BLE001 - per-key report
                    failures += 1
                    print(f"[repro.cache] {key[:12]}… x{count}: "
                          f"FAILED ({error})")
                    continue
                tier = response.tier or "computed"
                tiers[tier] += 1
                print(f"[repro.cache] {key[:12]}… x{count}: {tier}")
        finally:
            await scheduler.stop()

    asyncio.run(replay())
    summary = ", ".join(f"{tier}={n}" for tier, n in sorted(tiers.items()))
    print(f"[repro.cache] warmed {sum(tiers.values())}/{len(hot)} keys "
          f"into {cache.path or 'memory'} ({summary or 'nothing'}); "
          f"store now holds {len(cache)} entries")
    return 1 if failures else 0


def _cmd_warm(args: argparse.Namespace) -> int:
    try:
        hot = _load_trace(args.trace, args.top)
    except OSError as error:
        print(f"[repro.cache] cannot read trace {args.trace!r}: {error}",
              file=sys.stderr)
        return 2
    if not hot:
        print(f"[repro.cache] trace {args.trace!r} holds no replayable "
              f"request lines", file=sys.stderr)
        return 2
    verify = not args.no_verify
    if args.server:
        return _warm_via_server(args.server.rstrip("/"), hot, verify)
    return _warm_locally(args, hot, verify)


# ---------------------------------------------------------------------------
# stats / compact
# ---------------------------------------------------------------------------

def _cmd_stats(args: argparse.Namespace) -> int:
    cache = _build_cache(args)
    summary = cache.warmth_summary()
    print(f"[repro.cache] {cache.path or '(memory only)'}")
    print(f"  tier={summary['tier']}  "
          f"persistent-entries={summary['persistent_entries']}  "
          f"bytes={summary.get('persistent_bytes', 0)}")
    for row in cache.shard_occupancy():
        print(f"  shard {row['shard']:>2}: entries={row['entries']:>6}  "
              f"live={row['live_bytes']:>10}B  disk={row['disk_bytes']:>10}B  "
              f"segments={row['segments']}  dead-rows={row['dead_rows']}")
    counters = cache.store_counters()
    if counters:
        print("  events: " + "  ".join(
            f"{name}={value}" for name, value in sorted(counters.items())))
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    cache = _build_cache(args)
    kept, dropped = cache.compact()
    print(f"[repro.cache] compacted {cache.path}: kept {kept}, "
          f"dropped {dropped}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="operate the persistent solve-cache tier")
    add_cache_arguments(parser)
    args = parser.parse_args(argv)
    if args.command == "warm":
        return _cmd_warm(args)
    if args.command == "stats":
        return _cmd_stats(args)
    return _cmd_compact(args)


if __name__ == "__main__":  # pragma: no cover - exercised via ``repro cache``
    sys.exit(main())
