"""Command-line interface: ``python -m repro.scenarios <command>``.

Commands
--------
``list``
    Print the registered scenarios (optionally filtered) as a table.
``families``
    Print the registered graph families and cells.
``run``
    Execute a certified scenario sweep on a solve scheduler with
    resume-from-store caching.  ``--smoke`` selects the tiny CI sweep;
    ``--jobs`` sets the scheduler's shard count; ``--cache [PATH]`` gives
    the scheduler a persistent solve cache.
``compact``
    Drop superseded and corrupt rows from the on-disk stores (scenario
    results and, with ``--cache``, the solve cache).

Exit status of ``run`` is non-zero when any cell fails its certificate, so the
command doubles as a randomized end-to-end test in CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._paths import results_path
from repro.analysis.tables import format_table
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.scenarios.runner import run_batch
from repro.service.shardstore import ShardStore

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Scenario registry: list and run verified experiment sweeps.")
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered scenarios")
    _add_selection_arguments(list_parser)

    commands.add_parser("families", help="list graph families and cells")

    run_parser = commands.add_parser("run", help="run a scenario sweep")
    _add_selection_arguments(run_parser)
    run_parser.add_argument("--jobs", type=int, default=None,
                            help="solve-scheduler shards (default: min(4, "
                                 "CPUs) worker processes; 1 = inline, "
                                 "in-process)")
    run_parser.add_argument("--repeats", type=int, default=1,
                            help="independent seeded repeats per scenario")
    run_parser.add_argument("--seed", type=int, default=0, dest="base_seed",
                            help="base seed for deterministic task-seed derivation")
    run_parser.add_argument("--store", default=None,
                            help=f"result-store directory "
                                 f"(default: {results_path('scenarios')})")
    run_parser.add_argument("--no-resume", action="store_true",
                            help="re-execute cells even if present in the store")
    run_parser.add_argument("--no-verify", action="store_true",
                            help="skip certification of executed solves")
    run_parser.add_argument("--cache", nargs="?", const="__default__",
                            default=None, metavar="PATH", dest="solve_cache",
                            help="give the solve scheduler a persistent "
                                 "content-addressed cache (optional PATH; "
                                 "default: the shared solve-cache store)")

    compact_parser = commands.add_parser(
        "compact", help="drop superseded rows from the on-disk stores")
    compact_parser.add_argument("--store", default=None,
                                help=f"scenario result store to compact "
                                     f"(default: {results_path('scenarios')})")
    compact_parser.add_argument("--cache", nargs="?", const="__default__",
                                default=None, metavar="PATH",
                                dest="solve_cache",
                                help="also compact a solve-cache store "
                                     "(optional PATH; default: the shared "
                                     "solve-cache store)")
    return parser


def _add_selection_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--smoke", action="store_true",
                        help="select the tiny multi-family smoke sweep")
    parser.add_argument("--tags", default=None,
                        help="comma-separated tags a scenario must all carry")
    parser.add_argument("--family", default=None, help="graph family filter")
    parser.add_argument("--algorithm", default=None, help="algorithm filter")
    parser.add_argument("--scenario", action="append", default=None,
                        dest="names", help="exact scenario name (repeatable)")
    parser.add_argument("--limit", type=int, default=None,
                        help="cap the number of selected scenarios")


def _select(args: argparse.Namespace):
    tags = set()
    if args.smoke:
        tags.add("smoke")
    if args.tags:
        tags.update(tag.strip() for tag in args.tags.split(",") if tag.strip())
    return DEFAULT_REGISTRY.select(tags=tags or None, family=args.family,
                                   algorithm=args.algorithm, names=args.names,
                                   limit=args.limit)


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = _select(args)
    rows = [{
        "scenario": scenario.name,
        "family": DEFAULT_REGISTRY.cell(scenario.cell).family,
        "algorithm": scenario.algorithm,
        "k": scenario.k,
        "engine": scenario.engine or "-",
        "params": ",".join(f"{k}={v}" for k, v in scenario.params) or "-",
        "tags": ",".join(sorted(scenario.tags)),
    } for scenario in scenarios]
    print(format_table(rows, title=f"[scenarios] {len(rows)} registered"))
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    rows = [{
        "family": family.name,
        "seeded": family.seeded,
        "cells": len(DEFAULT_REGISTRY.cells(family=family.name)),
        "description": family.description,
    } for family in sorted(DEFAULT_REGISTRY.families(), key=lambda f: f.name)]
    print(format_table(rows, title="[scenario graph families]"))
    return 0


def _solve_cache_path(value: str | None) -> str | None:
    """Map the ``--cache [PATH]`` argument onto ``solve_cache_path``."""
    if value is None:
        return None
    if value == "__default__":
        from repro.service.cache import default_cache_path

        return default_cache_path()
    return value


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = _select(args)
    if not scenarios:
        print("[scenarios] selection matched no scenarios", file=sys.stderr)
        return 2
    try:
        summary = run_batch(
            scenarios,
            jobs=args.jobs,
            repeats=args.repeats,
            base_seed=args.base_seed,
            store_path=args.store,
            resume=not args.no_resume,
            verify=not args.no_verify,
            solve_cache_path=_solve_cache_path(args.solve_cache),
            progress=print,
        )
    except ValueError as error:  # a store root that is not a directory
        print(f"[scenarios] {error}", file=sys.stderr)
        return 2
    print(summary.format())
    return 0 if summary.ok else 1


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.service.cache import SolveCache

    cache_path = _solve_cache_path(args.solve_cache)
    try:
        store = ShardStore(args.store or results_path("scenarios"),
                           key_field="cell_key")
        cache = (None if cache_path is None
                 else SolveCache(cache_path, max_memory_entries=1))
    except ValueError as error:  # a store root that is not a directory
        print(f"[scenarios] {error}", file=sys.stderr)
        return 2
    kept, dropped = store.compact()
    print(f"[scenarios] compacted {store.root}: kept {kept}, "
          f"dropped {dropped}")
    if cache is not None:
        kept, dropped = cache.compact()
        print(f"[scenarios] compacted {cache.path}: kept {kept}, "
              f"dropped {dropped}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "families":
        return _cmd_families(args)
    if args.command == "compact":
        return _cmd_compact(args)
    return _cmd_run(args)
