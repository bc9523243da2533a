"""Start one ``repro`` CLI process, optionally traced.

    python3 perfbench/launch.py [--trace-dir DIR] -- <repro arguments>

runs ``repro.cli.main(<repro arguments>)`` -- the entry point behind
``python -m repro`` -- after setting the segment size of the sharded
persistent cache tier to ``SEGMENT_BYTES`` (no ``repro serve`` flag
exposes it) and, with ``--trace-dir``, installing the benchmark's span
recorders (``perfbench.tracing``); every process of a traced program
writes its spans under ``DIR`` when it exits.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Segment size of the sharded tier.  Its per-shard budget is never below
#: one segment, so with the 4 MiB default a store needs tens of MiB of
#: rows before eviction or compaction runs; 8 KiB segments make both
#: happen at serve-churn's working set of a few hundred KiB.  Programs
#: started with ``--no-persist`` never build the tier.
SEGMENT_BYTES = 8 * 1024


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launch.py")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

    from repro.service.cache import SolveCache

    SolveCache.__init__.__kwdefaults__["max_segment_bytes"] = SEGMENT_BYTES
    if args.trace_dir is not None:
        from perfbench.tracing import install

        install(args.trace_dir)

    from repro.cli import main as repro_main

    return repro_main(repro_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
