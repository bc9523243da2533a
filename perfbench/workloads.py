"""The request sequences of the three workloads, generated from a seed.

Every run replays a fixed-count sequence built up front from the
``--seed`` argument: the same seed gives the same requests in the same
order, and the request count depends only on ``--seconds``, never on
how fast the host happens to be.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any

__all__ = ["SOLVE_POWER_MIX", "FULL_MIX", "CHURN_CELL",
           "CHURN_MEMORY_ENTRIES", "CHURN_WORKING_SET", "PARTS", "WINDOW",
           "Request", "solve_power_sequence", "warm_keys", "warm_sequence",
           "churn_plan", "zipf_weights", "request_count", "parts"]

#: (cell, algorithm, config, solves per cycle).  The weights put the
#: median inside ``power-luby-sim`` and the p90 inside ``power-mis`` --
#: entries whose time varies little from seed to seed -- and keep every
#: entry under about half of a cycle's time (2-vCPU host: power-mis
#: ~60 ms, sparsify on n64 ~28 ms, det-power-ruling on n128 ~25 ms with
#: rare seeds near 100 ms, the simulator entries 10-20 ms).
SOLVE_POWER_MIX: list[tuple[str, str, dict[str, Any], int]] = [
    ("regular-n128-d6", "det-power-ruling", {"k": 2}, 2),
    ("regular-n64-d4", "sparsify", {"k": 2}, 2),
    ("regular-n384-d8", "power-mis", {"k": 3}, 3),
    ("regular-n384-d8", "shattering-mis", {}, 2),
    ("regular-n384-d8", "power-luby-sim", {"k": 3, "engine": "vector"}, 5),
    ("regular-n384-d8", "power-det-ruling-sim", {"k": 3, "engine": "vector"},
     2),
]

#: The serveable request vocabulary of the warm workloads: the eight
#: ``FULL_MIX`` entries of ``benchmarks/bench_service_throughput.py``.
FULL_MIX: list[tuple[str, str, dict[str, Any]]] = [
    ("regular-n128-d6", "det-power-ruling", {"k": 2}),
    ("regular-n128-d6", "sparsify", {"k": 2}),
    ("regular-n96-d8", "det-power-ruling", {"k": 2}),
    ("er-n48", "sparsify", {"k": 2}),
    ("regular-n64-d4", "sparsify", {"k": 2}),
    ("grid-8x8", "sparsify", {"k": 2}),
    ("er-n48", "det-power-ruling", {"k": 2}),
    ("regular-n64-d4", "det-power-ruling", {"k": 2}),
]

#: The churn workload: a working set 10x the memory LRU of one cheap cell
#: whose solve time barely depends on the seed (det-power-ruling's does:
#: a few seeds in a hundred take ten times the median), so the misses of
#: one run cost what those of another do.
CHURN_CELL = ("regular-n128-d6", "power-mis", {"k": 2})
CHURN_MEMORY_ENTRIES = 16
CHURN_WORKING_SET = 10 * CHURN_MEMORY_ENTRIES
#: One request in this many is a fresh seed (a guaranteed miss).  At 1 in
#: 8 the misses fill the slowest 12.5% of requests, so the p90 sits inside
#: them rather than on the boundary between hits and misses.
CHURN_FRESH_EVERY = 8

ZIPF_S = 1.1

#: Set-ups per run.  Each set-up is followed by one part of the run's
#: sequence, so set-up is timed three times (its median is reported) and
#: the timed requests are spread over the whole run instead of following
#: two set-ups thrown away.
PARTS = 3

#: Requests per ``--seconds`` of each workload: what a 2-vCPU host
#: completes in a second while a neighbour busies its cores (unloaded,
#: about twice as many), so a run's timed parts together take at most
#: about ``--seconds`` and a run keeps to its time budget on a slow host.
REQUESTS_PER_SECOND = {
    "solve-power": 32,
    "serve-churn": 200,
    "fleet-warm": 340,
}
#: Requests per measurement window.  Each window gets its own wall time,
#: CPU and steal readings, and windows with much steal are left out of
#: the printed timings (``stats.low_steal``).  A solve-power window is one whole
#: cycle of the mix, so every window has the same composition; a fleet
#: window holds 100 requests (a few tenths of a second), and a churn
#: window a whole number of fresh blocks.
WINDOW = {
    "solve-power": sum(weight for *_, weight in SOLVE_POWER_MIX),
    "fleet-warm": 100,
    "serve-churn": 13 * CHURN_FRESH_EVERY,
}
#: Floors that keep the printed tail defined (10 samples beyond p90 for
#: solve-power, beyond p99 for the others) at any ``--seconds``.
MIN_REQUESTS = {
    "solve-power": 7 * WINDOW["solve-power"],
    "fleet-warm": 1000,
    "serve-churn": 1000,
}


@dataclass(frozen=True)
class Request:
    """One solve as sent: a registry cell, an algorithm, its config, a seed."""

    cell: str
    algorithm: str
    config: tuple[tuple[str, Any], ...]
    seed: int

    @property
    def config_dict(self) -> dict[str, Any]:
        return dict(self.config)

    def body(self) -> bytes:
        """The ``POST /solve`` body."""
        return json.dumps({"workload": self.cell, "algorithm": self.algorithm,
                           "config": self.config_dict,
                           "seed": self.seed}).encode("utf-8")


def _request(cell: str, algorithm: str, config: dict[str, Any],
             seed: int) -> Request:
    return Request(cell, algorithm, tuple(sorted(config.items())), seed)


def request_count(workload: str, seconds: int) -> int:
    """Requests in a run: ``PARTS`` parts of whole windows, at least
    ``MIN_REQUESTS``."""
    wanted = max(MIN_REQUESTS[workload],
                 REQUESTS_PER_SECOND[workload] * int(seconds))
    unit = PARTS * WINDOW[workload]
    return -(-wanted // unit) * unit


def parts(sequence: list[Any], workload: str) -> list[list[Any]]:
    """``sequence`` cut into ``PARTS`` equal runs of whole windows."""
    size = len(sequence) // PARTS
    if size * PARTS != len(sequence) or size % WINDOW[workload]:
        raise ValueError(f"{len(sequence)} requests do not split into "
                         f"{PARTS} parts of whole {workload} windows")
    return [sequence[index:index + size]
            for index in range(0, len(sequence), size)]


def zipf_weights(count: int, s: float = ZIPF_S) -> list[float]:
    raw = [1.0 / rank ** s for rank in range(1, count + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


def _zipf_draws(rng: random.Random, population: int, length: int) -> list[int]:
    """``length`` zipf draws over ranks ``0..population-1``.

    Rank ``i`` is always item ``i``: the seed picks the draws, never which
    item is hot, so every seed sends the same mix of cells (and, through
    the fleet, the same split between workers).
    """
    return rng.choices(range(population), weights=zipf_weights(population),
                       k=length)


def solve_power_sequence(seed: int, seconds: int) -> list[Request]:
    """Whole cycles of the weighted mix, each shuffled, each solve with a
    fresh seed.

    Every window (one cycle) has the same composition, so neither the
    seed nor the choice of windows moves the median or the tail.
    """
    rng = random.Random(f"solve-power:{seed}")
    cycles = request_count("solve-power", seconds) // WINDOW["solve-power"]
    entries: list[int] = []
    for _ in range(cycles):
        cycle = [index for index, (*_, weight) in enumerate(SOLVE_POWER_MIX)
                 for _ in range(weight)]
        rng.shuffle(cycle)
        entries += cycle
    seeds = rng.sample(range(1, 2 ** 31), len(entries))
    return [_request(*SOLVE_POWER_MIX[index][:3], solve_seed)
            for index, solve_seed in zip(entries, seeds)]


def warm_keys(seed: int) -> list[Request]:
    """The 16-key warm set: every ``FULL_MIX`` entry at two explicit seeds."""
    rng = random.Random(f"warm-keys:{seed}")
    seeds = rng.sample(range(1, 2 ** 31), 2)
    return [_request(cell, algorithm, config, key_seed)
            for key_seed in seeds for cell, algorithm, config in FULL_MIX]


def warm_sequence(seed: int, seconds: int) -> list[Request]:
    """A zipf(1.1) sequence of warm-set hits."""
    keys = warm_keys(seed)
    rng = random.Random(f"warm-sequence:{seed}")
    draws = _zipf_draws(rng, len(keys),
                        request_count("fleet-warm", seconds))
    return [keys[index] for index in draws]


def churn_plan(seed: int, seconds: int) -> tuple[list[Request], list[Request]]:
    """``(prefill, sequence)`` of the churn workload.

    The prefill computes the whole working set once.  The sequence places
    exactly one fresh seed (a miss) in every block of ``CHURN_FRESH_EVERY``
    requests; the rest are zipf re-reads of the working set.
    """
    rng = random.Random(f"churn:{seed}")
    cell, algorithm, config = CHURN_CELL
    working = rng.sample(range(1, 2 ** 30), CHURN_WORKING_SET)
    prefill = [_request(cell, algorithm, config, value) for value in working]
    count = request_count("serve-churn", seconds)
    blocks = max(1, count // CHURN_FRESH_EVERY)
    rereads = _zipf_draws(rng, CHURN_WORKING_SET,
                          blocks * (CHURN_FRESH_EVERY - 1))
    fresh = rng.sample(range(2 ** 30, 2 ** 31), blocks)
    sequence: list[Request] = []
    for block in range(blocks):
        reads = CHURN_FRESH_EVERY - 1
        chunk = [prefill[index]
                 for index in rereads[block * reads:(block + 1) * reads]]
        chunk.insert(rng.randrange(CHURN_FRESH_EVERY),
                     _request(cell, algorithm, config, fresh[block]))
        sequence.extend(chunk)
    return prefill, sequence
