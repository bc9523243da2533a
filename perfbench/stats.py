"""Percentiles under one rule, and the low-steal windows of a phase.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples
lie beyond it; the count beyond is reported with it.  Percentiles use the
nearest-rank definition, so every reported value is a measured sample.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

__all__ = ["MIN_BEYOND", "STEAL_MAX", "percentile", "samples_beyond",
           "tail_percentile", "low_steal"]

#: A tail percentile needs at least this many samples above it.
MIN_BEYOND = 10
#: Windows that lost more than this share of host CPU to the hypervisor
#: are left out (``low_steal``).  On a 2-vCPU host at 100 jiffies a
#: second, one jiffy of a 0.25 s window is 2%.
STEAL_MAX = 0.10


def _rank(count: int, q: float) -> int:
    """0-based nearest-rank index of quantile ``q`` among ``count`` samples."""
    if count <= 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    # Rounding guards against 0.99 * 1000 = 989.9999999999999.
    return max(0, math.ceil(round(q * count, 9)) - 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (any order)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q``-quantile."""
    return count - 1 - _rank(count, q)


def tail_percentile(values: Sequence[float], q: float,
                    ) -> tuple[float, int] | None:
    """``(value, samples_beyond)``, or ``None`` when too few lie beyond."""
    if not values:
        return None
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        return None
    return percentile(values, q), beyond


def low_steal(windows: Sequence[Any]) -> list[Any]:
    """The windows of a phase its metrics are read from, in order.

    Each window carries the share of host CPU the hypervisor stole while
    it ran (``.steal``).  Windows above ``STEAL_MAX`` are left out, so a
    burst of steal on a shared host does not read as a program change;
    when fewer than half the windows are left, the half with the least
    steal is kept instead.  Nothing is rescaled: every metric is computed
    from the kept windows' requests as they were measured.
    """
    calm = [window for window in windows if window.steal <= STEAL_MAX]
    if 2 * len(calm) >= len(windows):
        return calm
    ranked = sorted(range(len(windows)), key=lambda index: windows[index].steal)
    keep = set(ranked[:(len(windows) + 1) // 2])
    return [window for index, window in enumerate(windows) if index in keep]
