"""Instrumentation layer: the observer / trace API of the CONGEST runtime.

The legacy scheduler hard-coded its statistics collection inline in the round
loop.  The layered runtime instead exposes a small set of hooks
(:class:`RoundObserver`) that the engines call at well-defined points:

``on_run_start(context)``
    once, before ``initialize``; ``context`` carries the network, topology
    snapshot, transport and engine name;
``on_round_start(round_number, active_count)``
    at the top of every executed round;
``on_message(round_number, sender, receiver, payload, bits, edge_index)``
    per delivered message -- only called when the observer sets
    ``wants_messages = True`` (per-message hooks are the one instrumentation
    point with a hot-path cost, so observers must opt in);
``on_round_end(round_number, snapshot)``
    at the bottom of every round, with a :class:`RoundSnapshot` of per-round
    aggregates (message/bit counts, peak edge load, newly halted nodes);
``on_run_end(result)``
    once, after ``finalize``, with the final
    :class:`~repro.congest.simulator.SimulationResult`.

Raw counters (total messages / bits, per-edge congestion) live in the
transport layer, which has to track edge loads anyway to enforce bandwidth;
observers *derive* views from them.  Three built-ins cover the needs of the
existing experiments: :class:`StatsObserver` (the ``SimulationResult``
statistics plus a per-round history), :class:`CongestionProfileObserver`
(per-round congestion profiles for the Figure-1 style analyses) and
:class:`HaltingTimelineObserver` (when nodes halt, i.e. how long the
halting tail of a run is).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.network import CongestNetwork
    from repro.congest.simulator import SimulationResult
    from repro.congest.topology import TopologySnapshot
    from repro.congest.transport import Transport

Node = Hashable

__all__ = [
    "CongestionProfileObserver",
    "HaltingTimelineObserver",
    "RoundObserver",
    "RoundSnapshot",
    "RunContext",
    "StatsObserver",
    "ambient_observation",
    "ambient_observers",
]


@dataclass(frozen=True)
class RunContext:
    """Handed to observers at ``on_run_start``."""

    network: "CongestNetwork"
    topology: "TopologySnapshot"
    transport: "Transport"
    engine: str


@dataclass(frozen=True)
class RoundSnapshot:
    """Per-round aggregates handed to ``on_round_end``."""

    round_number: int
    active_at_start: int
    messages: int
    bits: int
    max_edge_bits: int
    busiest_edge: int | None
    newly_halted: tuple[Node, ...]

    @property
    def active_after(self) -> int:
        return self.active_at_start - len(self.newly_halted)


class RoundObserver:
    """Base class: every hook is a no-op; subclasses override what they need."""

    #: Observers that need the per-message hook must set this to True; the
    #: engines skip the per-message dispatch entirely otherwise.
    wants_messages = False

    #: Observers that only use the run-level hooks (``on_run_start`` /
    #: ``on_run_end``) may set this to True to declare themselves safe for
    #: vectorized execution: the simulator then skips per-slot transport
    #: profiling for them and the vector engine keeps its batched path
    #: instead of falling back to the scalar loop.  Round- and
    #: message-level hooks are NOT called by the vector engine, so any
    #: observer that overrides them must leave this False (the default).
    vector_compatible = False

    def on_run_start(self, context: RunContext) -> None:
        """Called once before ``initialize``."""

    def on_round_start(self, round_number: int, active_count: int) -> None:
        """Called at the top of every executed round."""

    def on_message(self, round_number: int, sender: Node, receiver: Node,
                   payload: Any, bits: int, edge_index: int) -> None:
        """Called per message iff ``wants_messages`` is True."""

    def on_round_end(self, round_number: int, snapshot: RoundSnapshot) -> None:
        """Called at the bottom of every executed round."""

    def on_run_end(self, result: "SimulationResult") -> None:
        """Called once after ``finalize`` with the final result."""


# ---------------------------------------------------------------------------
# Ambient observers: instrumentation without threading observers through
# every adapter signature.
# ---------------------------------------------------------------------------

_AMBIENT = threading.local()


def ambient_observers() -> "tuple[RoundObserver, ...]":
    """The observers ambiently installed on this thread (usually empty).

    :class:`~repro.congest.simulator.Simulator` appends these to its own
    ``observers=`` list on every ``run()``, so callers *above* the adapter
    layer (the service layer's live solve streaming is the motivating one)
    can watch a run without the adapter's cooperation.  Ambient observers
    participate in engine selection exactly like explicit ones -- in
    particular any that is not ``vector_compatible`` routes a ``vector``
    run through its scalar fallback.
    """
    return tuple(getattr(_AMBIENT, "observers", ()) or ())


@contextmanager
def ambient_observation(*observers: RoundObserver):
    """Install observers on this thread for the duration of the block.

    Nests: inner blocks extend (not replace) the outer set.  The thread
    locality is the isolation contract -- a streamed solve on one worker
    thread never observes a neighbouring worker's rounds.
    """
    previous = ambient_observers()
    _AMBIENT.observers = previous + tuple(observers)
    try:
        yield
    finally:
        _AMBIENT.observers = previous


class StatsObserver(RoundObserver):
    """The ``SimulationResult`` statistics, plus a per-round history.

    ``history[i]`` is the :class:`RoundSnapshot` of round ``i + 1``;
    ``result`` is the final :class:`SimulationResult` (available after the
    run ends).
    """

    def __init__(self) -> None:
        self.history: list[RoundSnapshot] = []
        self.result: "SimulationResult | None" = None

    def on_round_end(self, round_number: int, snapshot: RoundSnapshot) -> None:
        self.history.append(snapshot)

    def on_run_end(self, result: "SimulationResult") -> None:
        self.result = result

    @property
    def rounds(self) -> int:
        return self.history[-1].round_number if self.history else 0


class CongestionProfileObserver(RoundObserver):
    """Per-round congestion rows for the Figure-1 style analyses.

    ``profile`` is a list of dict rows with the round number, message and bit
    counts, the peak per-edge load and the busiest edge (as a label pair).
    """

    def __init__(self) -> None:
        self.profile: list[dict[str, Any]] = []
        self._topology: "TopologySnapshot | None" = None

    def on_run_start(self, context: RunContext) -> None:
        self._topology = context.topology

    def on_round_end(self, round_number: int, snapshot: RoundSnapshot) -> None:
        busiest = None
        if snapshot.busiest_edge is not None and self._topology is not None:
            busiest = self._topology.edge_label(snapshot.busiest_edge)
        self.profile.append({
            "round": round_number,
            "messages": snapshot.messages,
            "bits": snapshot.bits,
            "max_edge_bits": snapshot.max_edge_bits,
            "busiest_edge": busiest,
        })

    def peak_edge_bits(self) -> int:
        """The worst per-edge per-round load seen over the whole run."""
        return max((row["max_edge_bits"] for row in self.profile), default=0)


class HaltingTimelineObserver(RoundObserver):
    """Records when nodes halt and how the active set shrinks.

    ``halt_round[node]`` is the round in which ``node`` halted (nodes still
    running at the end are absent); ``timeline`` is a list of
    ``(round, newly_halted, active_after)`` triples.
    """

    def __init__(self) -> None:
        self.halt_round: dict[Node, int] = {}
        self.timeline: list[tuple[int, int, int]] = []

    def on_round_end(self, round_number: int, snapshot: RoundSnapshot) -> None:
        for node in snapshot.newly_halted:
            self.halt_round[node] = round_number
        self.timeline.append(
            (round_number, len(snapshot.newly_halted), snapshot.active_after))

    def rounds_with_active_below(self, fraction: float, n: int) -> int:
        """How many rounds ran with fewer than ``fraction * n`` active nodes."""
        threshold = fraction * n
        return sum(1 for _, _, active in self.timeline if active < threshold)
