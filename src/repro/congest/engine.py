"""Scheduling layer: pluggable round engines for the CONGEST runtime.

A :class:`RoundEngine` drives the per-node state machines through synchronous
rounds on top of the topology and transport layers.  The scalar engine is
:class:`SyncEngine`, the reference scheduler: every round it scans all
nodes, exactly like the legacy monolithic loop (minus its per-message
networkx and ``str()`` work), so its semantics are bit-for-bit those of the
pre-refactor simulator.  ``"legacy"``, ``"active-set"`` and ``"active"``
are other names for it: requests, stored provenance and registry scenarios
carry them, and they must keep resolving.  The vectorized array engine
registers itself as ``"vector"`` (:mod:`repro.congest.vector_engine`).

Writing a new engine means subclassing :class:`RoundEngine` and implementing
:meth:`RoundEngine.run` over a :class:`Runtime` bundle.  The contract an
engine must honour (it is what the algorithms in this repository rely on):

1. each executed round first collects all outboxes (``send``), then delivers
   all inboxes (``receive``);
2. ``send``/``receive`` are only called on non-halted nodes, and a node that
   halts during the send phase does not receive that round;
3. messages addressed to nodes that halt are still counted (the transport
   accounts for them) but never processed;
4. the engine stops as soon as every node has halted, or after
   ``max_rounds`` rounds, and returns the number of executed rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.congest.message import Broadcast
from repro.congest.node import NodeAlgorithm
from repro.congest.observers import RoundObserver, RoundSnapshot
from repro.congest.topology import TopologySnapshot
from repro.congest.transport import EMPTY_INBOX, Transport

__all__ = ["RoundEngine", "Runtime", "SyncEngine", "register_engine",
           "resolve_engine"]


@dataclass
class Runtime:
    """Everything an engine needs to run one simulation."""

    topology: TopologySnapshot
    transport: Transport
    instances: Sequence[NodeAlgorithm]  # aligned with topology indices
    observers: tuple[RoundObserver, ...] = ()


class RoundEngine:
    """Protocol for round schedulers; see the module docstring for the contract."""

    name = "abstract"

    def run(self, runtime: Runtime, max_rounds: int) -> int:
        """Drive the instances until all halt or ``max_rounds``; return rounds."""
        raise NotImplementedError


class SyncEngine(RoundEngine):
    """Reference engine: scans every node every round (legacy semantics)."""

    name = "sync"

    def run(self, runtime: Runtime, max_rounds: int) -> int:
        instances = runtime.instances
        transport = runtime.transport
        labels = runtime.topology.labels
        neighbor_rows = runtime.topology.neighbor_labels
        observers = tuple(runtime.observers)
        msg_observers = tuple(o for o in observers if o.wants_messages)
        deposit_outbox = transport.deposit_outbox
        deposit_broadcast = transport.deposit_broadcast
        inbox_table = transport.inbox_table
        empty = EMPTY_INBOX
        n = len(instances)
        rounds = 0
        for round_number in range(1, max_rounds + 1):
            live = [index for index in range(n) if not instances[index].halted]
            if not live:
                break
            rounds = round_number
            for observer in observers:
                observer.on_round_start(round_number, len(live))

            # Send phase.  A node can only halt itself, so no entry of
            # ``live`` is halted before its own ``send`` runs.
            for index in live:
                outbox = instances[index].send(round_number)
                if not outbox:
                    continue
                # Fast path only for a pristine lazy Broadcast over *the*
                # bound neighbor row (identity check): any mutation clears
                # _neighbors, and a Broadcast over a subset or foreign tuple
                # takes the per-entry path, so it can never be misdelivered.
                if (type(outbox) is Broadcast
                        and outbox._neighbors is neighbor_rows[index]):
                    payload = outbox.payload
                    if payload is not Ellipsis:
                        deposit_broadcast(index, payload, round_number,
                                          msg_observers)
                else:
                    deposit_outbox(index, outbox, round_number, msg_observers)

            for index in live:
                instance = instances[index]
                if instance.halted:  # halted during its own send phase
                    continue
                box = inbox_table[index]
                instance.receive(round_number, empty if box is None else box)

            if observers:
                profile = transport.round_profile()
                snapshot = RoundSnapshot(
                    round_number=round_number,
                    active_at_start=len(live),
                    messages=profile.messages,
                    bits=profile.bits,
                    max_edge_bits=profile.max_edge_bits,
                    busiest_edge=profile.busiest_edge,
                    newly_halted=tuple(labels[index] for index in live
                                       if instances[index].halted),
                )
                for observer in observers:
                    observer.on_round_end(round_number, snapshot)
            transport.end_round()
        return rounds


#: Other names of SyncEngine: ``"legacy"`` for the pre-refactor loop it
#: reproduces; ``"active-set"`` / ``"active"`` still arrive in requests,
#: stored provenance and registry scenarios.
_ENGINES = {name: SyncEngine
            for name in (SyncEngine.name, "legacy", "active-set", "active")}


def register_engine(name: str, engine_class: type,
                    *aliases: str) -> None:
    """Add an engine class to the name registry used by :func:`resolve_engine`.

    Called by engine modules that live outside this file (the vectorized
    array engine registers itself as ``"vector"`` on import); re-registering
    the same class under the same name is a no-op, a *different* class under
    a taken name is an error.
    """
    for key in (name, *aliases):
        existing = _ENGINES.get(key)
        if existing is not None and existing is not engine_class:
            raise ValueError(f"engine name {key!r} already registered "
                             f"for {existing.__name__}")
        _ENGINES[key] = engine_class


def resolve_engine(engine: "RoundEngine | type[RoundEngine] | str | None",
                   ) -> RoundEngine:
    """Normalise the ``engine=`` argument of the simulator facade.

    Accepts an engine instance, an engine class, a name (``"sync"`` and its
    aliases ``"legacy"``, ``"active-set"``, ``"active"``; ``"vector"``) or
    ``None`` (the default :class:`SyncEngine`).
    """
    if engine is None:
        return SyncEngine()
    if isinstance(engine, RoundEngine):
        return engine
    if isinstance(engine, type) and issubclass(engine, RoundEngine):
        return engine()
    if isinstance(engine, str):
        if engine not in _ENGINES:
            # The vector engine registers on import; resolving by name must
            # work even when only `repro.congest.engine` was imported.
            try:
                import repro.congest.vector_engine  # noqa: F401 (registers)
            except ImportError:  # pragma: no cover - numpy-less fallback
                pass
        try:
            return _ENGINES[engine]()
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; known: {sorted(_ENGINES)}") from None
    raise TypeError(f"engine must be a RoundEngine, class, name or None, "
                    f"got {engine!r}")
