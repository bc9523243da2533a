"""The CONGEST simulator facade over the layered runtime.

:class:`Simulator` keeps the seed repository's original constructor and
``run`` signature, but is now a thin facade that wires four explicit layers
together (see ``ARCHITECTURE.md``):

1. **topology** (:mod:`repro.congest.topology`) -- an integer-indexed
   snapshot of the network, built once and cached on the
   :class:`CongestNetwork`, so the round loop never touches networkx and
   never canonicalises edge keys with ``str()``;
2. **transport** (:mod:`repro.congest.transport`) -- pooled lazy inboxes and
   the aggregate per-edge per-round bandwidth accountant;
3. **scheduling** (:mod:`repro.congest.engine`) -- a pluggable
   :class:`RoundEngine`; the default :class:`SyncEngine` reproduces the
   legacy semantics bit for bit, :class:`ActiveSetEngine` skips halted
   nodes entirely, and :class:`~repro.congest.vector_engine.VectorEngine`
   (``engine="vector"``) executes supported algorithms as batched numpy
   rounds -- all three bit-identical for the same seed;
4. **instrumentation** (:mod:`repro.congest.observers`) -- a
   :class:`RoundObserver` trace API replacing the legacy inlined counters.

The facade still returns the same :class:`SimulationResult`; its
``edge_message_counts`` are keyed by canonical label pairs ordered by node
*index* (graph iteration order) rather than by ``str()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Type

from repro.congest.engine import RoundEngine, Runtime, SyncEngine, resolve_engine
from repro.congest.network import CongestNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.observers import (
    RoundObserver,
    RunContext,
    ambient_observers,
)
from repro.congest.transport import BandwidthExceededError, Transport

Node = Hashable

__all__ = ["BandwidthExceededError", "LazyEdgeCounts", "SimulationResult",
           "Simulator"]


class LazyEdgeCounts(Mapping):
    """``edge -> message count`` mapping, materialised on first access.

    The transport tracks congestion by integer edge index; converting that to
    the label-keyed dictionary costs O(m), which short simulator runs would
    pay on every ``run()`` even when nobody reads the congestion.  This view
    defers the conversion until the result is actually inspected.
    """

    __slots__ = ("_transport", "_dict")

    def __init__(self, transport: Transport) -> None:
        self._transport = transport
        self._dict: dict[tuple[Node, Node], int] | None = None

    def _materialized(self) -> dict[tuple[Node, Node], int]:
        if self._dict is None:
            self._dict = self._transport.edge_counts_by_label()
            self._transport = None
        return self._dict

    def __getitem__(self, key: tuple[Node, Node]) -> int:
        return self._materialized()[key]

    def __iter__(self) -> Iterator[tuple[Node, Node]]:
        return iter(self._materialized())

    def __len__(self) -> int:
        return len(self._materialized())

    def __contains__(self, key: object) -> bool:
        return key in self._materialized()

    def keys(self):
        return self._materialized().keys()

    def values(self):
        return self._materialized().values()

    def items(self):
        return self._materialized().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyEdgeCounts):
            return self._materialized() == other._materialized()
        if isinstance(other, Mapping):
            return self._materialized() == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return repr(self._materialized())


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    rounds: int
    total_messages: int
    total_bits: int
    outputs: dict[Node, Any]
    halted: bool
    #: ``(u, v) -> messages`` per canonical edge; a plain dict or a
    #: :class:`LazyEdgeCounts` view (same mapping API, compares equal).
    edge_message_counts: Mapping[tuple[Node, Node], int] = field(default_factory=dict)
    engine: str = SyncEngine.name
    #: The engine that *actually* executed the run: equals ``engine`` except
    #: when the vector engine fell back to its scalar reference (then
    #: ``engine="vector"`` but ``engine_used="sync"``).  Empty string on
    #: results built before the field existed.
    engine_used: str = ""

    def max_edge_congestion(self) -> int:
        """The maximum number of messages carried by any single edge."""
        if not self.edge_message_counts:
            return 0
        return max(self.edge_message_counts.values())


class Simulator:
    """Run a per-node algorithm on a :class:`CongestNetwork`.

    Parameters
    ----------
    network:
        The communication network.
    algorithm_factory:
        Either a :class:`NodeAlgorithm` subclass or a callable
        ``node -> NodeAlgorithm`` (the latter allows per-node inputs).
    seed:
        Seed for the per-node random generators.
    enforce_bandwidth:
        When true (the default), exceeding the per-edge per-round bandwidth
        raises :class:`BandwidthExceededError`.  Experiments that only want
        to *measure* congestion (Figure 1) set this to ``False``.
    engine:
        The round engine: an instance, class, name (``"sync"`` /
        ``"active-set"`` / ``"vector"``) or ``None`` for the default
        :class:`SyncEngine`.
    observers:
        Iterable of :class:`RoundObserver` instances to attach for this
        simulator's runs.
    half_duplex:
        When true, both directions of an edge share one ``bandwidth_bits``
        budget per round; by default each direction has its own (the
        standard CONGEST convention).
    """

    def __init__(self, network: CongestNetwork,
                 algorithm_factory: Type[NodeAlgorithm] | Callable[[Node], NodeAlgorithm],
                 *, seed: int = 0, enforce_bandwidth: bool = True,
                 engine: RoundEngine | type[RoundEngine] | str | None = None,
                 observers: Iterable[RoundObserver] = (),
                 half_duplex: bool = False) -> None:
        self.network = network
        self.topology = network.topology()
        self.seed = seed
        self.enforce_bandwidth = enforce_bandwidth
        self.half_duplex = half_duplex
        self.engine = resolve_engine(engine)
        self.observers: list[RoundObserver] = list(observers)
        self._instances: list[NodeAlgorithm] = []
        for index, (label, neighbors) in enumerate(zip(
                self.topology.labels, self.topology.neighbor_labels)):
            instance = self._instantiate(algorithm_factory, label)
            self._bind(instance, self.topology, index, seed, neighbors)
            self._instances.append(instance)
        #: Backward-compatible ``label -> instance`` view (iteration order is
        #: the network's node order, as in the legacy simulator).
        self.nodes: dict[Node, NodeAlgorithm] = dict(
            zip(self.topology.labels, self._instances))

    # ------------------------------------------------------------ plumbing
    @staticmethod
    def _instantiate(factory: Type[NodeAlgorithm] | Callable[[Node], NodeAlgorithm],
                     node: Node) -> NodeAlgorithm:
        if isinstance(factory, type) and issubclass(factory, NodeAlgorithm):
            return factory()
        instance = factory(node)
        if not isinstance(instance, NodeAlgorithm):
            raise TypeError("algorithm_factory must produce NodeAlgorithm instances")
        return instance

    @staticmethod
    def _bind(instance: NodeAlgorithm, topology, index: int, seed: int,
              neighbors: tuple[Node, ...]) -> None:
        congest_id = topology.congest_ids[index]
        instance.node = topology.labels[index]
        instance.node_id = congest_id
        instance.neighbors = neighbors
        # rng / neighbor_ids materialise on first access (NodeAlgorithm's
        # lazy-binding properties); the streams and tables are identical to
        # eager construction, but paths that never read them (the array
        # backends, deterministic kernels) skip the O(n) setup entirely.
        instance._neighbor_ids = None
        instance._id_binding = (topology, index)
        instance.n = topology.n
        instance._rng = None
        instance._rng_seed = f"{seed}:{congest_id}"
        instance._lazy_broadcast = True

    # ----------------------------------------------------------------- run
    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        """Run until every node halts or ``max_rounds`` is reached."""
        topology = self.topology
        # Ambient observers (repro.congest.observers.ambient_observation)
        # join the explicit ones for this run only; their presence routes
        # engine selection exactly like explicit observers.
        observers = tuple(self.observers) + ambient_observers()
        # Per-slot transport profiling only pays off for observers that
        # consume round snapshots; run-level (``vector_compatible``)
        # observers skip it, which also keeps the vector engine eligible.
        profiling = any(not getattr(o, "vector_compatible", False)
                        for o in observers)
        transport = Transport(topology,
                              bandwidth_bits=self.network.bandwidth_bits,
                              enforce=self.enforce_bandwidth,
                              half_duplex=self.half_duplex,
                              profile_slots=profiling)
        if observers:
            context = RunContext(network=self.network, topology=topology,
                                 transport=transport, engine=self.engine.name)
            for observer in observers:
                observer.on_run_start(context)

        instances = self._instances
        for instance in instances:
            instance.initialize()

        runtime = Runtime(topology=topology, transport=transport,
                          instances=instances, observers=observers)
        rounds = self.engine.run(runtime, max_rounds)
        result = self._finish(transport, rounds,
                              getattr(self.engine, "last_engine_used",
                                      self.engine.name))
        for observer in observers:
            observer.on_run_end(result)
        return result

    def _finish(self, transport: Transport, rounds: int,
                engine_used: str) -> SimulationResult:
        """Finalize the instances and collect the run's result."""
        instances = self._instances
        for instance in instances:
            instance.finalize()
        return SimulationResult(
            rounds=rounds,
            total_messages=transport.total_messages,
            total_bits=transport.total_bits,
            outputs={label: instance.output
                     for label, instance in zip(self.topology.labels,
                                                instances)},
            halted=all(instance.halted for instance in instances),
            edge_message_counts=LazyEdgeCounts(transport),
            engine=self.engine.name,
            engine_used=engine_used,
        )
