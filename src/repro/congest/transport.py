"""Transport layer: pooled inboxes and the per-edge bandwidth accountant.

The transport owns everything that happens to a message between ``send`` and
``receive``:

* **Inbox pool** -- inboxes are allocated lazily, only for nodes that
  actually receive a message this round, and the dicts are recycled between
  rounds.  (The legacy scheduler rebuilt a fresh ``{node: {}}`` mapping for
  *every* node *every* round, halted or not.)  Because inboxes are recycled,
  they are only valid for the duration of the ``receive`` call; algorithms
  that want to keep messages must copy them -- every algorithm in this
  repository already does.
* **Bandwidth accountant** -- enforces the *aggregate* per-edge per-round
  budget.  The legacy check only rejected single oversized messages, so
  several messages crossing the same edge in one round could silently exceed
  ``bandwidth_bits``.  The accountant accumulates bits per directed edge slot
  and raises :class:`BandwidthExceededError` as soon as the aggregate
  exceeds the budget.  By default each *direction* of an edge has its own
  ``bandwidth_bits`` budget (full-duplex, the standard CONGEST convention of
  one B-bit message per edge per direction); ``half_duplex=True`` makes both
  directions share a single budget.
* **Congestion tracking by edge index** -- per-edge message counts are plain
  integer-array increments; the simulator converts them to label-keyed
  dictionaries only once, when the run finishes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Mapping

from repro.congest.message import message_bits
from repro.congest.topology import TopologySnapshot

Node = Hashable

__all__ = ["BandwidthExceededError", "RoundProfile", "Transport", "EMPTY_INBOX"]


class BandwidthExceededError(RuntimeError):
    """Raised when the per-edge per-round bandwidth budget is exceeded."""


#: Shared immutable inbox handed to nodes that received nothing this round.
EMPTY_INBOX: Mapping[Node, Any] = MappingProxyType({})

#: Sentinel for the deposit_outbox same-payload bit-size cache.
_UNSET = object()


@dataclass(frozen=True)
class RoundProfile:
    """Per-round transport aggregates (computed only when observers ask)."""

    messages: int
    bits: int
    max_edge_bits: int
    busiest_edge: int | None


class Transport:
    """Inbox pool + bandwidth accountant over a :class:`TopologySnapshot`."""

    __slots__ = (
        "topology",
        "bandwidth_bits",
        "enforce",
        "half_duplex",
        "profile_slots",
        "_slot_bits",
        "_touched_slots",
        "inbox_table",
        "_touched_inboxes",
        "_pool",
        "edge_message_counts",
        "total_messages",
        "total_bits",
        "round_messages",
        "round_bits",
        "_bulk_stamps",
        "_round_token",
    )

    def __init__(self, topology: TopologySnapshot, *, bandwidth_bits: int,
                 enforce: bool = True, half_duplex: bool = False,
                 profile_slots: bool = False) -> None:
        self.topology = topology
        self.bandwidth_bits = bandwidth_bits
        self.enforce = enforce
        self.half_duplex = half_duplex
        #: When true (instrumented runs), broadcasts always take the
        #: fully-accounted path so :meth:`round_profile` sees per-slot loads.
        self.profile_slots = profile_slots
        # Per-slot load tracking backs the deposit paths only; engines that
        # account traffic in aggregate (absorb_aggregates) never deposit, so
        # the O(m) lists materialise lazily on the first deposit.  The
        # touched-slot sweeps in round_profile/end_round are safe either
        # way: nothing is touched until a deposit runs.
        self._slot_bits: list[int] | None = None
        self._touched_slots: list[int] = []
        #: ``inbox_table[i]`` is node ``i``'s inbox for the round in flight,
        #: or ``None`` if it received nothing yet.  Engines read it directly
        #: in their delivery loop; everyone else should use :meth:`inbox`.
        self.inbox_table: list[dict[Node, Any] | None] = [None] * topology.n
        self._touched_inboxes: list[int] = []
        self._pool: list[dict[Node, Any]] = []
        self.edge_message_counts = [0] * topology.edge_count
        self.total_messages = 0
        self.total_bits = 0
        self.round_messages = 0
        self.round_bits = 0
        # Round stamp per sender: a broadcast by a sender that already
        # deposited this round takes the fully-accounted path.  Lazy with
        # _slot_bits: only deposit paths read it.
        self._bulk_stamps: list[int] | None = None
        self._round_token = 1

    def _ensure_slot_state(self) -> None:
        """Materialise the per-slot deposit bookkeeping on first use."""
        topology = self.topology
        slots = (topology.edge_count if self.half_duplex
                 else 2 * topology.edge_count)
        self._slot_bits = [0] * slots
        self._bulk_stamps = [0] * topology.n

    # ------------------------------------------------------------- sending
    def deposit_outbox(self, sender_index: int, outbox: Mapping[Node, Any],
                       round_number: int = 0, observers: tuple = ()) -> None:
        """Route and account a whole outbox (the engine's send-phase path).

        Entries whose payload is ``Ellipsis`` are skipped.  When consecutive
        entries carry the *same payload object* (the ``broadcast`` idiom),
        its bit size is computed once instead of once per neighbor.  Raises
        ``ValueError`` for a non-neighbor target and
        :class:`BandwidthExceededError` when the aggregate load of an edge
        slot exceeds ``bandwidth_bits`` (and enforcement is on); the
        message is still counted and delivered when enforcement is off, so
        congestion-measurement runs see the true load.
        """
        topology = self.topology
        route_get = topology.routes[sender_index].get
        sender_label = topology.labels[sender_index]
        if self._slot_bits is None:
            self._ensure_slot_state()
        # Stamp the sender so a broadcast later in this round takes this
        # accounted path and sees the load of this outbox.
        self._bulk_stamps[sender_index] = self._round_token
        slot_bits = self._slot_bits
        touched_slots = self._touched_slots
        inbox_table = self.inbox_table
        touched_inboxes = self._touched_inboxes
        pool = self._pool
        edge_counts = self.edge_message_counts
        enforce = self.enforce
        bandwidth = self.bandwidth_bits
        # Slot position within the route triple: 1 = edge index (half duplex,
        # both directions share the budget), 2 = precomputed directed slot.
        slot_position = 1 if self.half_duplex else 2
        messages = 0
        bits_total = 0
        last_payload = _UNSET
        last_bits = 0
        for neighbor, payload in outbox.items():
            if payload is Ellipsis:
                continue
            target = route_get(neighbor)
            if target is None:
                raise ValueError(
                    f"node {sender_label!r} attempted to send to "
                    f"non-neighbor {neighbor!r}")
            receiver_index = target[0]
            edge_index = target[1]
            if payload is not last_payload:
                last_bits = message_bits(payload)
                last_payload = payload
            slot = target[slot_position]
            load = slot_bits[slot] + last_bits
            if load == last_bits:
                touched_slots.append(slot)
            slot_bits[slot] = load
            if enforce and load > bandwidth:
                self._flush_counts(messages, bits_total)
                raise self._bandwidth_error(sender_label, receiver_index,
                                            last_bits, load)
            box = inbox_table[receiver_index]
            if box is None:
                box = pool.pop() if pool else {}
                inbox_table[receiver_index] = box
                touched_inboxes.append(receiver_index)
            box[sender_label] = payload
            edge_counts[edge_index] += 1
            messages += 1
            bits_total += last_bits
            if observers:
                for observer in observers:
                    observer.on_message(round_number, sender_label, neighbor,
                                        payload, last_bits, edge_index)
        self._flush_counts(messages, bits_total)

    def deposit_broadcast(self, sender_index: int, payload: Any,
                          round_number: int = 0, observers: tuple = ()) -> None:
        """Route one payload to *every* neighbor of ``sender_index``.

        Semantically a :meth:`deposit_outbox` whose entries all carry
        ``payload``.  In full-duplex mode a single broadcast puts exactly
        one message on each directed edge slot, so the aggregate bandwidth
        check reduces to the (hoisted) single-message check: the bit size
        is computed once and the messages are routed over the topology's
        precomputed neighbor row with no per-message route lookup and no
        per-slot accounting.  Every other case goes through
        :meth:`deposit_outbox`: half-duplex mode (the reverse direction
        shares the budget), instrumented runs (``profile_slots`` / message
        observers, which need per-slot loads in the round profile), and a
        sender that already deposited this round (every deposit stamps its
        sender), so the load of an earlier :meth:`deposit_outbox` is seen.
        A fast-path broadcast records no slot loads, so a later deposit by
        the same sender in the same round does not see its load; the
        engine deposits at most once per sender per round.
        """
        topology = self.topology
        receiver_row, edge_row = topology.broadcast_rows[sender_index]
        if not receiver_row:
            return
        if self._slot_bits is None:
            self._ensure_slot_state()
        if (self.half_duplex or observers or self.profile_slots
                or self._bulk_stamps[sender_index] == self._round_token):
            self.deposit_outbox(
                sender_index,
                dict.fromkeys(topology.neighbor_labels[sender_index], payload),
                round_number, observers)
            return
        self._bulk_stamps[sender_index] = self._round_token
        sender_label = topology.labels[sender_index]
        bits = message_bits(payload)
        if self.enforce and bits > self.bandwidth_bits:
            raise self._bandwidth_error(sender_label, receiver_row[0],
                                        bits, bits)
        inbox_table = self.inbox_table
        touched_inboxes = self._touched_inboxes
        pool = self._pool
        edge_counts = self.edge_message_counts
        for receiver_index, edge_index in zip(receiver_row, edge_row):
            box = inbox_table[receiver_index]
            if box is None:
                box = pool.pop() if pool else {}
                inbox_table[receiver_index] = box
                touched_inboxes.append(receiver_index)
            box[sender_label] = payload
            edge_counts[edge_index] += 1
        count = len(receiver_row)
        self._flush_counts(count, count * bits)

    def _flush_counts(self, messages: int, bits: int) -> None:
        self.total_messages += messages
        self.total_bits += bits
        self.round_messages += messages
        self.round_bits += bits

    def absorb_aggregates(self, messages: int, bits: int,
                          edge_message_counts) -> None:
        """Fold externally-computed traffic into the run-level accountants.

        The array-engine escape hatch: an engine that routes whole rounds as
        batched array operations (no :meth:`deposit_outbox` calls)
        still reports its traffic through the transport, so
        ``total_messages`` / ``total_bits`` / per-edge congestion -- and
        everything downstream of them (:class:`~repro.congest.simulator.
        SimulationResult`, ``edge_counts_by_label``) -- stay the single
        source of truth regardless of the engine.  ``edge_message_counts``
        is a sequence of per-edge message counts as Python ints (e.g. an
        array's ``tolist()``), one per canonical edge index.
        """
        self.total_messages += int(messages)
        self.total_bits += int(bits)
        counts = self.edge_message_counts
        counts[:] = map(operator.add, counts, edge_message_counts)

    def _bandwidth_error(self, sender_label: Node, receiver_index: int,
                         bits: int, load: int) -> BandwidthExceededError:
        receiver_label = self.topology.labels[receiver_index]
        return BandwidthExceededError(
            f"aggregate load of {load} bits on edge "
            f"{sender_label!r}-{receiver_label!r} (last message: {bits} bits "
            f"from {sender_label!r}) exceeds the per-round bandwidth of "
            f"{self.bandwidth_bits} bits")

    # ----------------------------------------------------------- receiving
    def inbox(self, receiver_index: int) -> Mapping[Node, Any]:
        """The inbox of node ``receiver_index`` for the current round.

        The returned mapping is owned by the transport and recycled after the
        round: it is valid only for the duration of ``receive``.
        """
        box = self.inbox_table[receiver_index]
        return EMPTY_INBOX if box is None else box

    # ------------------------------------------------------------ lifecycle
    def round_profile(self) -> RoundProfile:
        """Aggregates for the round in flight (call before :meth:`end_round`)."""
        max_bits = 0
        busiest: int | None = None
        slot_bits = self._slot_bits
        for slot in self._touched_slots:
            bits = slot_bits[slot]
            if bits > max_bits:
                max_bits = bits
                busiest = slot if self.half_duplex else slot // 2
        return RoundProfile(messages=self.round_messages, bits=self.round_bits,
                            max_edge_bits=max_bits, busiest_edge=busiest)

    def end_round(self) -> None:
        """Reset per-round state: recycle inboxes, zero edge loads."""
        slot_bits = self._slot_bits
        for slot in self._touched_slots:
            slot_bits[slot] = 0
        self._touched_slots.clear()
        inbox_table = self.inbox_table
        pool = self._pool
        for index in self._touched_inboxes:
            box = inbox_table[index]
            if box is not None:
                box.clear()
                pool.append(box)
                inbox_table[index] = None
        self._touched_inboxes.clear()
        self.round_messages = 0
        self.round_bits = 0
        self._round_token += 1

    # -------------------------------------------------------------- results
    def edge_counts_by_label(self) -> dict[tuple[Node, Node], int]:
        """Per-edge message counts keyed by canonical label pairs.

        Reads the endpoints from the CSR's canonical edge arrays (same
        edge-index order as the route tables), so an array-engine run
        never builds the scalar tables to report its congestion.
        """
        labels = self.topology.labels
        arrays = self.topology.numpy_arrays()
        return {(labels[u], labels[v]): count
                for u, v, count in zip(arrays.edge_u.tolist(),
                                       arrays.edge_v.tolist(),
                                       self.edge_message_counts)
                if count}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Transport(bandwidth={self.bandwidth_bits}, "
                f"messages={self.total_messages}, bits={self.total_bits})")
