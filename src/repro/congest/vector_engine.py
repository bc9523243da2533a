"""The vectorized array engine: lockstep numpy rounds over the CSR topology.

:class:`VectorEngine` is the array round engine of the runtime, beside
the scalar :class:`~repro.congest.engine.SyncEngine`.  Instead of driving one
Python ``send``/``receive`` state machine per node, it executes an entire
round as a handful of numpy array operations over the topology snapshot's
CSR adjacency (:meth:`~repro.congest.topology.TopologySnapshot.numpy_arrays`):
per-round neighbor aggregation is a masked segment reduction
(``np.minimum.reduceat`` over the CSR row pointers) and message accounting
is a vectorized scatter over the canonical edge indices.

One kernel family
-----------------
Every supported node class has exactly one :class:`ArrayKernel`, and every
kernel runs ``B`` replicas of its protocol in lockstep: per-node state is a
``(B, n)`` array with a leading replica axis, every round is one set of
segment reductions along axis 1 over the **shared** base CSR, and each
replica keeps its own CONGEST identifiers, RNG streams and
:class:`~repro.congest.transport.Transport`.  A solo run is a batch of one:
:meth:`VectorEngine.run` executes the kernel with ``B = 1`` over
``runtime.instances`` and ``runtime.transport``, and
:func:`repro.congest.batch.simulate_replicas` executes it over ``B`` seeds.
Shipping kernels, keyed by exact node class (a subclass may override
``send``/``receive``, so it never inherits a kernel): ``LubyMISNode``,
``BeepingMISNode``, ``DetRulingSetNode``, ``PowerLubyMISNode`` and
``PowerDetRulingNode``.

Equivalence contract
--------------------
The vector engine is an *optimisation*, never a semantic fork: for every
supported algorithm it produces bit-for-bit the outputs, round counts,
total message/bit counts and per-edge congestion of :class:`SyncEngine` for
the same seed.  Every node takes the same successive values of its
``random.Random(f"{seed}:{id}")`` stream as under the scalar engine (one
draw per undecided node per step, in the same rounds): from the bound
instances' own generators, or, for a node-uniform batch, from a
per-replica :class:`_DrawTable` that pre-draws each node's first values
and holds a generator only for a node that uses them up.  So a report
produced under ``engine="vector"`` replays exactly on ``engine="sync"``.
The differential matrix in ``tests/test_engine_equivalence.py``, the
hypothesis suite in ``tests/test_engine_fuzz.py``, the replica suite in
``tests/test_replica_batch.py`` and the draw-table fuzz in
``tests/test_vector_setup.py`` lock this down.

When vectorization applies
--------------------------
One eligibility rule (:func:`eligible_kernel`) serves solo runs and replica
batches alike.  A run takes the array path only when *all* of these hold;
anything else falls back to the (bit-identical) scalar path, so
``engine="vector"`` is always safe to request:

* numpy is importable;
* every node runs exactly the same node class, and that class has a kernel;
* every observer, explicit or ambient, is ``vector_compatible`` (run-level
  hooks only; round and message hooks are inherently scalar) and the
  transport is not instrumented (``profile_slots``);
* the transport is full-duplex (the standard CONGEST convention; the
  half-duplex shared budget needs per-slot accounting);
* the kernel's post-``initialize`` gate (:meth:`ArrayKernel.supports`:
  parameter ranges, cross-node consistency) accepts the instances.

Traffic accounting flows through
:meth:`~repro.congest.transport.Transport.absorb_aggregates`, so the
transport layer remains the single source of truth for
``total_messages`` / ``total_bits`` / per-edge congestion and everything
downstream (``SimulationResult``, ``edge_counts_by_label``, ``cost``
analyses) keeps working unchanged.
"""

from __future__ import annotations

import random
import warnings
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

try:  # numpy is an optional accelerator, not a hard dependency
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None  # type: ignore[assignment]

from repro.congest.engine import (
    RoundEngine,
    Runtime,
    SyncEngine,
    register_engine,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.topology import TopologySnapshot
    from repro.congest.transport import Transport

__all__ = ["ArrayKernel", "VectorEngine", "VectorFallbackWarning",
           "eligible_kernel"]


class VectorFallbackWarning(RuntimeWarning):
    """Emitted when ``engine="vector"`` silently executes on the sync engine.

    The fallback is always *correct* (the engines are bit-identical), but a
    benchmark that believes it measured the vector backend while the run
    fell back would report numbers for the wrong engine.  The warning makes
    the substitution observable; ``SimulationResult.engine_used`` (and the
    ``engine_used`` metric of the simulator-native solve adapters) records
    it machine-readably.
    """

#: Sentinel for "no active neighbor" in segment minima (int64 max).
_SENTINEL = (1 << 63) - 1


# --------------------------------------------------------------- primitives
def _bit_lengths(values: "np.ndarray") -> "np.ndarray":
    """Exact ``int.bit_length()`` for a non-negative int64 array (< 2^62).

    Uses a searchsorted over the powers of two -- exact where a float
    ``log2`` could round across an integer boundary.
    """
    return np.searchsorted(_POW2, values, side="right").astype(np.int64)


if np is not None:
    _POW2 = np.array([1 << k for k in range(63)], dtype=np.int64)


def _int_message_bits(values: "np.ndarray") -> "np.ndarray":
    """Vectorized ``message_bits`` of integer payloads (length + sign bit)."""
    return np.maximum(1, _bit_lengths(values)) + 1


class _SegmentOps:
    """Masked neighbor aggregations of ``(B, n)`` operands over one CSR.

    The per-position gather/mask work happens inside two persistent padded
    buffers of shape ``(B, 2m + 1)`` (one int64, one bool; the last column
    holds the segment-pad identity), so a reduction allocates no fresh
    ``2m``-slot gather per call -- at power scale the round loop's peak
    allocation is gated below a materialized ``G^k`` CSR.  The pad column
    also gives every row start, including those of trailing isolated nodes,
    an in-range position, so no start needs clamping (clamping would
    truncate the last non-empty segment).
    """

    def __init__(self, arrays, replicas: int) -> None:
        self.starts = arrays.indptr[:-1]
        self.nbr = arrays.neighbor_indices
        self.rows = arrays.rows
        self.empty = arrays.degrees == 0
        width = len(self.nbr) + 1
        self._vals = np.full((replicas, width), _SENTINEL, dtype=np.int64)
        self._flags = np.zeros((replicas, width), dtype=bool)

    def _gather(self, values: "np.ndarray", buffer: "np.ndarray",
                ) -> "np.ndarray":
        """Fill ``buffer[b, p]`` with ``values[b, nbr[p]]``; returns the
        per-position view (buffer-owned, pad column excluded).

        One contiguous row at a time, with ``mode="clip"``, keeps the take
        truly in-place: a strided ``out`` or the default ``"raise"`` mode
        would buffer through a fresh ``2m``-slot temporary, which is
        exactly the allocation the persistent buffer exists to avoid (CSR
        indices are in-range by construction).
        """
        for row, target in zip(values, buffer):
            np.take(row, self.nbr, out=target[:-1], mode="clip")
        return buffer[:, :-1]

    def _reduce_min(self) -> "np.ndarray":
        """Min per CSR segment of the padded value buffer."""
        mins = np.minimum.reduceat(self._vals, self.starts, axis=1)
        # reduceat yields the *next* segment's head for empty segments;
        # degree-0 rows have no neighbors by definition.
        mins[:, self.empty] = _SENTINEL
        return mins

    def _gather_masked(self, values: "np.ndarray", keep: "np.ndarray",
                       ) -> "np.ndarray":
        """Gather ``values`` where ``keep``, else sentinel."""
        per_position = self._gather(values, self._vals)
        np.copyto(per_position, _SENTINEL, where=~keep)
        return per_position

    def min_over_active(self, values: "np.ndarray", active: "np.ndarray",
                        ) -> "np.ndarray":
        """Per-node min of ``values[v]`` over active neighbors ``v`` (else
        sentinel)."""
        self._gather_masked(values, active[:, self.nbr])
        return self._reduce_min()

    def min_pair_over_active(self, values: "np.ndarray", ids: "np.ndarray",
                             active: "np.ndarray",
                             ) -> tuple["np.ndarray", "np.ndarray"]:
        """Lexicographic per-node min of ``(values[v], ids[v])`` over active
        neighbors: the exact semantics of ``min()`` over a tuple inbox."""
        nbr_active = active[:, self.nbr]
        per_position = self._gather_masked(values, nbr_active)
        min_values = self._reduce_min()
        # Masked positions hold the sentinel, which only matches
        # min_values[row] when the row has no active neighbor -- the
        # nbr_active conjunction excludes exactly those positions, so the
        # tie set equals the unmasked ``values[nbr] == min`` one.
        ties = nbr_active
        ties &= per_position == min_values[:, self.rows]
        self._gather_masked(ids, ties)
        return min_values, self._reduce_min()

    def any_neighbor(self, flags: "np.ndarray") -> "np.ndarray":
        """Per-node: does any neighbor have ``flags[v]`` set?"""
        self._gather(flags, self._flags)
        hits = np.logical_or.reduceat(self._flags, self.starts, axis=1)
        hits[:, self.empty] = False
        return hits


class _Accountant:
    """Per-replica broadcast-round traffic; flushes into each transport.

    Mirrors exactly what the scalar transport would count for a round in
    which every node in ``senders[b]`` broadcasts one payload to all its
    neighbors: ``deg(u)`` messages of ``payload_bits[b, u]`` each, one
    message per incident edge.  In full-duplex mode every directed slot
    carries at most that single message, so the aggregate bandwidth check
    reduces to the per-payload check -- raised through the replica's own
    transport error factory so the failure mode is the scalar one.
    """

    def __init__(self, transports: Sequence["Transport"], arrays) -> None:
        self.transports = transports
        self.degrees = arrays.degrees
        self.edge_u = arrays.edge_u
        self.edge_v = arrays.edge_v
        self.nbr = arrays.neighbor_indices
        self.starts = arrays.indptr[:-1]
        replicas = len(transports)
        # int32 halves the footprint; counts are bounded by the round limit.
        self.edge_counts = np.zeros((replicas, len(arrays.edge_u)),
                                    dtype=np.int32)
        self.messages = np.zeros(replicas, dtype=np.int64)
        self.bits = np.zeros(replicas, dtype=np.int64)
        self.bandwidth = np.array([t.bandwidth_bits for t in transports],
                                  dtype=np.int64)
        self.enforce = np.array([t.enforce for t in transports], dtype=bool)

    def broadcast_round(self, senders: "np.ndarray",
                        payload_bits: "int | np.ndarray") -> None:
        if not senders.any():
            return
        degrees = self.degrees
        scalar = isinstance(payload_bits, int)
        if self.enforce.any():
            # One broadcast per sender per round: the budget check is the
            # per-payload check (only actual deposits count: a sender
            # without neighbors deposits nothing).
            if scalar:
                too_big = (payload_bits > self.bandwidth)[:, None]
            else:
                too_big = payload_bits > self.bandwidth[:, None]
            offenders = (senders & (degrees > 0) & too_big
                         & self.enforce[:, None])
            if offenders.any():
                replica = int(np.argmax(offenders.any(axis=1)))
                first = int(np.argmax(offenders[replica]))
                transport = self.transports[replica]
                bits = int(payload_bits if scalar
                           else payload_bits[replica, first])
                raise transport._bandwidth_error(
                    transport.topology.labels[first],
                    int(self.nbr[self.starts[first]]), bits, bits)
        sent = senders * degrees
        counts = sent.sum(axis=1)
        self.messages += counts
        if scalar:
            self.bits += counts * payload_bits
        else:
            self.bits += (sent * payload_bits).sum(axis=1)
        self.edge_counts += senders[:, self.edge_u]
        self.edge_counts += senders[:, self.edge_v]

    def flush(self) -> None:
        for replica, transport in enumerate(self.transports):
            transport.absorb_aggregates(int(self.messages[replica]),
                                        int(self.bits[replica]),
                                        self.edge_counts[replica].tolist())


# ------------------------------------------------------------ RNG streams
def _stream_draw(rng: random.Random, space: int | None):
    """The kernel's draw from ``rng``: a priority ``randrange(space)``, or
    a ``random()`` coin for a class without a priority space."""
    return rng.random if space is None else partial(rng.randrange, space)


def _draw_dtype(space: int | None):
    return np.float64 if space is None else np.int64


class _InstanceDraws:
    """One replica's draws from its bound instances' own ``rng`` streams."""

    def __init__(self, row: Sequence[object]) -> None:
        space = getattr(row[0], "_priority_space", None)
        self.draws = [_stream_draw(inst.rng, space) for inst in row]
        self.dtype = _draw_dtype(space)

    def draw(self, indices: "np.ndarray") -> "np.ndarray":
        draws = self.draws
        return np.fromiter((draws[i]() for i in indices), dtype=self.dtype,
                           count=len(indices))


class _DrawTable:
    """One replica's per-node streams ``random.Random(f"{seed}:{id}")``
    without holding a generator per node.

    The first ``D = head_draws`` values of every node's stream (the
    kernel's :attr:`ArrayKernel.head_draws`) are drawn up front into an
    ``(n, D)`` table (one reseeded generator serves all nodes) and read by
    a per-node draw count.  A node that uses them up gets its own
    generator, reseeded from the same string with those D draws skipped,
    and keeps it; only such long-lived nodes hold one.  The values are
    exactly the successive draws of each node's stream.
    """

    def __init__(self, seed, congest_ids: Sequence[int], space: int | None,
                 head_draws: int) -> None:
        self.seed = seed
        self.congest_ids = congest_ids
        self.space = space
        self.head_draws = head_draws
        rng = random.Random()
        draw = _stream_draw(rng, space)

        def heads():
            for congest_id in congest_ids:
                rng.seed(f"{seed}:{congest_id}")
                for _ in repeat(None, head_draws):
                    yield draw()

        n = len(congest_ids)
        self.head = np.fromiter(heads(), dtype=_draw_dtype(space),
                                count=n * head_draws).reshape(n, head_draws)
        self.counts = np.zeros(n, dtype=np.int32)
        self.tails: dict[int, object] = {}

    def _tail(self, index: int):
        """The draw of node ``index``'s own generator, past the head."""
        draw = self.tails.get(index)
        if draw is None:
            draw = self.tails[index] = _stream_draw(
                random.Random(f"{self.seed}:{self.congest_ids[index]}"),
                self.space)
            for _ in repeat(None, self.head_draws):
                draw()
        return draw

    def draw(self, indices: "np.ndarray") -> "np.ndarray":
        head_draws = self.head_draws
        counts = self.counts[indices]
        values = self.head[indices, np.minimum(counts, head_draws - 1)]
        for position in np.flatnonzero(counts >= head_draws).tolist():
            values[position] = self._tail(int(indices[position]))()
        self.counts[indices] += 1
        return values


# ------------------------------------------------------------------ kernels
class ArrayKernel:
    """Lockstep execution of one node class over ``B`` replicas of one CSR.

    ``rows[b]`` holds replica ``b``'s initialized node instances: every
    bound instance (a solo run is ``B = 1``), or one template instance when
    the replicas' factory is node-uniform (the kernel then reads parameters
    from the template and never writes back).  ``run`` executes the rounds,
    flushes each replica's traffic into its transport, leaves the decision
    masks in :attr:`outcome` and returns the per-replica round counts;
    :meth:`writeback` applies the outcome to the instances.  A converged
    replica's masks are all False, so it contributes neither traffic nor
    RNG draws.  ``streams[b]`` draws replica ``b``'s values: from the
    instances' own generators, or from a :class:`_DrawTable` for a
    template row.
    """

    #: Does the protocol draw from the per-node RNG streams?
    randomized = True
    #: Values a :class:`_DrawTable` pre-draws per node.  Luby-type nodes
    #: mostly decide within three draws: on a random 4-regular graph with
    #: n = 2*10^4, 99.9% of ``luby-sim`` nodes and 99.3% of
    #: ``power-luby-sim`` (k = 2) nodes did.
    head_draws = 3

    def __init__(self, topologies: Sequence["TopologySnapshot"],
                 rows: Sequence[Sequence[object]],
                 transports: Sequence["Transport"], live: "np.ndarray",
                 streams=None) -> None:
        arrays = topologies[0].numpy_arrays()
        self.rows = rows
        self.live0 = live
        self.replicas, self.n = live.shape
        self.ids = np.stack([t.numpy_arrays().congest_ids
                             for t in topologies])
        self.streams = streams
        self.segments = _SegmentOps(arrays, self.replicas)
        self.accountant = _Accountant(transports, arrays)
        self.outcome: dict[str, "np.ndarray"] = {}

    @classmethod
    def over_instances(cls, topologies: Sequence["TopologySnapshot"],
                       rows: Sequence[Sequence[object]],
                       transports: Sequence["Transport"]) -> "ArrayKernel":
        """The kernel over bound, initialized instances (one row per
        replica), drawing from their own RNG streams."""
        live = np.array([[not inst.halted for inst in row] for row in rows],
                        dtype=bool)
        streams = ([_InstanceDraws(row) for row in rows]
                   if cls.randomized else None)
        return cls(topologies, rows, transports, live, streams)

    @classmethod
    def over_templates(cls, topologies: Sequence["TopologySnapshot"],
                       templates: Sequence[object],
                       transports: Sequence["Transport"],
                       seeds: Sequence[int]) -> "ArrayKernel":
        """The kernel over one initialized template instance per replica
        (a node-uniform factory), every node live, drawing from each
        replica's :class:`_DrawTable` of the ``seed:id`` streams."""
        streams = ([_DrawTable(seed, topology.congest_ids,
                               getattr(template, "_priority_space", None),
                               cls.head_draws)
                    for topology, template, seed
                    in zip(topologies, templates, seeds)]
                   if cls.randomized else None)
        live = np.ones((len(templates), topologies[0].n), dtype=bool)
        return cls(topologies, [[template] for template in templates],
                   transports, live, streams)

    @classmethod
    def supports(cls, rows: Sequence[Sequence[object]]) -> bool:
        """Post-``initialize`` gate (parameter ranges, cross-node and
        cross-replica consistency); the class match is the eligibility
        rule's."""
        if not cls.randomized:
            return True
        for row in rows:
            space = getattr(row[0], "_priority_space", None)
            # Drawn priorities must fit the exact-bit-length table
            # (< 2^62), and the lexicographic pair minimum needs one shared
            # space (it is n^3 everywhere).
            if not (isinstance(space, int) and 0 < space <= (1 << 62)):
                return False
            if any(getattr(inst, "_priority_space", None) != space
                   for inst in row):
                return False
        return True

    def _draw(self, target: "np.ndarray", mask: "np.ndarray") -> None:
        """Draw into ``target[b, i]`` for ``mask[b, i]`` -- the exact RNG
        consumption of each scalar run: one next value of each masked
        node's stream (see :func:`_stream_draw`)."""
        for replica, source in enumerate(self.streams):
            indices = np.flatnonzero(mask[replica])
            if len(indices):
                target[replica, indices] = source.draw(indices)

    def run(self, max_rounds: int) -> "np.ndarray":
        raise NotImplementedError

    def writeback(self) -> None:
        raise NotImplementedError


class _ProposeDecideKernel(ArrayKernel):
    """Period-2 propose/decide structure (Luby MIS, det ruling set).

    Odd rounds broadcast a payload -- a ``(priority, id)`` pair, or the bare
    ID -- and take the neighborhood minimum; even rounds elect local
    minima, who alert their neighbors.
    """

    def run(self, max_rounds: int) -> "np.ndarray":
        ids = self.ids
        id_bits = _int_message_bits(ids)
        undecided = self.live0.copy()
        values = np.zeros(undecided.shape, dtype=np.int64)
        min_v = min_i = None
        in_set = np.zeros_like(undecided)
        dominated = np.zeros_like(undecided)
        rounds = np.zeros(self.replicas, dtype=np.int64)

        for round_number in range(1, max_rounds + 1):
            replica_active = undecided.any(axis=1)
            if not replica_active.any():
                break
            rounds[replica_active] = round_number
            if round_number % 2 == 1:
                if self.randomized:
                    self._draw(values, undecided)
                    # (priority, id) tuples: value + id bits + tuple bit.
                    self.accountant.broadcast_round(
                        undecided, _int_message_bits(values) + id_bits + 1)
                    min_v, min_i = self.segments.min_pair_over_active(
                        values, ids, undecided)
                else:
                    self.accountant.broadcast_round(undecided, id_bits)
                    min_i = self.segments.min_over_active(ids, undecided)
            else:
                if self.randomized:
                    winners = undecided & (
                        (min_v == _SENTINEL)
                        | (values < min_v)
                        | ((values == min_v) & (ids < min_i)))
                else:
                    winners = undecided & ((min_i == _SENTINEL)
                                           | (ids < min_i))
                self.accountant.broadcast_round(winners, 1)
                losers = (undecided & ~winners
                          & self.segments.any_neighbor(winners))
                in_set |= winners
                dominated |= losers
                undecided &= ~(winners | losers)
        self.accountant.flush()
        self.outcome = {"in_set": in_set, "dominated": dominated}
        return rounds


class _LubyKernel(_ProposeDecideKernel):
    """Luby MIS: priorities drawn from the per-node RNG streams."""

    randomized = True

    def writeback(self) -> None:
        for replica, instances in enumerate(self.rows):
            node_class = type(instances[0])
            for index in np.flatnonzero(self.outcome["in_set"][replica]):
                instance = instances[index]
                instance.state = node_class.IN_MIS
                instance.halt(True)
            for index in np.flatnonzero(self.outcome["dominated"][replica]):
                instance = instances[index]
                instance.state = node_class.DOMINATED
                instance.halt(False)


class _DetRulingKernel(_ProposeDecideKernel):
    """Deterministic greedy MIS by iterated ID minima."""

    randomized = False

    def writeback(self) -> None:
        for replica, instances in enumerate(self.rows):
            for index in np.flatnonzero(self.outcome["in_set"][replica]):
                instances[index].halt(True)
            for index in np.flatnonzero(self.outcome["dominated"][replica]):
                instances[index].halt(False)


class _BeepingKernel(ArrayKernel):
    """BeepingMIS: 1-bit beeps, exponential probability updates."""

    #: BeepingMIS nodes draw a coin every other round until they decide:
    #: at n = 10^5 (random 4-regular), a head of 4 left a generator with
    #: 23% of the nodes (57 MB), a head of 8 with 3%.
    head_draws = 8

    @classmethod
    def supports(cls, rows: Sequence[Sequence[object]]) -> bool:
        return True  # per-node probabilities and budgets are arrays

    def _per_node(self, attribute: str, dtype) -> "np.ndarray":
        """``(B, n)`` array of an instance attribute (a template row
        broadcasts across its replica)."""
        values = np.array([[getattr(inst, attribute) for inst in row]
                           for row in self.rows], dtype=dtype)
        return np.broadcast_to(values, self.live0.shape).copy()

    def run(self, max_rounds: int) -> "np.ndarray":
        active = self.live0.copy()
        probability = self._per_node("probability", np.float64)
        timeout_round = 2 * self._per_node("max_steps", np.int64)
        coins = np.zeros(active.shape, dtype=np.float64)
        marked = np.zeros_like(active)
        heard_mark = np.zeros_like(active)
        in_mis = np.zeros_like(active)
        dominated = np.zeros_like(active)
        timed_out = np.zeros_like(active)
        rounds = np.zeros(self.replicas, dtype=np.int64)

        for round_number in range(1, max_rounds + 1):
            replica_active = active.any(axis=1)
            if not replica_active.any():
                break
            rounds[replica_active] = round_number
            if round_number % 2 == 1:
                self._draw(coins, active)
                marked = active & (coins < probability)
                self.accountant.broadcast_round(marked, 1)
                heard_mark = self.segments.any_neighbor(marked)
                halved = probability / 2.0
                doubled = np.minimum(0.5, 2.0 * probability)
                probability = np.where(
                    active, np.where(heard_mark, halved, doubled), probability)
            else:
                joiners = active & marked & ~heard_mark
                self.accountant.broadcast_round(joiners, 1)
                losers = (active & ~joiners
                          & self.segments.any_neighbor(joiners))
                expired = (active & ~joiners & ~losers
                           & (round_number >= timeout_round))
                in_mis |= joiners
                dominated |= losers
                timed_out |= expired
                active &= ~(joiners | losers | expired)
        self.accountant.flush()
        self.outcome = {"in_set": in_mis, "dominated": dominated,
                        "timed_out": timed_out, "active": active,
                        "probability": probability, "marked": marked,
                        "heard_mark": heard_mark}
        return rounds

    def writeback(self) -> None:
        outcome = self.outcome
        for replica, instances in enumerate(self.rows):
            for index in np.flatnonzero(outcome["in_set"][replica]):
                instance = instances[index]
                instance.decided = instance.in_mis = True
                instance.halt(True)
            for index in np.flatnonzero(outcome["dominated"][replica]):
                instance = instances[index]
                instance.decided = True
                instance.halt(False)
            for index in np.flatnonzero(outcome["timed_out"][replica]):
                instances[index].halt(False)  # decided stays False
            # Out of rounds mid-protocol: hand the state back.
            for index in np.flatnonzero(outcome["active"][replica]):
                instance = instances[index]
                instance.probability = float(
                    outcome["probability"][replica, index])
                instance.marked = bool(outcome["marked"][replica, index])
                instance.heard_mark = bool(
                    outcome["heard_mark"][replica, index])


class _PowerFloodKernel(ArrayKernel):
    """The ``2k``-sub-round power-graph floods of :mod:`repro.mis.power_sim`:
    min-flood over ``k`` hops, winner-flag flood over ``k`` hops, relay
    halting.  ``G^k`` is never materialised -- every sub-round is one
    segment reduction over the *base* CSR arrays."""

    @classmethod
    def supports(cls, rows: Sequence[Sequence[object]]) -> bool:
        if not super().supports(rows):
            return False
        k = getattr(rows[0][0], "k", None)
        if not (isinstance(k, int) and k >= 1):
            return False
        return all(getattr(inst, "k", None) == k
                   for row in rows for inst in row)

    def run(self, max_rounds: int) -> "np.ndarray":
        shape = self.live0.shape
        ids = self.ids
        k = self.rows[0][0].k
        period = 2 * k

        live = self.live0.copy()
        undecided = live.copy()
        in_mis = np.zeros(shape, dtype=bool)
        dominated = np.zeros(shape, dtype=bool)
        halted = np.zeros(shape, dtype=bool)
        pair_v = np.zeros(shape, dtype=np.int64)
        pair_i = ids.copy()
        best_v = np.full(shape, _SENTINEL, dtype=np.int64)
        best_i = np.full(shape, _SENTINEL, dtype=np.int64)
        heard_any = np.zeros(shape, dtype=bool)
        heard_flag = np.zeros(shape, dtype=bool)
        improved = np.zeros(shape, dtype=bool)
        flag_new = np.zeros(shape, dtype=bool)
        rounds = np.zeros(self.replicas, dtype=np.int64)

        for round_number in range(1, max_rounds + 1):
            replica_active = live.any(axis=1)
            if not replica_active.any():
                break
            rounds[replica_active] = round_number
            sub = (round_number - 1) % period + 1
            if sub <= k:
                # ----------------------------------- phase A: min-flood
                if sub == 1:
                    heard_any.fill(False)
                    heard_flag.fill(False)
                    flag_new.fill(False)
                    best_v.fill(_SENTINEL)
                    best_i.fill(_SENTINEL)
                    senders = undecided
                    if self.randomized:
                        self._draw(pair_v, undecided)
                    best_v[undecided] = pair_v[undecided]
                    best_i[undecided] = pair_i[undecided]
                else:
                    senders = live & improved
                if self.randomized:
                    # (value, id) tuples: value bits + id bits + tuple bit.
                    payload_bits = (_int_message_bits(best_v)
                                    + _int_message_bits(best_i) + 1)
                else:
                    payload_bits = _int_message_bits(best_i)
                self.accountant.broadcast_round(senders, payload_bits)
                min_v, min_i = self.segments.min_pair_over_active(
                    best_v, best_i, senders)
                smaller = live & (
                    (min_v < best_v)
                    | ((min_v == best_v) & (min_i < best_i)))
                best_v = np.where(smaller, min_v, best_v)
                best_i = np.where(smaller, min_i, best_i)
                improved = smaller
                heard_any |= live & self.segments.any_neighbor(senders)
                if sub == k:
                    # Relays with no undecided node within distance k halt.
                    quiet = live & ~undecided & ~heard_any
                    halted |= quiet
                    live &= ~quiet
            else:
                # ----------------------------- phase B: winner-flag flood
                if sub == k + 1:
                    senders = (undecided & (best_v == pair_v)
                               & (best_i == pair_i))
                    heard_flag |= senders
                else:
                    senders = live & flag_new
                self.accountant.broadcast_round(senders, 1)
                incoming = live & self.segments.any_neighbor(senders)
                flag_new = incoming & ~heard_flag
                heard_flag |= incoming
                if sub == period:
                    winners = (undecided & (best_v == pair_v)
                               & (best_i == pair_i))
                    new_dominated = undecided & ~winners & heard_flag
                    in_mis |= winners
                    dominated |= new_dominated
                    undecided &= ~(winners | new_dominated)
        self.accountant.flush()
        self.outcome = {"in_set": in_mis, "dominated": dominated,
                        "halted": halted}
        return rounds

    def writeback(self) -> None:
        in_mis = self.outcome["in_set"]
        for replica, instances in enumerate(self.rows):
            node_class = type(instances[0])
            for index in np.flatnonzero(in_mis[replica]):
                instances[index].state = node_class.IN_MIS
            for index in np.flatnonzero(self.outcome["dominated"][replica]):
                instances[index].state = node_class.DOMINATED
            for index in np.flatnonzero(self.outcome["halted"][replica]):
                instances[index].halt(bool(in_mis[replica, index]))


class _PowerLubyKernel(_PowerFloodKernel):
    """Luby MIS on ``G^k``: priorities flooded ``k`` hops."""

    randomized = True


class _PowerDetRulingKernel(_PowerFloodKernel):
    """Deterministic distance-``k`` ruling set: ID minima flooded ``k``
    hops."""

    randomized = False


#: The kernel of each supported node class, keyed by the exact class's
#: dotted name (keys, not classes: the node modules import this package).
_KERNELS: dict[str, type[ArrayKernel]] = {
    "repro.mis.luby.LubyMISNode": _LubyKernel,
    "repro.mis.beeping.BeepingMISNode": _BeepingKernel,
    "repro.ruling.distributed.DetRulingSetNode": _DetRulingKernel,
    "repro.mis.power_sim.PowerLubyMISNode": _PowerLubyKernel,
    "repro.mis.power_sim.PowerDetRulingNode": _PowerDetRulingKernel,
}


def eligible_kernel(instances: Sequence[object], observers=(), *,
                    half_duplex: bool = False,
                    profile_slots: bool = False) -> type[ArrayKernel] | None:
    """The kernel that may execute ``instances``, or ``None`` (fallback).

    The one eligibility rule of solo runs and replica batches (see the
    module docstring); ``observers`` are the explicit and ambient ones
    together.  The kernel's own :meth:`~ArrayKernel.supports` gate still
    applies once the instances are initialized.
    """
    if np is None or not instances or half_duplex or profile_slots:
        return None
    if any(not getattr(observer, "vector_compatible", False)
           for observer in observers):
        # Round/message hooks never fire on the array path, so only
        # observers that declare themselves run-level-only may ride it.
        return None
    node_class = type(instances[0])
    kernel_class = _KERNELS.get(
        f"{node_class.__module__}.{node_class.__qualname__}")
    if kernel_class is None:
        return None
    if any(type(instance) is not node_class for instance in instances):
        return None
    return kernel_class


# ------------------------------------------------------------------- engine
class VectorEngine(RoundEngine):
    """Array scheduler; falls back to :class:`SyncEngine` when the run is
    not vectorizable (see the module docstring for the exact rules).

    After every ``run`` the engine records which backend actually executed in
    :attr:`last_engine_used` (``"vector"`` or the fallback's name); the
    simulator copies it into ``SimulationResult.engine_used``.  A fallback
    additionally emits a :class:`VectorFallbackWarning` so benchmarks cannot
    silently measure the wrong backend.
    """

    name = "vector"

    def __init__(self, fallback: RoundEngine | None = None) -> None:
        self.fallback = fallback if fallback is not None else SyncEngine()
        self.last_engine_used = self.name

    def run(self, runtime: Runtime, max_rounds: int) -> int:
        kernel_class = self.select_kernel(runtime)
        if kernel_class is None:
            self.last_engine_used = self.fallback.name
            node_class = (type(runtime.instances[0]).__name__
                          if runtime.instances else "(no instances)")
            warnings.warn(
                f"engine='vector' fell back to '{self.fallback.name}' for "
                f"{node_class} (no array kernel applies; results are "
                f"bit-identical, performance is not)",
                VectorFallbackWarning, stacklevel=3)
            return self.fallback.run(runtime, max_rounds)
        self.last_engine_used = self.name
        kernel = kernel_class.over_instances(
            [runtime.topology], [runtime.instances], [runtime.transport])
        rounds = kernel.run(max_rounds)
        kernel.writeback()
        return int(rounds[0])

    @staticmethod
    def select_kernel(runtime: Runtime) -> type[ArrayKernel] | None:
        """The kernel that will execute the initialized ``runtime``, or
        ``None`` (fallback).

        Exposed for tests and diagnostics: asserting a workload really takes
        the array path is part of the differential matrix.
        """
        kernel_class = eligible_kernel(
            runtime.instances, runtime.observers,
            half_duplex=runtime.transport.half_duplex,
            profile_slots=runtime.transport.profile_slots)
        if kernel_class is None or not kernel_class.supports(
                [runtime.instances]):
            return None
        return kernel_class


register_engine(VectorEngine.name, VectorEngine, "numpy")
