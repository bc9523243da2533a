"""Analytic round-cost accounting (the "round ledger").

The power-graph algorithms of the paper are built from a small set of
communication primitives whose CONGEST round costs are established once and
for all in Section 4 (Lemmas 4.1-4.3, 4.6) and Claim 5.6.  Re-simulating
every one of those primitives message-by-message would make the Python
simulation quadratic or worse in ``n`` for no experimental benefit: the
experiments measure *round counts*, and the round counts of the primitives
are exactly the closed forms proven in the paper.

The :class:`RoundLedger` therefore lets an algorithm perform its computation
at the graph level while *charging* rounds for every communication step it
performs, with one labelled entry per primitive invocation (a run of
seed bits fixed back to back, or of rounds simulated on ``G^s[Q]``, is one
entry).  Benchmarks sum
the ledger to obtain the algorithm's round complexity and can break it down
by phase (pre-shattering, sparsification stages, network decomposition, ...).

The costs charged for the primitives follow the paper:

=====================================  =============================================
primitive                              rounds charged
=====================================  =============================================
one hop of flooding / BFS level        1
learning distance-(s+1) Q-IDs          ``ceil(hat_delta * a / bandwidth)``   (Lemma 4.1)
Broadcast from Q to N^s(Q)             ``s + ceil(m * hat_delta / bandwidth)``  (Lemma 4.2)
Q-message                              ``s + ceil((m + a) * hat_delta^2 / bandwidth)`` (Lemma 4.2)
convergecast in a spanning tree        ``diam + ceil((m + log n) / bandwidth)``  (Lemma 4.3)
one simulated round on G^s[Q]          ``s + ceil((m + a) * hat_delta^2 / bandwidth)`` (Lemma 4.6)
fixing one seed bit (Claim 5.6)        ``2 * diam + O(1)``  (convergecast + broadcast of the bit)
=====================================  =============================================

All charges take the ceiling of the bandwidth division and are at least 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["RoundLedger"]


@dataclass
class LedgerEntry:
    label: str
    rounds: int


@dataclass
class RoundLedger:
    """Accumulates labelled round charges for one algorithm execution.

    A running total is kept next to ``entries``, so :attr:`total_rounds`
    costs O(1); append charges through :meth:`charge` and :meth:`merge`.
    """

    bandwidth_bits: int = 64
    entries: list[LedgerEntry] = field(default_factory=list)
    _total: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._total = sum(entry.rounds for entry in self.entries)

    # ------------------------------------------------------------- charging
    def charge(self, rounds: float, label: str) -> int:
        """Charge ``rounds`` (rounded up, at least 1 if positive) under ``label``."""
        rounded = int(math.ceil(rounds))
        if rounds > 0:
            rounded = max(1, rounded)
        if rounded > 0:
            self.entries.append(LedgerEntry(label=label, rounds=rounded))
            self._total += rounded
        return rounded

    def charge_flooding(self, hops: int, label: str = "flooding") -> int:
        """``hops`` rounds of flooding / beeps propagated ``hops`` hops."""
        return self.charge(hops, label)

    def charge_learn_ids(self, hat_delta: int, id_bits: int,
                         label: str = "learn-distance-ids") -> int:
        """Lemma 4.1: pipeline ``hat_delta`` IDs of ``id_bits`` bits over one hop."""
        return self.charge(math.ceil(hat_delta * id_bits / self.bandwidth_bits), label)

    def charge_broadcast(self, s: int, message_bits: int, hat_delta: int,
                         label: str = "broadcast") -> int:
        """Lemma 4.2 (Broadcast): ``O(s + m * hat_delta / bandwidth)`` rounds."""
        return self.charge(s + math.ceil(message_bits * hat_delta / self.bandwidth_bits), label)

    def _q_message_rounds(self, s: int, message_bits: int, id_bits: int,
                          hat_delta: int) -> int:
        payload = (message_bits + id_bits) * hat_delta * hat_delta
        return s + math.ceil(payload / self.bandwidth_bits)

    def charge_q_message(self, s: int, message_bits: int, id_bits: int, hat_delta: int,
                         label: str = "q-message") -> int:
        """Lemma 4.2 (Q-message): ``O(s + (m + a) * hat_delta^2 / bandwidth)`` rounds."""
        return self.charge(self._q_message_rounds(s, message_bits, id_bits, hat_delta), label)

    def charge_convergecast(self, diameter: int, message_bits: int,
                            label: str = "convergecast") -> int:
        """Lemma 4.3: aggregate an ``m``-bit value at the root of a spanning tree."""
        extra = math.ceil((message_bits + math.ceil(math.log2(max(2, diameter + 2)))) /
                          self.bandwidth_bits)
        return self.charge(diameter + extra, label)

    def charge_simulated_round(self, s: int, message_bits: int, id_bits: int,
                               hat_delta: int, label: str = "simulate-Gs[Q]",
                               rounds: int = 1) -> int:
        """Lemma 4.6: ``rounds`` rounds of a CONGEST algorithm on ``G^s[Q]``,
        one Q-message call each, charged as one entry."""
        return self.charge(max(0, rounds) * self._q_message_rounds(
            s, message_bits, id_bits, hat_delta), label)

    def charge_seed_bit(self, diameter: int, label: str = "fix-seed-bit",
                        bits: int = 1) -> int:
        """Claim 5.6: one bit = convergecast of the two sums + broadcast of the
        choice; ``bits`` bits fixed one after another go in one entry."""
        return self.charge(bits * (2 * max(1, diameter) + 1), label)

    # -------------------------------------------------------------- queries
    @property
    def total_rounds(self) -> int:
        return self._total

    def rounds_by_label(self) -> dict[str, int]:
        """Total rounds grouped by label (phase breakdown for the benchmarks)."""
        grouped: dict[str, int] = {}
        for entry in self.entries:
            grouped[entry.label] = grouped.get(entry.label, 0) + entry.rounds
        return grouped

    def merge(self, other: "RoundLedger", prefix: str = "") -> None:
        """Fold another ledger's entries into this one (optionally prefixed)."""
        self.entries.extend(
            LedgerEntry(label=f"{prefix}{entry.label}", rounds=entry.rounds)
            for entry in other.entries)
        self._total += other.total_rounds

    def subtotal(self, labels: Iterable[str]) -> int:
        wanted = set(labels)
        return sum(entry.rounds for entry in self.entries if entry.label in wanted)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RoundLedger(total={self.total_rounds}, entries={len(self.entries)})"
