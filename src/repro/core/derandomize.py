"""Derandomizing one sparsification stage (Section 5.2, Claim 5.6).

The paper derandomizes the sampling of one stage with the method of
conditional expectations applied to the ``gamma = Theta(log^2 n)`` random
bits that select an ``8 log n``-wise independent hash function: the bits are
fixed one by one, each time choosing the value that minimises the expected
number of bad events ``sum_v Phi_v + Psi_v``, where the per-node conditional
expectations are aggregated at a leader via a convergecast over a spanning
BFS tree (Claim 5.6).  Because no event has probability more than ``1/n^3``,
the initial expectation is below 1 and the final (fully determined) seed
makes no event occur.

This module implements two derandomizers for one stage:

:func:`derandomize_stage_seed_bits`
    The faithful bit-by-bit procedure.  Exact conditional expectations over
    a ``2^{gamma}``-sized seed space are not computable on real hardware
    (the paper's nodes have unbounded local computation), so conditional
    expectations are *estimated* by averaging over random completions of the
    current prefix (exact enumeration is used automatically once the number
    of remaining bits is small).  The resulting sampled set is verified
    against the events and repaired with
    :func:`derandomize_stage_per_variable` in the (rare) case a bad event
    survived the estimation error.

:func:`derandomize_stage_per_variable`
    An exact derandomizer that applies the method of conditional
    expectations directly to the per-node sampling decisions ``X_v`` (in ID
    order), using closed-form conditional expectations (a binomial tail for
    ``Psi`` and a product for ``Phi``).  It is deterministic, runs in
    ``O(sum_v d_s(v, H_i))`` time per stage (per-node counters updated as
    each ``X_w`` is fixed, see :func:`conditional_expectations`), and
    provably ends with zero bad events whenever the initial expectation is
    below 1 -- which Lemma 5.4's bounds guarantee.  It is the default used
    inside DetSparsification; the experiments charge rounds according to
    the paper's seed-bit procedure either way (see DESIGN.md,
    substitution 4).

Set-order contract: each decision compares two float sums over the
affected events, and a float sum depends on the order of its terms.  The
sums run in the iteration order of ``events.dependent_nodes(w)`` -- ``w``,
then ``w``'s ``G^s`` row in ascending node index, the same insertions as a
scan of every node's active row (:mod:`repro.core.events`) -- and skip
only terms that are exactly 0.0, so decisions and ties are bit-identical
to the direct ``total_expectation`` evaluation.  The counters that carry
a decision forward are updated over the same row: no reverse index is
built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping

from repro.core.events import SparsificationStageEvents
from repro.hashing.kwise import KWiseHashFamily, KWiseHashFunction
from repro.hashing.seeds import BitSeed

Node = Hashable

__all__ = [
    "DerandomizationOutcome",
    "conditional_expectations",
    "derandomize_stage_per_variable",
    "derandomize_stage_seed_bits",
]


@dataclass
class DerandomizationOutcome:
    """The sampled set chosen by a derandomizer, plus diagnostics."""

    sampled: set[Node]
    method: str
    seed: BitSeed | None = None
    repaired: bool = False
    bits_fixed: int = 0
    residual_phi: set[Node] = field(default_factory=set)
    residual_psi: set[Node] = field(default_factory=set)

    @property
    def clean(self) -> bool:
        """True iff no bad event occurs for the chosen sampled set."""
        return not self.residual_phi and not self.residual_psi


# --------------------------------------------------------------------------
# Exact per-variable method of conditional expectations.
# --------------------------------------------------------------------------
def derandomize_stage_per_variable(events: SparsificationStageEvents,
                                   order: list[Node] | None = None,
                                   ) -> DerandomizationOutcome:
    """Fix the sampling decisions ``X_v`` one at a time, greedily.

    The decision order defaults to sorted-by-string node order (any fixed
    order works; the guarantee only needs the conditional expectation to be
    non-increasing).  For each variable the conditional expectation of the
    affected events is computed exactly for both choices and the smaller one
    is kept.
    """
    active_order = order if order is not None else sorted(events.active, key=str)
    sampled = {variable for variable, _, _, decision
               in conditional_expectations(events, active_order) if decision}
    phi, psi = events.bad_events(sampled)
    return DerandomizationOutcome(sampled=sampled, method="per-variable",
                                  residual_phi=phi, residual_psi=psi)


def conditional_expectations(events: SparsificationStageEvents,
                             order: Iterable[Node],
                             ) -> Iterator[tuple[Node, float, float, bool]]:
    """Run the per-variable method, yielding one row per decided variable.

    Each row is ``(w, E[bad | X_w = 0], E[bad | X_w = 1], X_w)`` where the
    expectations cover the events of ``events.dependent_nodes(w)`` under
    the decisions fixed so far; repeated variables in ``order`` are skipped.

    Four counters per node, updated as each ``X_w`` is fixed, make every
    term O(1): sampled and undecided variables of ``Psi_v`` (the active
    neighbors), whether some variable of ``Phi_v`` is sampled, and the
    undecided variables of ``Phi_v``.  Only *live* nodes carry counters:
    ``Phi_v`` is 0.0 unless ``v`` is high-degree, and ``Psi_v`` is 0.0
    unless ``v`` has more than ``72 log n`` active neighbors.  The nodes
    whose counters ``X_w`` moves are the live ones of
    ``dependent_nodes(w)``.  One stage thus costs ``O(sum_v d_s(v, H_i))``,
    and ``O(|H_i|)`` when no node is live.

    The set-order contract: the terms are summed in the iteration order of
    ``events.dependent_nodes(w)``, the set the direct evaluation
    ``events.total_expectation(fixed, affected)`` sums over.  Skipped terms
    are exactly 0.0, and adding 0.0 leaves a float sum unchanged, so every
    comparison and tie is bit-identical to it.
    """
    phi_live = events.high_degree_nodes
    psi_live = events.psi_nodes
    live = phi_live | psi_live
    active = events.active
    psi_tail = events.psi_tail
    unsampled = 1.0 - events.probability
    # A row never lists its own node: X_v is a variable of Phi_v only as
    # v's own decision, and never one of Psi_v.
    psi_sampled = dict.fromkeys(psi_live, 0)
    psi_unfixed = {node: events.active_degree(node) for node in psi_live}
    phi_unfixed = {node: events.active_degree(node) + (node in active)
                   for node in phi_live}
    phi_sampled: set[Node] = set()

    decided: set[Node] = set()
    for variable in order:
        if variable in decided:
            continue
        decided.add(variable)
        if not live:  # every term is 0.0
            yield variable, 0.0, 0.0, False
            continue
        affected = events.dependent_nodes(variable)
        if_zero = if_one = 0.0
        for node in affected:
            if node not in live:
                continue
            # Is X_variable one of Psi_node's (and hence Phi_node's) variables?
            member = node != variable
            if node in phi_live and node not in phi_sampled:
                phi_member = member or variable in active
                term = unsampled ** (phi_unfixed[node] - phi_member)
                if_zero += term
                if not phi_member:
                    if_one += term
            if node in psi_live:
                sampled, unfixed = psi_sampled[node], psi_unfixed[node]
                if member:
                    if_zero += psi_tail(sampled, unfixed - 1)
                    if_one += psi_tail(sampled + 1, unfixed - 1)
                else:
                    term = psi_tail(sampled, unfixed)
                    if_zero += term
                    if_one += term

        # Strictly smaller wins; ties (in particular the common case where
        # both conditional expectations underflow to 0.0 because many
        # variables are still free) keep the node unsampled, which keeps the
        # output sparse -- the expectation argument re-engages as soon as the
        # remaining slack becomes representable.
        decision = if_one < if_zero
        yield variable, if_zero, if_one, decision

        if variable not in active:  # no event has X_variable as a variable
            continue
        for node in affected:
            if node not in live:
                continue
            if node in psi_live and node != variable:
                psi_unfixed[node] -= 1
                psi_sampled[node] += decision
            if node in phi_live:
                phi_unfixed[node] -= 1
                if decision:
                    phi_sampled.add(node)


# --------------------------------------------------------------------------
# Faithful bit-by-bit seed fixing (Claim 5.6).
# --------------------------------------------------------------------------
def _estimate_expectation(events: SparsificationStageEvents,
                          family: KWiseHashFamily,
                          node_ids: Mapping[Node, int],
                          prefix: BitSeed,
                          rng: random.Random,
                          samples: int) -> float:
    """Estimate ``E[sum_v Phi_v + Psi_v | seed prefix]``.

    Averages the exact (deterministic) event count over ``samples`` random
    completions of the prefix; when few bits remain, enumerates all
    completions exactly.
    """
    remaining = family.seed_bits - len(prefix)
    completions: list[BitSeed] = []
    if remaining <= 0:
        completions.append(prefix)
    elif 2 ** remaining <= samples:
        for value in range(2 ** remaining):
            bits = [(value >> shift) & 1 for shift in range(remaining - 1, -1, -1)]
            completions.append(BitSeed(list(prefix) + bits))
    else:
        for _ in range(samples):
            bits = [rng.randrange(2) for _ in range(remaining)]
            completions.append(BitSeed(list(prefix) + bits))

    total = 0.0
    for completion in completions:
        hash_function = family.from_seed(completion)
        sampled = events.evaluate_with_hash(hash_function, node_ids)
        phi, psi = events.bad_events(sampled)
        total += len(phi) + len(psi)
    return total / max(1, len(completions))


def derandomize_stage_seed_bits(events: SparsificationStageEvents,
                                node_ids: Mapping[Node, int],
                                *,
                                independence: int | None = None,
                                samples_per_bit: int = 8,
                                rng: random.Random | None = None,
                                repair: bool = True,
                                ) -> DerandomizationOutcome:
    """Claim 5.6: fix the seed of a k-wise independent hash family bit by bit.

    Parameters
    ----------
    events:
        The stage's event system.
    node_ids:
        The O(log n)-bit identifiers hashed by the family.
    independence:
        Independence parameter of the family (default: a small constant so
        the simulation stays fast; the paper uses ``8 log n``).
    samples_per_bit:
        Number of random completions used to estimate each conditional
        expectation.  The estimation error is irrelevant in practice because
        every completion is itself a valid random seed whose bad-event count
        is almost surely zero; the verification + repair step below keeps the
        output guarantee unconditional.
    rng:
        Randomness for the estimation (NOT for the output: the chosen seed is
        a deterministic function of the estimates).
    repair:
        When true, fall back to the exact per-variable derandomizer if the
        chosen seed leaves a bad event.
    """
    rng = rng or random.Random(0)
    if not events.active:
        return DerandomizationOutcome(sampled=set(), method="seed-bits", seed=BitSeed())
    if independence is None:
        independence = 4
    family = KWiseHashFamily(independence=independence,
                             domain=max(node_ids.values()) + 1,
                             output_range=2 ** 16)

    prefix = BitSeed()
    for _ in range(family.seed_bits):
        expectation_zero = _estimate_expectation(events, family, node_ids,
                                                 prefix.extended(0), rng, samples_per_bit)
        expectation_one = _estimate_expectation(events, family, node_ids,
                                                prefix.extended(1), rng, samples_per_bit)
        prefix = prefix.extended(0 if expectation_zero <= expectation_one else 1)

    hash_function: KWiseHashFunction = family.from_seed(prefix)
    sampled = events.evaluate_with_hash(hash_function, node_ids)
    phi, psi = events.bad_events(sampled)
    outcome = DerandomizationOutcome(sampled=sampled, method="seed-bits", seed=prefix,
                                     bits_fixed=family.seed_bits,
                                     residual_phi=phi, residual_psi=psi)
    if outcome.clean or not repair:
        return outcome

    fallback = derandomize_stage_per_variable(events)
    fallback.method = "seed-bits+repair"
    fallback.seed = prefix
    fallback.repaired = True
    fallback.bits_fixed = family.seed_bits
    return fallback
