"""The uniform solve result: :class:`RunReport` with :class:`Provenance`.

A :class:`RunReport` unifies the per-module result dataclasses
(``LubyResult``, ``PowerMISResult``, ``DetRulingSetResult``, ...) behind one
shape: the solution node set, the charged/simulated round count, JSON-ready
``metrics``, live ``payload`` objects consumed by the certifier, the
provenance block identifying the run, and (when verification is on) the
attached :class:`~repro.api.certify.Certificate`.

Reproducibility contract: the provenance block alone identifies the run.
``provenance.seed`` is the concrete integer that drove every random choice
(derived with :func:`repro.hashing.seeds.derive_seed` when the caller did
not pass one), so ``solve(graph, provenance.algorithm, seed=provenance.seed,
**provenance.config_dict)`` reproduces the report bit-for-bit on any graph
with the same fingerprint -- :func:`repro.api.replay` does exactly that.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

import networkx as nx

from repro.api.certify import Certificate
from repro.congest.topology import forget_graph

Node = Hashable

__all__ = ["Provenance", "RunReport", "graph_fingerprint",
           "invalidate_fingerprint"]

#: Per-object fingerprint memo.  Keyed by graph *identity* (weak references,
#: so retired graphs cost nothing) -- see ``graph_fingerprint`` for the
#: invalidation contract.
_FINGERPRINT_MEMO: "weakref.WeakKeyDictionary[nx.Graph, str]" = (
    weakref.WeakKeyDictionary())

#: Edge count at which ``graph_fingerprint`` switches from the sorted form
#: to the streaming merkle-style form.  Below the threshold the historical
#: sorted digest is kept bit-for-bit (locked by the golden fingerprint
#: tests); above it sorting every edge label would dominate the solve path,
#: so the fingerprint is the one-pass combination of per-item hashes.
_STREAMING_FINGERPRINT_THRESHOLD = 100_000


def invalidate_fingerprint(graph: nx.Graph) -> None:
    """Drop every per-graph memo of ``graph`` (call after mutating it): the
    fingerprint and the shared topology structure with its ``G^k`` views."""
    _FINGERPRINT_MEMO.pop(graph, None)
    forget_graph(graph)


def graph_fingerprint(graph: nx.Graph) -> str:
    """A stable hex fingerprint of the graph's labelled structure.

    Hashes the sorted node and edge lists (by string representation), so the
    value is independent of insertion order, process and Python invocation --
    the graph-identity half of the reproducibility contract.

    The value is memoized per graph *object* (weak-ref keyed): computing it
    re-sorts every node and edge, which is a hot-path cost the solve and
    service layers would otherwise pay on every request.  Invalidation
    contract: the memo is keyed by object identity and is **not** watched
    for mutation -- a graph mutated after its first fingerprint keeps
    returning the stale value until :func:`invalidate_fingerprint` is
    called (or a new graph object is built).  The library itself never
    mutates a graph after fingerprinting it.
    """
    try:
        cached = _FINGERPRINT_MEMO.get(graph)
    except TypeError:  # non-weakrefable graph subclass: compute uncached
        cached = None
    else:
        if cached is not None:
            return cached
    if graph.number_of_edges() >= _STREAMING_FINGERPRINT_THRESHOLD:
        fingerprint = _streaming_fingerprint(graph)
    else:
        fingerprint = _sorted_fingerprint(graph)
    try:
        _FINGERPRINT_MEMO[graph] = fingerprint
    except TypeError:
        pass
    return fingerprint


def _sorted_fingerprint(graph: nx.Graph) -> str:
    """The historical sorted-list digest (kept bit-for-bit for small graphs)."""
    digest = hashlib.sha256()
    digest.update(f"n={graph.number_of_nodes()};m={graph.number_of_edges()};".encode())
    for node in sorted(graph.nodes(), key=str):
        digest.update(f"v:{node!r};".encode())
    for u, v in sorted((sorted((u, v), key=str) for u, v in graph.edges()),
                       key=lambda edge: (str(edge[0]), str(edge[1]))):
        digest.update(f"e:{u!r}|{v!r};".encode())
    return digest.hexdigest()[:16]


_HASH_MODULUS = 1 << 256


def _streaming_fingerprint(graph: nx.Graph) -> str:
    """One-pass merkle-style digest: order-independent without sorting.

    Each node and each (endpoint-normalised) edge is hashed independently
    and the per-item digests are combined with modular addition -- a
    commutative, associative accumulator, so the value is independent of
    iteration order exactly like the sorted form, but computed in a single
    pass over the edge list with O(1) working memory (two 256-bit
    accumulators) instead of materialising and sorting ``O(E)`` label
    tuples.  Node/edge multisets are free of duplicates in a simple graph,
    so the additive combination has no cancellation pitfall.

    The item encodings reuse the sorted form's ``v:``/``e:`` framing, but
    the combined digest is intentionally domain-separated (``merkle;``
    prefix): the two forms are distinct hash functions and are never
    expected to collide across the size threshold.
    """
    sha256, from_bytes = hashlib.sha256, int.from_bytes

    def edge_items():
        for u, v in graph.edges():
            if str(v) < str(u):  # endpoints in str order, as ``sorted`` would
                u, v = v, u
            yield f"e:{u!r}|{v!r};"

    # The sums reduced once at the end: the same residues as reducing
    # after every addition.
    node_acc = sum(from_bytes(sha256(f"v:{node!r};".encode()).digest(), "big")
                   for node in graph.nodes()) % _HASH_MODULUS
    edge_acc = sum(from_bytes(sha256(item.encode()).digest(), "big")
                   for item in edge_items()) % _HASH_MODULUS
    digest = hashlib.sha256()
    digest.update(
        f"merkle;n={graph.number_of_nodes()};m={graph.number_of_edges()};".encode())
    digest.update(node_acc.to_bytes(32, "big"))
    digest.update(edge_acc.to_bytes(32, "big"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Provenance:
    """Who computed what, on which graph, with which randomness."""

    algorithm: str
    problem: str
    config: tuple[tuple[str, Any], ...]
    seed: int
    seed_policy: str  # "explicit" (caller-supplied) or "derived" (derive_seed)
    graph_fingerprint: str
    n: int
    m: int
    library_version: str = ""

    @property
    def config_dict(self) -> dict[str, Any]:
        return dict(self.config)

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "Provenance":
        """Rebuild a provenance block from its :meth:`to_row` dict.

        Inverse of :meth:`to_row` up to JSON's type system: the ``config``
        mapping is re-canonicalised into the sorted tuple form, so
        ``Provenance.from_row(p.to_row()) == p`` for every provenance the
        solve path produces.
        """
        return cls(
            algorithm=str(row["algorithm"]),
            problem=str(row["problem"]),
            config=tuple(sorted(dict(row.get("config") or {}).items())),
            seed=int(row["seed"]),
            seed_policy=str(row.get("seed_policy", "explicit")),
            graph_fingerprint=str(row["graph_fingerprint"]),
            n=int(row["n"]),
            m=int(row["m"]),
            library_version=str(row.get("library_version", "")),
        )

    def to_row(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "problem": self.problem,
            "config": self.config_dict,
            "seed": self.seed,
            "seed_policy": self.seed_policy,
            "graph_fingerprint": self.graph_fingerprint,
            "n": self.n,
            "m": self.m,
            "library_version": self.library_version,
        }


@dataclass
class RunReport:
    """The uniform result of one :func:`repro.solve` call."""

    output: set[Node]
    rounds: int
    provenance: Provenance
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Live Python objects consumed by the certifier and downstream callers
    #: (sparsification sequences, ID assignments, verification bounds, the
    #: native result object under ``"result"``); never serialised.
    payload: dict[str, Any] = field(default_factory=dict)
    certificate: Certificate | None = None

    @property
    def algorithm(self) -> str:
        return self.provenance.algorithm

    @property
    def problem(self) -> str:
        return self.provenance.problem

    @property
    def verified(self) -> bool:
        """True iff a certificate was produced and every check passed."""
        return self.certificate is not None and self.certificate.ok

    @property
    def ok(self) -> bool:
        """Certificate verdict; an unverified report is not counted as failed."""
        return self.certificate.ok if self.certificate is not None else True

    @property
    def result(self) -> Any:
        """The algorithm's native result object (``None`` for plain-set outputs)."""
        return self.payload.get("result")

    def to_row(self) -> dict[str, Any]:
        """A JSON-serialisable row (for stores, tables and benchmark sweeps)."""
        row: dict[str, Any] = {
            "algorithm": self.algorithm,
            "problem": self.problem,
            "rounds": self.rounds,
            "output_size": len(self.output),
            "metrics": dict(self.metrics),
            "provenance": self.provenance.to_row(),
        }
        if self.certificate is not None:
            row["certificate"] = self.certificate.to_row()
        return row

    def summary(self) -> str:
        verdict = ("unverified" if self.certificate is None
                   else self.certificate.summary())
        return (f"{self.algorithm} [{self.problem}] on "
                f"n={self.provenance.n} m={self.provenance.m} "
                f"(seed={self.provenance.seed}, {self.provenance.seed_policy}): "
                f"|output|={len(self.output)}, rounds={self.rounds}, {verdict}")
