"""The content-addressed solve cache: two tiers behind one ``get``/``put``.

Cache key contract
------------------
A solve is identified bit-for-bit by its :class:`~repro.api.SolvePlan` --
``(graph_fingerprint, algorithm, canonical config, seed)`` -- which is
exactly what lands in ``RunReport.provenance``.  :func:`solve_key` hashes
that tuple into a stable hex key, so two requests share a cache entry iff
``repro.solve`` would produce identical reports for them.  Derived-seed
requests are cacheable too: the plan derives the same seed from the same
``(algorithm, config, fingerprint)`` triple, so the key is concrete either
way, and a cached response's provenance (seed *and* seed policy) is
identical to what a fresh solve would produce.

Tiers
-----
Every tier holds a report as a :class:`CachedReport`: the canonical
compact text :func:`repro.api.report_to_json` writes, encoded once by the
process that solved it, plus a flag saying whether it carries a
certificate, so ``require_certificate`` is answered without a parse.

* **memory** -- a bounded LRU of :class:`CachedReport` entries.  An entry
  put from a live :class:`RunReport` keeps that object (payload included)
  for in-process callers; any other entry parses its text on first
  access to :attr:`CachedReport.report`;
* **persistent** -- rows ``{"cache_key", "stored_at", "report"}`` whose
  ``report`` is that text, written as it is (compact JSON, see
  :mod:`repro.service.jsontext`): everything but ``payload`` round-trips,
  and the stored certificate is replayed verbatim on a hit
  (re-verification is a ``replay`` away, and the test suite does exactly
  that).  A hit re-encodes the row's parsed report object once,
  compactly, and builds no :class:`RunReport`; rows written with spaced
  separators read the same way.  The rows live in a
  :class:`~repro.service.shardstore.ShardStore` keyed by ``cache_key``: a
  directory of N key-shards, each a sequence of rotated segment files
  with TTL + LRU eviction under a size budget.

* **peer** -- optional: a ``peer_fetch`` callable (installed by fleet
  workers; typically a coordinator-mediated ``GET /cache/<key>``) is
  consulted on a local miss, and a fetched report is stored into both
  local tiers, so a worker inheriting remapped keys after membership
  churn starts warm instead of recomputing.  The peer call runs *outside*
  the cache lock -- it is network I/O, and the peer being asked may need
  this very lock to answer.

Both local tiers are guarded by one lock, so the cache is safe under the
threaded HTTP server and the asyncio scheduler alike.  Every persistent
span read verifies the row's key before serving it: a stale span (a
segment was compacted or rewritten by another process) costs one rescan,
never a wrong report.

Accounting contract: :meth:`SolveCache.lookup` / :meth:`SolveCache.get`
*count* (hits/misses feed ``hit_rate``) and *promote* (LRU order, disk ->
memory); :meth:`SolveCache.peek` does neither -- it exists so read-only
surfaces like ``GET /report/<key>`` cannot distort the stats operators
alarm on, nor churn the eviction order (the bug this split fixed).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro._paths import results_path
from repro.hashing.seeds import derive_seed
from repro.service.jsontext import COMPACT, RawJSON
from repro.service.shardstore import DEFAULT_SEGMENT_BYTES, ShardStore

if TYPE_CHECKING:
    import networkx as nx

    from repro.api import RunReport, SolvePlan

__all__ = ["CacheStats", "CachedReport", "CachedSolve", "SolveCache",
           "default_cache_path", "key_for_plan", "solve_key"]


def default_cache_path() -> str:
    """``benchmarks/results/solve_cache/``, anchored by :mod:`repro._paths`."""
    return results_path("solve_cache")


def solve_key(*, algorithm: str, graph_fingerprint: str,
              config: tuple[tuple[str, Any], ...], seed: int) -> str:
    """The stable content address of one solve (see module docstring)."""
    canonical = json.dumps(
        {"algorithm": algorithm, "fingerprint": graph_fingerprint,
         "config": [[key, value] for key, value in config], "seed": seed},
        sort_keys=True, default=str)
    return format(derive_seed("repro.service.cache", canonical, bits=128),
                  "032x")


def key_for_plan(plan: SolvePlan) -> str:
    return solve_key(algorithm=plan.algorithm.name,
                     graph_fingerprint=plan.graph_fingerprint,
                     config=plan.config, seed=plan.seed)


@dataclass
class CacheStats:
    """Counters for the ``/stats`` endpoint and the benchmark gate."""

    hits: int = 0
    memory_hits: int = 0
    persistent_hits: int = 0
    peer_hits: int = 0
    peer_errors: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_row(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "persistent_hits": self.persistent_hits,
            "peer_hits": self.peer_hits,
            "peer_errors": self.peer_errors,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class CachedReport:
    """One report as its canonical compact JSON text.

    ``text`` is what every layer after the solver passes along: the memory
    tier holds it, persistent rows and HTTP bodies splice it in verbatim.
    ``certified`` says whether the report carries a certificate.
    :attr:`report` is the :class:`RunReport`, parsed on first access
    unless the entry was made from a live report.
    """

    __slots__ = ("text", "certified", "_report")

    def __init__(self, text: str, certified: bool,
                 report: RunReport | None = None) -> None:
        self.text = text
        self.certified = certified
        self._report = report

    @classmethod
    def from_report(cls, report: RunReport) -> CachedReport:
        """Encode a live report (its one ``report_to_json``)."""
        from repro.api.serialize import report_to_json

        return cls(report_to_json(report), report.certificate is not None,
                   report)

    @classmethod
    def from_text(cls, text: str) -> CachedReport:
        """Wrap :func:`repro.api.report_to_json` output without parsing it:
        sorted keys put ``certificate`` first whenever it is present."""
        return cls(text, text.startswith('{"certificate":'))

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> CachedReport:
        """Re-encode a parsed report object (a stored row's), compactly."""
        return cls(json.dumps(obj, sort_keys=True, separators=COMPACT),
                   obj.get("certificate") is not None)

    @property
    def report(self) -> RunReport:
        if self._report is None:
            from repro.api.serialize import report_from_json

            self._report = report_from_json(self.text)
        return self._report


@dataclass(frozen=True)
class CachedSolve:
    """One :meth:`SolveCache.solve` outcome: the report plus where it came from."""

    report: RunReport
    key: str
    hit: bool
    tier: str  # "memory", "persistent", "peer" or "computed"


class SolveCache:
    """Two-tier (LRU memory + sharded disk) cache of encoded reports."""

    def __init__(self, path: str | None = None, *,
                 max_memory_entries: int = 1024,
                 registry=None,
                 shards: int | None = None,
                 size_budget_bytes: int | None = None,
                 ttl_s: float | None = None,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 peer_fetch: Callable[[str], Mapping[str, Any] | None]
                 | None = None) -> None:
        """``path=None`` picks the default store; ``path=""`` disables disk.

        Any other ``path`` is the :class:`ShardStore` directory that
        ``shards``, ``size_budget_bytes``, ``ttl_s`` and
        ``max_segment_bytes`` configure; a regular file there, or a
        ``shards`` count that disagrees with the store's shard directories
        (``None`` reads it from them), is refused with ``ValueError``.
        ``peer_fetch``, when given, is called with a cache key on a local
        miss and may return a stored row (or report-JSON) fetched from a
        fleet peer.
        ``registry=None`` means the default :data:`repro.api.REGISTRY`.
        """
        if path is None:
            path = default_cache_path()
        if registry is None:
            from repro.api import REGISTRY as registry
        self.registry = registry
        self.max_memory_entries = max(1, int(max_memory_entries))
        self.peer_fetch = peer_fetch
        self._memory: "OrderedDict[str, CachedReport]" = OrderedDict()
        self._shardstore: ShardStore | None = None
        if path:
            self._shardstore = ShardStore(
                path, shards=shards, key_field="cache_key",
                max_segment_bytes=max_segment_bytes,
                size_budget_bytes=size_budget_bytes, ttl_s=ttl_s)
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def _read_persistent(self, key: str) -> CachedReport | None:
        """The persistent-tier entry for ``key`` (``None`` when absent).

        The store verifies that the bytes it reads belong to ``key`` (see
        :meth:`ShardStore.get`), so a stale span is a miss, never another
        solve's report.
        """
        if self._shardstore is None:
            return None
        row = self._shardstore.get(key)
        if row is None or not isinstance(row.get("report"), dict):
            return None
        return CachedReport.from_obj(row["report"])

    @property
    def path(self) -> str | None:
        return self._shardstore.root if self._shardstore is not None else None

    # ------------------------------------------------------------- tiers
    def _memory_put(self, key: str, entry: CachedReport) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _lookup_locked(self, key: str, require_certificate: bool, *,
                       promote: bool) -> tuple[CachedReport | None, str]:
        """Local-tier lookup; caller holds the lock and does the counting."""
        entry = self._memory.get(key)
        if entry is not None and (entry.certified or not require_certificate):
            if promote:
                self._memory.move_to_end(key)
            return entry, "memory"
        entry = self._read_persistent(key)
        if entry is not None and (entry.certified or not require_certificate):
            if promote:
                self._memory_put(key, entry)
            return entry, "persistent"
        return None, "miss"

    def lookup(self, key: str, *, require_certificate: bool = False,
               consult_peers: bool = True,
               ) -> tuple[CachedReport | None, str]:
        """``(entry, tier)`` for ``key``; ``(None, "miss")`` when absent.

        A hit parses nothing: ``entry.text`` is the stored report text and
        ``entry.report`` parses it on demand (payload empty, certificate
        replayed verbatim).  A persistent-tier hit is promoted into the
        memory tier.  ``require_certificate=True`` refuses entries stored
        by unverified solves, so a verifying caller never inherits an
        unchecked result.
        When a ``peer_fetch`` hook is installed (fleet workers) a local
        miss additionally asks the fleet -- outside the lock, since the
        peer answering may itself need a cache lock to respond -- and a
        fetched report is stored into both local tiers (tier ``"peer"``).
        ``consult_peers=False`` suppresses that network hop.
        """
        with self._lock:
            entry, tier = self._lookup_locked(key, require_certificate,
                                              promote=True)
            if entry is not None:
                self.stats.hits += 1
                if tier == "memory":
                    self.stats.memory_hits += 1
                else:
                    self.stats.persistent_hits += 1
                return entry, tier
        if consult_peers and self.peer_fetch is not None:
            entry = self._fetch_from_peer(key, require_certificate)
            if entry is not None:
                with self._lock:
                    self._memory_put(key, entry)
                    self._persist_locked(key, entry)
                    self.stats.hits += 1
                    self.stats.peer_hits += 1
                return entry, "peer"
        with self._lock:
            self.stats.misses += 1
        return None, "miss"

    def _fetch_from_peer(self, key: str,
                         require_certificate: bool) -> CachedReport | None:
        """One guarded ``peer_fetch`` call; any failure is just a miss.

        A fetched row is parsed once, so a malformed one is a peer error
        rather than a stored entry that fails later.
        """
        try:
            row = self.peer_fetch(key)
        except Exception:
            self.stats.peer_errors += 1
            return None
        if not isinstance(row, Mapping):
            return None
        from repro.api.serialize import report_from_json

        try:
            obj = row["report"] if "report" in row else row
            report = report_from_json(obj)
            text = json.dumps(obj, sort_keys=True, separators=COMPACT)
        except (KeyError, TypeError, ValueError):
            self.stats.peer_errors += 1
            return None
        if require_certificate and report.certificate is None:
            return None
        return CachedReport(text, report.certificate is not None, report)

    def get(self, key: str, *, require_certificate: bool = False,
            ) -> RunReport | None:
        """The report for ``key`` (parsed), or ``None``: :meth:`lookup`
        for in-process callers."""
        entry = self.lookup(key, require_certificate=require_certificate)[0]
        return None if entry is None else entry.report

    def peek(self, key: str, *, require_certificate: bool = False,
             ) -> tuple[CachedReport | None, str]:
        """Read-only ``lookup``: no stats accounting, no LRU churn.

        ``GET /report/<key>`` polling goes through here -- a monitoring
        loop hammering the report endpoint must not inflate ``hit_rate``
        (operators size the cache off that number) nor promote the polled
        key ahead of genuinely re-requested entries in the LRU.  A
        persistent-tier peek reads the row but does *not* promote it into
        the memory tier.  Peeks never consult fleet peers.
        """
        with self._lock:
            return self._lookup_locked(key, require_certificate,
                                       promote=False)

    def _persist_locked(self, key: str, entry: CachedReport) -> None:
        """Write one report row to the persistent tier (lock held)."""
        if self._shardstore is None:
            return
        # The store stamps ``stored_at`` (the TTL clock) on the row.
        self._shardstore.put(key, {"cache_key": key,
                                   "report": RawJSON(entry.text)})

    def put(self, key: str, report: RunReport | CachedReport) -> None:
        """Store a report in both tiers (last write wins on disk).

        A live :class:`RunReport` is encoded here, once; a
        :class:`CachedReport` (a worker's text) is stored as it is.
        """
        entry = (report if isinstance(report, CachedReport)
                 else CachedReport.from_report(report))
        with self._lock:
            self._memory_put(key, entry)
            self.stats.puts += 1
            self._persist_locked(key, entry)

    # ------------------------------------------------------- convenience
    def solve(self, graph: nx.Graph, problem_or_algorithm, *,
              seed: int | None = None, verify: bool = True,
              **config: Any) -> CachedSolve:
        """``repro.solve`` through the cache.

        Plans the request (deterministic: fingerprint, canonical config,
        derived seed), serves a stored report when the content address is
        known, and computes + stores otherwise.  With ``verify=True`` only
        certified entries count as hits.
        """
        plan = self.registry.plan(graph, problem_or_algorithm, seed=seed,
                                  **config)
        key = key_for_plan(plan)
        entry, tier = self.lookup(key, require_certificate=verify)
        if entry is not None:
            return CachedSolve(report=entry.report, key=key, hit=True,
                               tier=tier)
        report = self.registry.solve(graph, plan.algorithm, seed=seed,
                                     verify=verify, **plan.config_dict)
        self.put(key, report)
        return CachedSolve(report=report, key=key, hit=False, tier="computed")

    def warmth_summary(self) -> dict[str, Any]:
        """A compact description of how warm this cache is.

        Fleet workers advertise this in their enroll/heartbeat capability
        tags so the coordinator (and ``repro fleet status``) can see which
        nodes hold hot state worth routing to.  Cheap by design: counters
        and sizes only, no row materialisation.
        """
        with self._lock:
            summary = {
                "memory_entries": len(self._memory),
                "persistent_entries": (len(self._shardstore)
                                       if self._shardstore is not None
                                       else 0),
                "hits": self.stats.hits,
                "puts": self.stats.puts,
                "peer_hits": self.stats.peer_hits,
                "hit_rate": round(self.stats.hit_rate, 4),
                "tier": ("sharded" if self._shardstore is not None
                         else "memory"),
            }
            if self._shardstore is not None:
                occupancy = self._shardstore.occupancy()
                summary["persistent_bytes"] = sum(
                    row["disk_bytes"] for row in occupancy)
                summary["shards"] = [row["entries"] for row in occupancy]
                counters = self._shardstore.counters()
                summary["evictions"] = {
                    "ttl": counters["evictions_ttl"],
                    "lru": counters["evictions_lru"],
                }
            return summary

    def shard_occupancy(self) -> list[dict[str, Any]]:
        """Per-shard occupancy rows (empty for memory-only caches)."""
        if self._shardstore is None:
            return []
        return self._shardstore.occupancy()

    def store_counters(self) -> dict[str, int]:
        """Sharded-store maintenance counters (empty otherwise)."""
        if self._shardstore is None:
            return {}
        return self._shardstore.counters()

    # ------------------------------------------------------- maintenance
    def compact(self) -> tuple[int, int]:
        """Compact the persistent tier (see :meth:`ShardStore.compact`)."""
        if self._shardstore is None:
            return (0, 0)
        with self._lock:
            return self._shardstore.compact()

    def __len__(self) -> int:
        with self._lock:
            keys = set(self._memory)
            if self._shardstore is not None:
                keys |= self._shardstore.keys()
            return len(keys)
