"""The two-tier content-addressed solve cache (``repro.service.cache``)."""

from __future__ import annotations

import networkx as nx
import pytest

import repro
from repro.api import REGISTRY, graph_fingerprint, invalidate_fingerprint, solve
from repro.api.report import _FINGERPRINT_MEMO
from repro.service.cache import SolveCache, key_for_plan, solve_key


@pytest.fixture
def graph() -> nx.Graph:
    return nx.random_regular_graph(3, 24, seed=2)


class TestSolveKey:
    def test_stable_across_calls(self, graph):
        plan = REGISTRY.plan(graph, "power-mis", k=2, seed=5)
        assert key_for_plan(plan) == key_for_plan(plan)

    def test_sensitive_to_every_component(self, graph):
        base = solve_key(algorithm="power-mis", graph_fingerprint="f" * 16,
                         config=(("k", 2),), seed=5)
        assert base != solve_key(algorithm="luby-power",
                                 graph_fingerprint="f" * 16,
                                 config=(("k", 2),), seed=5)
        assert base != solve_key(algorithm="power-mis",
                                 graph_fingerprint="0" * 16,
                                 config=(("k", 2),), seed=5)
        assert base != solve_key(algorithm="power-mis",
                                 graph_fingerprint="f" * 16,
                                 config=(("k", 3),), seed=5)
        assert base != solve_key(algorithm="power-mis",
                                 graph_fingerprint="f" * 16,
                                 config=(("k", 2),), seed=6)

    def test_derived_and_explicit_seed_share_address(self, graph):
        """A derived-seed plan keys the same entry as pinning that seed."""
        derived = REGISTRY.plan(graph, "power-mis", k=2)
        pinned = REGISTRY.plan(graph, "power-mis", k=2, seed=derived.seed)
        assert key_for_plan(derived) == key_for_plan(pinned)


class TestMemoryTier:
    def test_miss_then_hit(self, graph):
        cache = SolveCache("")
        first = cache.solve(graph, "power-mis", k=2, seed=5)
        second = cache.solve(graph, "power-mis", k=2, seed=5)
        assert not first.hit and first.tier == "computed"
        assert second.hit and second.tier == "memory"
        assert second.report.output == first.report.output
        assert second.report.provenance == first.report.provenance
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_configs_are_distinct_entries(self, graph):
        cache = SolveCache("")
        cache.solve(graph, "power-mis", k=1, seed=5)
        other = cache.solve(graph, "power-mis", k=2, seed=5)
        assert not other.hit

    def test_lru_eviction(self, graph):
        cache = SolveCache("", max_memory_entries=2)
        for seed in (1, 2, 3):
            cache.solve(graph, "power-mis", k=2, seed=seed)
        assert cache.stats.evictions == 1
        # Seed 1 was evicted (memory-only cache: a genuine miss recomputes).
        assert not cache.solve(graph, "power-mis", k=2, seed=1).hit
        # Seed 3 is still resident.
        assert cache.solve(graph, "power-mis", k=2, seed=3).hit

    def test_unverified_entry_never_serves_verifying_request(self, graph):
        cache = SolveCache("")
        cache.solve(graph, "power-mis", k=2, seed=5, verify=False)
        verified = cache.solve(graph, "power-mis", k=2, seed=5, verify=True)
        assert not verified.hit
        assert verified.report.certificate is not None
        # ... and the verified entry satisfies both kinds of request.
        assert cache.solve(graph, "power-mis", k=2, seed=5, verify=False).hit
        assert cache.solve(graph, "power-mis", k=2, seed=5, verify=True).hit


class TestPersistentTier:
    """A non-empty path is the sharded store directory of the disk tier."""

    def test_survives_process_restart(self, graph, tmp_path):
        path = str(tmp_path / "cache")
        first = SolveCache(path).solve(graph, "power-mis", k=2, seed=5)

        fresh = SolveCache(path)  # a new instance = a new process
        hit = fresh.solve(graph, "power-mis", k=2, seed=5)
        assert hit.hit and hit.tier == "persistent"
        assert hit.report.output == first.report.output
        assert hit.report.provenance == first.report.provenance
        assert hit.report.certificate is not None
        assert hit.report.payload == {}  # live objects are never persisted

    def test_certificate_replayed_on_hit(self, graph, tmp_path):
        path = str(tmp_path / "cache")
        original = SolveCache(path).solve(graph, "det-power-ruling", k=2,
                                          seed=3)
        hit = SolveCache(path).solve(graph, "det-power-ruling", k=2, seed=3)
        assert hit.report.certificate is not None
        assert hit.report.certificate.ok
        assert hit.report.certificate.checks == \
            original.report.certificate.checks

    def test_cached_provenance_replays_bit_for_bit(self, graph, tmp_path):
        """The acceptance contract: a cached response's provenance is
        indistinguishable from (and replays to) a fresh repro.solve."""
        path = str(tmp_path / "cache")
        SolveCache(path).solve(graph, "power-mis", k=2)
        hit = SolveCache(path).solve(graph, "power-mis", k=2)
        assert hit.hit
        fresh = solve(graph, "power-mis", k=2)
        assert hit.report.provenance == fresh.provenance
        replayed = repro.replay(graph, hit.report.provenance)
        assert replayed.output == hit.report.output
        assert replayed.rounds == hit.report.rounds

    def test_persistent_hit_promotes_to_memory(self, graph, tmp_path):
        path = str(tmp_path / "cache")
        SolveCache(path).solve(graph, "power-mis", k=2, seed=5)
        fresh = SolveCache(path)
        assert fresh.solve(graph, "power-mis", k=2, seed=5).tier == "persistent"
        assert fresh.solve(graph, "power-mis", k=2, seed=5).tier == "memory"

    def test_compact_deduplicates(self, graph, tmp_path):
        path = str(tmp_path / "cache")
        cache = SolveCache(path)
        cache.solve(graph, "power-mis", k=2, seed=5)
        # Re-put the same entry: append-only -> two lines, one live row.
        report = cache.get(key_for_plan(REGISTRY.plan(graph, "power-mis",
                                                      k=2, seed=5)))
        cache.put(key_for_plan(REGISTRY.plan(graph, "power-mis", k=2,
                                             seed=5)), report)
        kept, dropped = cache.compact()
        assert (kept, dropped) == (1, 1)
        assert SolveCache(path).solve(graph, "power-mis", k=2, seed=5).hit

    def test_same_instance_serves_after_compact(self, graph, tmp_path):
        """Compaction moves rows between segments; the span index follows."""
        path = str(tmp_path / "cache")
        cache = SolveCache(path, max_memory_entries=1)
        cache.solve(graph, "power-mis", k=2, seed=1)
        cache.solve(graph, "power-mis", k=2, seed=2)  # evicts seed=1 from memory
        cache.put(key_for_plan(REGISTRY.plan(graph, "power-mis", k=2,
                                             seed=2)),
                  cache.solve(graph, "power-mis", k=2, seed=2).report)
        cache.compact()
        # seed=1 must now be re-read from its post-compaction offset.
        assert cache.solve(graph, "power-mis", k=2, seed=1).tier == "persistent"

    def test_two_instances_share_one_directory(self, graph, tmp_path):
        root = str(tmp_path / "store")
        left = SolveCache(root)
        right = SolveCache(root)
        computed = left.solve(graph, "power-mis", k=2, seed=7)
        hit = right.solve(graph, "power-mis", k=2, seed=7)
        assert hit.hit and hit.tier == "persistent"
        assert hit.report.provenance == computed.report.provenance

    def test_concurrent_instances_zero_wrong_reports(self, graph, tmp_path):
        """Two caches, one path: concurrent put/get/compact, every served
        report belongs to the requested key."""
        import threading

        root = str(tmp_path / "store")
        caches = [SolveCache(root, max_memory_entries=2),
                  SolveCache(root, max_memory_entries=2)]
        seeds = list(range(8))
        plans = {seed: key_for_plan(REGISTRY.plan(graph, "power-mis", k=2,
                                                  seed=seed))
                 for seed in seeds}
        reports = {seed: caches[0].solve(graph, "power-mis", k=2,
                                         seed=seed).report
                   for seed in seeds}
        errors: list[str] = []
        stop = threading.Event()

        def churn(cache: SolveCache) -> None:
            for _ in range(20):
                for seed in seeds:
                    cache.put(plans[seed], reports[seed])

        def verify(cache: SolveCache) -> None:
            while not stop.is_set():
                for seed in seeds:
                    entry, _ = cache.lookup(plans[seed])
                    if (entry is not None and entry.report.provenance
                            != reports[seed].provenance):
                        errors.append(f"seed {seed} served foreign report")

        def compactor(cache: SolveCache) -> None:
            while not stop.is_set():
                cache.compact()

        threads = [threading.Thread(target=churn, args=(caches[0],)),
                   threading.Thread(target=churn, args=(caches[1],)),
                   threading.Thread(target=verify, args=(caches[0],)),
                   threading.Thread(target=verify, args=(caches[1],)),
                   threading.Thread(target=compactor, args=(caches[1],))]
        for thread in threads:
            thread.start()
        for thread in threads[:2]:
            thread.join(timeout=120)
        stop.set()
        for thread in threads[2:]:
            thread.join(timeout=120)
        assert errors == []
        # No lost rows: a fresh instance still serves every key.
        fresh = SolveCache(root)
        for seed in seeds:
            entry, tier = fresh.lookup(plans[seed])
            assert entry is not None and tier == "persistent"
            assert entry.report.provenance == reports[seed].provenance

    def test_eviction_respects_budget(self, graph, tmp_path):
        root = str(tmp_path / "store")
        budget = 64 * 1024
        cache = SolveCache(root, shards=2, size_budget_bytes=budget,
                           max_segment_bytes=8192, max_memory_entries=4)
        for seed in range(12):
            cache.solve(graph, "power-mis", k=2, seed=seed)
        occupancy = cache.shard_occupancy()
        assert sum(row["disk_bytes"] for row in occupancy) <= budget
        summary = cache.warmth_summary()
        assert summary["tier"] == "sharded"
        assert "shards" in summary


class TestPeek:
    """``peek`` is the read-only lookup: no accounting, no promotion."""

    def test_peek_counts_nothing(self, graph):
        cache = SolveCache("")
        solved = cache.solve(graph, "power-mis", k=2, seed=5)
        hits, misses = cache.stats.hits, cache.stats.misses
        for _ in range(7):
            report, tier = cache.peek(solved.key)
            assert report is not None and tier == "memory"
        report, tier = cache.peek("0" * 32)
        assert report is None and tier == "miss"
        assert cache.stats.hits == hits
        assert cache.stats.misses == misses

    def test_peek_does_not_reorder_lru(self, graph):
        cache = SolveCache("")
        first = cache.solve(graph, "power-mis", k=2, seed=1)
        second = cache.solve(graph, "power-mis", k=2, seed=2)
        cache.peek(first.key)
        assert list(cache._memory) == [first.key, second.key]
        # ... while a real lookup does promote.
        cache.get(first.key)
        assert list(cache._memory) == [second.key, first.key]

    def test_persistent_peek_does_not_promote(self, graph, tmp_path):
        path = str(tmp_path / "cache")
        solved = SolveCache(path).solve(graph, "power-mis", k=2, seed=5)
        fresh = SolveCache(path)  # memory tier empty
        report, tier = fresh.peek(solved.key)
        assert report is not None and tier == "persistent"
        assert solved.key not in fresh._memory  # still only on disk
        assert fresh.stats.requests == 0

    def test_peek_respects_certificate_requirement(self, graph):
        cache = SolveCache("")
        solved = cache.solve(graph, "power-mis", k=2, seed=5, verify=False)
        report, tier = cache.peek(solved.key)
        assert report is not None
        report, tier = cache.peek(solved.key, require_certificate=True)
        assert report is None and tier == "miss"


class TestFingerprintMemo:
    def test_memoized_per_object(self, graph):
        invalidate_fingerprint(graph)
        first = graph_fingerprint(graph)
        assert graph in _FINGERPRINT_MEMO
        assert graph_fingerprint(graph) == first

    def test_equal_graphs_share_value_not_entry(self, graph):
        clone = nx.Graph(graph.edges())
        assert graph_fingerprint(clone) == graph_fingerprint(graph)
        assert clone is not graph

    def test_invalidate_after_mutation(self, graph):
        before = graph_fingerprint(graph)
        graph.add_node("extra")
        # Documented contract: stale until invalidated.
        assert graph_fingerprint(graph) == before
        invalidate_fingerprint(graph)
        assert graph_fingerprint(graph) != before
        graph.remove_node("extra")
        invalidate_fingerprint(graph)
        assert graph_fingerprint(graph) == before

    def test_memo_entry_dies_with_graph(self):
        graph = nx.path_graph(6)
        graph_fingerprint(graph)
        import weakref

        ref = weakref.ref(graph)
        del graph
        import gc

        gc.collect()
        assert ref() is None

    def test_invalidate_drops_the_cached_topology(self):
        # An edge swap keeps (n, m), so the topology cache's size guard
        # cannot see it; the invalidation call must drop that cache too.
        graph = nx.cycle_graph(12)
        solve(graph, "luby-sim", seed=1, engine="vector")
        graph.remove_edges_from([(0, 1), (6, 7)])
        graph.add_edges_from([(0, 6), (1, 7)])
        invalidate_fingerprint(graph)
        uncertified = [seed for seed in range(1, 40) if not solve(
            graph, "luby-sim", seed=seed, engine="vector").verified]
        assert uncertified == []


class TestWrongReportRegression:
    """A stale persistent span must never serve another key's report.

    The historical bug: the persistent read deserialised whatever bytes
    the indexed span pointed at without checking the row's ``cache_key``.
    When another process compacts or rewrites the store, a span can come
    to hold a perfectly *valid* row -- for a different solve -- and the
    cache would answer the wrong report with a straight face.  The store's
    own stale-span cases live in ``tests/test_shardstore.py``.
    """

    def test_stale_span_never_serves_wrong_report(self, graph, tmp_path):
        root = tmp_path / "store"
        cache = SolveCache(str(root), shards=1, max_memory_entries=2)
        first = cache.solve(graph, "power-mis", k=2, seed=5)
        second = cache.solve(graph, "power-mis", k=2, seed=6)
        assert first.key != second.key

        # Simulate an external rewrite: the bytes of one key's span now
        # hold the *other* key's valid row, padded (JSON tolerates
        # trailing whitespace) to the identical byte length so the stale
        # read parses cleanly.
        (segment,) = (root / "shard-00").iterdir()
        line_first, line_second = segment.read_bytes().splitlines(True)
        if len(line_second) <= len(line_first):
            target, survivor_line = first, line_second
            overlay = (line_second[:-1]
                       + b" " * (len(line_first) - len(line_second)) + b"\n")
            content = overlay + line_second
        else:
            target, survivor_line = second, line_first
            overlay = (line_first[:-1]
                       + b" " * (len(line_second) - len(line_first)) + b"\n")
            content = line_first + overlay
        segment.write_bytes(content)

        cache._memory.clear()  # force the persistent tier
        report, tier = cache.lookup(target.key)
        # Every span read verifies its key: a miss, never the other
        # solve's report.
        assert report is None
        assert tier == "miss"
        assert cache._shardstore.counters()["wrong_key_reads"] >= 1
        # The survivor is still served correctly from its own row.
        import json as _json

        survivor_key = _json.loads(survivor_line)["cache_key"]
        survivor_report, _ = cache.lookup(survivor_key)
        assert survivor_report is not None

    def test_sharded_tier_verifies_keys_too(self, graph, tmp_path):
        root = str(tmp_path / "store")
        cache = SolveCache(root, max_memory_entries=1)
        first = cache.solve(graph, "power-mis", k=2, seed=5)
        second = cache.solve(graph, "power-mis", k=2, seed=6)
        cache._memory.clear()
        got_first, tier_first = cache.lookup(first.key)
        got_second, tier_second = cache.lookup(second.key)
        assert tier_first == tier_second == "persistent"
        assert got_first.report.provenance == first.report.provenance
        assert got_second.report.provenance == second.report.provenance
        assert cache._shardstore.counters()["wrong_key_reads"] == 0


class TestPeerTier:
    """The optional third tier: fetch a fleet peer's stored row on miss."""

    def test_peer_hit_is_stored_into_local_tiers(self, graph, tmp_path):
        donor = SolveCache(str(tmp_path / "donor"))
        computed = donor.solve(graph, "power-mis", k=2, seed=5)
        calls: list[str] = []

        def peer_fetch(key: str):
            calls.append(key)
            entry, _ = donor.peek(key)
            if entry is None:
                return None
            return {"key": key, "tier": "persistent",
                    "report": __import__("json").loads(entry.text)}

        taker = SolveCache(str(tmp_path / "taker"), peer_fetch=peer_fetch)
        entry, tier = taker.lookup(computed.key)
        assert tier == "peer"
        assert entry.report.provenance == computed.report.provenance
        assert taker.stats.peer_hits == 1
        assert calls == [computed.key]
        # Stored locally: the next lookup is a memory hit, no peer call.
        report, tier = taker.lookup(computed.key)
        assert tier == "memory"
        assert calls == [computed.key]
        # And it persisted: a fresh instance on the same path serves it.
        fresh = SolveCache(str(tmp_path / "taker"))
        assert fresh.lookup(computed.key)[1] == "persistent"

    def test_peer_miss_and_errors_are_clean_misses(self, graph):
        def no_peer(key: str):
            return None

        cache = SolveCache("", peer_fetch=no_peer)
        assert cache.lookup("0" * 32) == (None, "miss")
        assert cache.stats.peer_errors == 0

        def broken_peer(key: str):
            raise OSError("coordinator unreachable")

        cache = SolveCache("", peer_fetch=broken_peer)
        assert cache.lookup("0" * 32) == (None, "miss")
        assert cache.stats.peer_errors == 1

    def test_consult_peers_false_suppresses_the_hop(self, graph):
        calls: list[str] = []

        def peer_fetch(key: str):
            calls.append(key)
            return None

        cache = SolveCache("", peer_fetch=peer_fetch)
        cache.lookup("0" * 32, consult_peers=False)
        assert calls == []
        cache.peek("0" * 32)
        assert calls == []
