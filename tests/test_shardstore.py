"""The sharded persistent cache store and the append-path crash contracts.

Unit layers: the ``shard_of`` key function, authoritative span appends
(``append_jsonl_line``), torn-tail repair after a crashed writer, segment
rotation, TTL + LRU eviction under a byte budget, segment compaction, and
key-verified span reads that survive an external rewrite.

Concurrency layers: a multi-process append hammer (no lost rows, every
returned span reads back its own row) and hypothesis-driven interleavings
of two :class:`ShardStore` instances sharing one directory (reads always
see the globally newest row, never a wrong-key row).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.shardstore import ShardStore, append_jsonl_line, shard_of


def _key(index: int) -> str:
    """A hex content-address-shaped key (deterministic per index)."""
    return hashlib.md5(str(index).encode()).hexdigest()


# ---------------------------------------------------------------------------
# shard_of
# ---------------------------------------------------------------------------

class TestShardOf:
    def test_prefix_rule_for_hex_keys(self):
        for index in range(64):
            key = _key(index)
            assert shard_of(key, 8) == int(key[:4], 16) % 8

    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 8, 13):
            for index in range(64):
                first = shard_of(_key(index), shards)
                assert first == shard_of(_key(index), shards)
                assert 0 <= first < shards

    def test_non_hex_keys_still_spread(self):
        buckets = {shard_of(f"not-hex-{index}", 8) for index in range(64)}
        assert len(buckets) > 1

    def test_keys_spread_over_shards(self):
        buckets = {shard_of(_key(index), 8) for index in range(256)}
        assert buckets == set(range(8))


# ---------------------------------------------------------------------------
# Authoritative spans + torn-tail repair
# ---------------------------------------------------------------------------

def _row_bytes(key: str, **extra) -> bytes:
    return (json.dumps({"cache_key": key, **extra}, sort_keys=True)
            + "\n").encode("utf-8")


def _append_hammer(path: str, worker: int, count: int) -> list:
    """Process-pool worker: append ``count`` rows, return claimed spans."""
    spans = []
    for index in range(count):
        key = f"w{worker:02d}-{index:04d}"
        offset, length = append_jsonl_line(
            path, _row_bytes(key, payload="x" * (index % 23)))
        spans.append((key, offset, length))
    return spans


def _segment(store: ShardStore, key: str) -> str:
    """The first segment file of ``key``'s shard."""
    return os.path.join(store.root, f"shard-{shard_of(key, store.shards):02d}",
                        "seg-000001.jsonl")


class TestAppendJsonlLine:
    def test_requires_newline_terminated_data(self, tmp_path):
        with pytest.raises(ValueError):
            append_jsonl_line(str(tmp_path / "s.jsonl"), b'{"a": 1}')

    def test_returns_authoritative_spans(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        spans = [append_jsonl_line(path, _row_bytes(_key(i), i=i))
                 for i in range(5)]
        with open(path, "rb") as handle:
            blob = handle.read()
        for index, (offset, length) in enumerate(spans):
            row = json.loads(blob[offset:offset + length])
            assert row["cache_key"] == _key(index)

    def test_torn_tail_is_repaired_not_fused(self, tmp_path):
        store = ShardStore(str(tmp_path / "s"), shards=1)
        store.put("aaaa", {"value": 1})
        path = _segment(store, "aaaa")
        # A writer died mid-row: the segment ends in a partial line.
        with open(path, "ab") as handle:
            handle.write(b'{"cache_key": "bbbb", "val')
        offset, length = store.put("cccc", {"value": 3})
        # The new row is intact at its claimed span...
        with open(path, "rb") as handle:
            handle.seek(offset)
            assert json.loads(handle.read(length))["cache_key"] == "cccc"
        # ...and the torn row is isolated (skipped), not fused with it.
        reopened = ShardStore(store.root, shards=1)
        assert reopened.keys() == store.keys() == {"aaaa", "cccc"}
        assert reopened.get("cccc")["value"] == 3

    def test_torn_tail_repair_on_bare_appender(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"partial": ')
        offset, length = append_jsonl_line(path, _row_bytes("dddd"))
        with open(path, "rb") as handle:
            handle.seek(offset)
            assert json.loads(handle.read(length))["cache_key"] == "dddd"

    def test_multiprocess_appends_lose_nothing(self, tmp_path):
        """The getsize-then-append race, hammered: spans must stay true."""
        path = str(tmp_path / "hammer.jsonl")
        workers, per_worker = 4, 40
        with ProcessPoolExecutor(max_workers=workers) as pool:
            claimed = [span for spans in pool.map(
                _append_hammer, [path] * workers, range(workers),
                [per_worker] * workers) for span in spans]
        with open(path, "rb") as handle:
            blob = handle.read()
        # No lost rows: every append is one parseable line.
        keys = {json.loads(line)["cache_key"] for line in blob.splitlines()}
        assert len(keys) == workers * per_worker
        # Every claimed span reads back its own row -- zero drift.
        for key, offset, length in claimed:
            assert json.loads(blob[offset:offset + length])["cache_key"] == key


# ---------------------------------------------------------------------------
# ShardStore basics
# ---------------------------------------------------------------------------

class TestShardStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        store = ShardStore(str(tmp_path / "store"), shards=4)
        for index in range(16):
            store.put(_key(index), {"value": index})
        assert len(store) == 16
        for index in range(16):
            row = store.get(_key(index))
            assert row["cache_key"] == _key(index)
            assert row["value"] == index
        assert _key(3) in store
        assert _key(999) not in store
        assert store.get(_key(999)) is None

    def test_rows_land_in_their_shard_directory(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(str(root), shards=4)
        key = _key(7)
        store.put(key, {"value": 7})
        shard_dir = root / f"shard-{shard_of(key, 4):02d}"
        assert shard_dir.is_dir()
        assert any(name.startswith("seg-") for name in os.listdir(shard_dir))

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        first = ShardStore(root, shards=2)
        for index in range(8):
            first.put(_key(index), {"value": index})
        reopened = ShardStore(root, shards=2)
        assert len(reopened) == 8
        assert reopened.get(_key(5))["value"] == 5

    def test_last_write_wins(self, tmp_path):
        store = ShardStore(str(tmp_path / "store"), shards=2)
        store.put(_key(1), {"value": "old"})
        store.put(_key(1), {"value": "new"})
        assert store.get(_key(1))["value"] == "new"
        assert len(store) == 1

    def test_segments_rotate_at_size_threshold(self, tmp_path):
        store = ShardStore(str(tmp_path / "store"), shards=1,
                           max_segment_bytes=4096)
        for index in range(64):
            store.put(_key(index), {"pad": "x" * 200})
        occupancy = store.occupancy()[0]
        assert occupancy["segments"] > 1
        # Rotation must not lose reads across segment boundaries.
        for index in range(64):
            assert store.get(_key(index))["cache_key"] == _key(index)

    def test_mismatched_row_key_is_rejected(self, tmp_path):
        store = ShardStore(str(tmp_path / "store"), shards=1)
        with pytest.raises(ValueError):
            store.put(_key(1), {"cache_key": _key(2)})

    def test_occupancy_accounts_live_and_disk_bytes(self, tmp_path):
        store = ShardStore(str(tmp_path / "store"), shards=2)
        store.put(_key(1), {"value": 1})
        store.put(_key(1), {"value": 2})  # supersedes: one dead row
        rows = store.occupancy()
        assert sum(row["entries"] for row in rows) == 1
        assert sum(row["dead_rows"] for row in rows) == 1
        assert (sum(row["disk_bytes"] for row in rows)
                > sum(row["live_bytes"] for row in rows))


# ---------------------------------------------------------------------------
# Key-verified reads
# ---------------------------------------------------------------------------

class TestKeyVerifiedReads:
    def test_external_rewrite_never_serves_wrong_key(self, tmp_path):
        """A stale span holding another key's *valid* row is a miss."""
        root = tmp_path / "store"
        store = ShardStore(str(root), shards=1)
        stale_key, usurper_key = _key(1), _key(2)
        store.put(stale_key, {"value": "target"})
        # Another process compacted: the bytes of stale_key's span now
        # hold a perfectly valid row -- for a different key -- padded to
        # the identical length so the read parses cleanly.
        shard_dir = root / "shard-00"
        (segment,) = [name for name in os.listdir(shard_dir)
                      if name.startswith("seg-")]
        original = (shard_dir / segment).read_bytes()
        overlay = json.dumps({"cache_key": usurper_key, "value": "usurper"},
                             sort_keys=True).encode()
        assert len(overlay) <= len(original) - 1
        padded = overlay + b" " * (len(original) - 1 - len(overlay)) + b"\n"
        (shard_dir / segment).write_bytes(padded)

        assert store.get(stale_key) is None
        assert store.counters()["wrong_key_reads"] >= 1
        # The row that actually lives there is served under its own key.
        assert store.get(usurper_key)["value"] == "usurper"

    def test_truncated_segment_triggers_rebuild(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(str(root), shards=1)
        store.put(_key(1), {"value": 1})
        store.put(_key(2), {"value": 2})
        shard_dir = root / "shard-00"
        (segment,) = os.listdir(shard_dir)
        blob = (shard_dir / segment).read_bytes()
        first_line_end = blob.index(b"\n") + 1
        (shard_dir / segment).write_bytes(blob[:first_line_end])
        assert store.get(_key(2)) is None
        assert store.get(_key(1))["value"] == 1


# ---------------------------------------------------------------------------
# Eviction, TTL and compaction
# ---------------------------------------------------------------------------

class TestEvictionAndCompaction:
    def test_ttl_expires_entries_on_sight(self, tmp_path):
        clock = {"now": 1000.0}
        store = ShardStore(str(tmp_path / "store"), shards=1, ttl_s=60.0,
                           clock=lambda: clock["now"])
        store.put(_key(1), {"value": 1})
        assert store.get(_key(1))["value"] == 1
        clock["now"] += 61.0
        assert store.get(_key(1)) is None
        assert store.counters()["evictions_ttl"] >= 1

    def test_budget_bounds_disk_and_evicts_lru(self, tmp_path):
        budget = 16 * 4096
        store = ShardStore(str(tmp_path / "store"), shards=1,
                           max_segment_bytes=4096,
                           size_budget_bytes=budget)
        hot = _key(0)
        store.put(hot, {"pad": "h" * 100})
        for index in range(1, 400):
            store.put(_key(index), {"pad": "x" * 200})
            store.get(hot)  # keep the hot key recently used
            assert store.disk_bytes() <= budget
        counters = store.counters()
        assert counters["evictions_lru"] > 0
        # LRU means the hot key survived while cold early keys died.
        assert store.get(hot) is not None
        assert store.get(_key(1)) is None

    def test_compact_reclaims_superseded_rows(self, tmp_path):
        store = ShardStore(str(tmp_path / "store"), shards=2)
        for round_number in range(3):
            for index in range(10):
                store.put(_key(index), {"round": round_number})
        before = store.disk_bytes()
        kept, dropped = store.compact()
        assert kept == 10
        assert dropped == 20
        assert store.disk_bytes() < before
        for index in range(10):
            assert store.get(_key(index))["round"] == 2

    def test_fully_dead_segments_are_deleted(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(str(root), shards=1, max_segment_bytes=4096)
        for index in range(40):
            store.put(_key(0), {"pad": "x" * 300, "round": index})
        store.compact()
        shard_dir = root / "shard-00"
        assert len(os.listdir(shard_dir)) == 1
        assert store.get(_key(0))["round"] == 39
        assert store.counters()["deleted_segments"] > 0


# ---------------------------------------------------------------------------
# Two instances sharing one directory
# ---------------------------------------------------------------------------

class TestSharedDirectory:
    def test_external_puts_become_visible(self, tmp_path):
        root = str(tmp_path / "store")
        writer = ShardStore(root, shards=2)
        reader = ShardStore(root, shards=2)
        writer.put(_key(1), {"value": "from-writer"})
        assert reader.get(_key(1))["value"] == "from-writer"
        reader.put(_key(2), {"value": "from-reader"})
        assert writer.get(_key(2))["value"] == "from-reader"

    def test_interleaved_writers_keep_authoritative_spans(self, tmp_path):
        root = str(tmp_path / "store")
        left = ShardStore(root, shards=1)
        right = ShardStore(root, shards=1)
        for index in range(40):
            (left if index % 2 else right).put(_key(index), {"value": index})
        for index in range(40):
            assert left.get(_key(index))["value"] == index
            assert right.get(_key(index))["value"] == index

    def test_put_after_another_instance_compacted_is_newest(self, tmp_path):
        # The other instance compacts the segment this one still calls
        # active into a higher segment; the next put must not recreate
        # the old segment, where a fresh reader would rank it older.
        root = str(tmp_path / "store")
        left = ShardStore(root, shards=2)
        right = ShardStore(root, shards=2)
        left.put(_key(0), {"version": 1})
        left.put(_key(0), {"version": 2})
        left.compact()
        right.put(_key(0), {"version": 3})
        assert ShardStore(root, shards=2).get(_key(0))["version"] == 3

    def test_put_after_another_instance_rotated_is_newest(self, tmp_path):
        root = str(tmp_path / "store")
        left = ShardStore(root, shards=1, max_segment_bytes=4096)
        right = ShardStore(root, shards=1, max_segment_bytes=4096)
        filler = 0
        left.put(_key(100), {"pad": "x" * 512})
        while len(os.listdir(os.path.join(root, "shard-00"))) < 2:
            filler += 1
            left.put(_key(100 + filler), {"pad": "x" * 512})
        left.put(_key(0), {"version": 1})
        right.put(_key(0), {"version": 2})
        assert ShardStore(root, shards=1).get(_key(0))["version"] == 2

    def test_put_relists_only_a_changed_directory(self, tmp_path,
                                                  monkeypatch):
        # A settled directory mtime spares each put a listing; another
        # instance's compaction moves it, and the next put lists again.
        root = str(tmp_path / "store")
        left = ShardStore(root, shards=1)
        right = ShardStore(root, shards=1)
        left.put(_key(0), {"version": 1})
        left.put(_key(0), {"version": 2})
        long_ago = 10 ** 18
        os.utime(os.path.join(root, "shard-00"), ns=(long_ago, long_ago))
        right.put(_key(1), {"version": 1})
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: (
            listings.append(path), real_listdir(path))[1])
        right.put(_key(2), {"version": 1})
        assert listings == []
        left.compact()
        listings.clear()
        right.put(_key(0), {"version": 3})
        assert listings
        assert ShardStore(root, shards=1).get(_key(0))["version"] == 3

    def test_concurrent_two_instance_hammer_zero_wrong_rows(self, tmp_path):
        """Threads across two instances: every read is right-keyed."""
        root = str(tmp_path / "store")
        stores = [ShardStore(root, shards=4), ShardStore(root, shards=4)]
        keys = [_key(index) for index in range(24)]
        errors: list[str] = []
        stop = threading.Event()

        def writer(store: ShardStore, salt: int) -> None:
            for round_number in range(30):
                for offset, key in enumerate(keys):
                    store.put(key, {"value": f"{salt}:{round_number}"})

        def reader(store: ShardStore) -> None:
            while not stop.is_set():
                for key in keys:
                    row = store.get(key)
                    if row is not None and row["cache_key"] != key:
                        errors.append(f"{key} served {row['cache_key']}")

        def compactor(store: ShardStore) -> None:
            while not stop.is_set():
                store.compact()

        threads = [threading.Thread(target=writer, args=(stores[0], 0)),
                   threading.Thread(target=writer, args=(stores[1], 1)),
                   threading.Thread(target=reader, args=(stores[0],)),
                   threading.Thread(target=reader, args=(stores[1],)),
                   threading.Thread(target=compactor, args=(stores[0],))]
        for thread in threads[:2]:
            thread.start()
        for thread in threads[2:]:
            thread.start()
        for thread in threads[:2]:
            thread.join(timeout=60)
        stop.set()
        for thread in threads[2:]:
            thread.join(timeout=60)
        assert errors == []
        # Nothing was lost: both instances converge on every key.
        for key in keys:
            for store in stores:
                row = store.get(key)
                assert row is not None and row["cache_key"] == key


# ---------------------------------------------------------------------------
# Hypothesis: sequential interleavings of two sharing instances
# ---------------------------------------------------------------------------

_KEY_POOL = [_key(index) for index in range(6)]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 1),
                  st.sampled_from(range(len(_KEY_POOL)))),
        st.tuples(st.just("get"), st.integers(0, 1),
                  st.sampled_from(range(len(_KEY_POOL)))),
        st.tuples(st.just("compact"), st.integers(0, 1), st.just(0)),
    ),
    min_size=1, max_size=40)


class TestInterleavingProperties:
    """Two instances over one directory, any sequential interleaving.

    The store's cross-process contract (rows are immutable per key in the
    solve cache, so freshness is *per instance*, correctness is global):

    * a read never returns a wrong-key row and never loses a key -- once
      any instance wrote it, every instance finds it;
    * each instance's view of a key is monotone: it never serves a row
      older than one it wrote or served before;
    * a fresh instance (rescan from disk) sees the globally newest row,
      even across compactions and segment churn.
    """

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_ops)
    def test_interleaved_instances_stay_consistent(self, tmp_path_factory,
                                                   ops):
        root = str(tmp_path_factory.mktemp("interleave") / "store")
        stores = [ShardStore(root, shards=2, max_segment_bytes=4096),
                  ShardStore(root, shards=2, max_segment_bytes=4096)]
        written: dict[str, set[int]] = {}
        floor: dict[tuple[int, str], int] = {}
        version = 0
        for op, which, key_index in ops:
            key = _KEY_POOL[key_index]
            if op == "put":
                version += 1
                stores[which].put(key, {"version": version})
                written.setdefault(key, set()).add(version)
                floor[(which, key)] = version
            elif op == "compact":
                stores[which].compact()
            else:
                row = stores[which].get(key)
                if key not in written:
                    assert row is None
                    continue
                assert row is not None, f"lost {key}"
                assert row["cache_key"] == key
                assert row["version"] in written[key]
                assert row["version"] >= floor.get((which, key), 0)
                floor[(which, key)] = row["version"]
        # A fresh instance rescans from disk: it must see the newest row.
        audit = ShardStore(root, shards=2, max_segment_bytes=4096)
        for key, versions in written.items():
            row = audit.get(key)
            assert row is not None and row["version"] == max(versions)


# ---------------------------------------------------------------------------
# The shard count lives on disk
# ---------------------------------------------------------------------------

class TestRecordedShardCount:
    def _filled(self, root: str, shards: int = 4) -> list[str]:
        store = ShardStore(root, shards=shards)
        keys = [_key(index) for index in range(16)]
        for key in keys:
            store.put(key, {"value": key})
        return keys

    def test_reopen_with_the_default_reads_the_disk(self, tmp_path):
        keys = self._filled(str(tmp_path))
        reopened = ShardStore(str(tmp_path))
        assert reopened.shards == 4
        assert len(reopened) == 16
        assert all(reopened.get(key)["value"] == key for key in keys)

    def test_first_put_lays_out_every_shard(self, tmp_path):
        store = ShardStore(str(tmp_path), shards=5)
        store.put(_key(0), {"value": 0})
        assert ShardStore(str(tmp_path)).shards == 5

    def test_missing_middle_shard_keeps_the_count(self, tmp_path):
        # A store laid out before every shard directory was made up front
        # has no directory for a shard that never received a row.
        keys = self._filled(str(tmp_path))
        middle = tmp_path / "shard-01"
        for segment in middle.iterdir():
            segment.unlink()
        middle.rmdir()
        survivors = [key for key in keys if shard_of(key, 4) != 1]
        reopened = ShardStore(str(tmp_path))
        assert reopened.shards == 4
        assert len(reopened) == len(survivors)
        assert all(reopened.get(key)["value"] == key for key in survivors)
        assert ShardStore(str(tmp_path), shards=4).shards == 4
        reopened.put(_key(99), {"value": _key(99)})
        assert middle.is_dir()

    def test_empty_root_takes_the_default(self, tmp_path):
        assert ShardStore(str(tmp_path / "fresh")).shards == 8

    def test_disagreeing_count_is_refused(self, tmp_path):
        self._filled(str(tmp_path))
        with pytest.raises(ValueError) as excinfo:
            ShardStore(str(tmp_path), shards=8)
        message = str(excinfo.value)
        assert str(tmp_path) in message
        assert "4" in message and "8" in message

    @pytest.mark.parametrize("command", ["stats", "compact"])
    def test_cache_cli_exits_2_on_a_disagreeing_count(self, tmp_path,
                                                      capsys, command):
        from repro.cli import main as repro_cli

        self._filled(str(tmp_path))
        try:
            exit_code = repro_cli(["cache", command, "--cache-path",
                                   str(tmp_path), "--cache-shards", "8"])
        except SystemExit as stop:
            exit_code = stop.code
        assert exit_code == 2
        assert str(tmp_path) in capsys.readouterr().err
