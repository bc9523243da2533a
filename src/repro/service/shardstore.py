"""Sharded, segmented, evicting on-disk store of keyed JSON rows.

The one on-disk row store of the package: it holds the solve cache's
persistent tier (rows keyed by ``cache_key``) and the scenario runner's
result rows (keyed by ``cell_key``).  A single append-only JSON-lines file
with whole-file compaction would be one hot inode, one lock, and a rewrite
cost proportional to everything ever stored; this layout is built for
sustained fleet traffic instead:

* **Key shards.**  ``shard = int(key[:4], 16) % N`` (cache keys are hex
  content addresses, so the prefix is uniform).  Each shard has its own
  directory, its own lock and its own in-memory span index, so writers on
  different shards never contend.
* **Segments.**  A shard is a sequence of append-only segment files
  (``seg-000001.jsonl`` ...).  When the active segment exceeds
  ``max_segment_bytes`` the shard rotates to a fresh one.  Compaction
  rewrites the live rows of one mostly-dead segment into the active
  segment and deletes the old file -- bounded work per step, never a
  whole-store rewrite.
* **Eviction.**  Under a per-store byte budget (split evenly across
  shards), rows die by TTL first, then by LRU; fully-dead segments are
  deleted, half-dead ones are compacted.  Disk usage is therefore bounded
  even under an ever-growing key population.
* **Sharing.**  Appends go through :func:`append_jsonl_line`, which
  measures each row's span under an ``fcntl`` lock, so several processes
  (fleet workers pointed at one directory) can write one store.  A put
  appends to the newest segment on disk (it relists the shard whenever
  the directory's mtime moved), so another writer's earlier rotation or
  compaction never leaves it ranked below older rows.  No lock spans
  that listing and the append, though: a rotation or compaction by
  another process in between can still rank an older row above it.
  Readers detect external growth (segment grew / new segment appeared)
  and rescan incrementally; every span read verifies the row's key and
  falls back to a full rescan on mismatch, so a stale index can cost a
  re-read but never returns the wrong row.

The store holds serialised rows (``dict`` per line, compact JSON, see
:mod:`repro.service.jsontext`) keyed by ``key_field``; it knows nothing
about reports -- the solve cache layers the memory LRU on top and hands
the store its report text as a :class:`~repro.service.jsontext.RawJSON`
value, which lands in the row as it is.  Rows written with spaced
separators read back alike, and compaction rewrites them compactly.  Its
root is a directory: a regular file there (a leftover single-file store)
is refused up front.
The first put lays out every ``shard-NN`` directory, so the directories
record the shard count: ``shards=None`` reads it back, and an explicit
count that disagrees is refused up front too.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import zlib
from collections import OrderedDict
from typing import Any, Callable, Mapping

from repro.service import jsontext

try:  # POSIX-only; the store degrades to thread-safety-only without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["ShardStore", "append_jsonl_line", "shard_of"]

DEFAULT_SHARDS = 8
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Non-active segments at least this dead (by bytes) are compaction victims.
_COMPACT_DEAD_RATIO = 0.5

#: A shard directory's mtime is trusted to show new or deleted segments
#: only once it is this much older than the listing that read it: file
#: times tick coarsely, so a change in the same tick keeps the old stamp
#: (this assumes file times from the local clock, as on a local disk).
_STAMP_SETTLE_NS = 100_000_000

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"


@contextlib.contextmanager
def _exclusive_lock(handle):
    """Hold an OS-level exclusive lock on ``handle`` for the block.

    ``fcntl.flock`` serialises appenders *across processes* (two fleet
    workers sharing one store), which a :class:`threading.Lock` cannot.
    The lock is advisory: every cooperating writer goes through this
    helper, so spans computed under it are authoritative.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def append_jsonl_line(path: str, data: bytes) -> tuple[int, int]:
    """Append one serialised line to ``path``; return its ``(offset, length)``.

    The span is computed *under an exclusive file lock*, so it is
    authoritative even when several processes append to the same file --
    the historical getsize-then-append dance raced and produced drifted
    spans that misparse on read.  A torn final line (a crashed writer got
    half a row out) is repaired first by prefixing a newline, so the
    interrupted row is isolated as one corrupt line (skipped on load)
    instead of fusing with -- and destroying -- the new row.
    """
    if not data.endswith(b"\n"):
        raise ValueError("appended lines must be newline-terminated")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a+b") as handle:
        with _exclusive_lock(handle):
            fd = handle.fileno()
            size = os.fstat(fd).st_size
            offset = size
            if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                handle.write(b"\n")
                offset = size + 1
            handle.write(data)
            handle.flush()
    return (offset, len(data))


def shard_of(key: str, shards: int) -> int:
    """``int(key[:4], 16) % shards`` -- the cache-key shard function.

    Cache keys are 128-bit hex content addresses, so the first four
    nibbles are uniformly distributed.  Non-hex keys (the store is
    generic) fall back to a CRC so they still spread deterministically.
    """
    try:
        return int(key[:4], 16) % shards
    except (ValueError, TypeError):
        return zlib.crc32(str(key).encode("utf-8", "replace")) % shards


def _disk_shards(root: str) -> int:
    """One more than the highest ``shard-NN`` directory under ``root``.

    The highest index, not the number of directories: a store written
    before every shard directory was made at the first put has
    directories only for shards that received a row, and a missing one
    in the middle must not shrink the count.
    """
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    return max((int(name[6:]) + 1 for name in names
                if name.startswith("shard-") and name[6:].isdigit()
                and os.path.isdir(os.path.join(root, name))), default=0)


def _segment_name(segment: int) -> str:
    return f"{_SEGMENT_PREFIX}{segment:06d}{_SEGMENT_SUFFIX}"


def _parse_segment_name(name: str) -> int | None:
    if not (name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class _Shard:
    """One shard: directory, lock, span index and byte accounting."""

    __slots__ = ("directory", "lock", "index", "scanned", "dead_bytes",
                 "dead_rows", "active", "listed_stamp")

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.lock = threading.RLock()
        # key -> (segment, offset, length, stored_at); insertion order is
        # LRU order (oldest first), maintained with move_to_end on reads.
        self.index: "OrderedDict[str, tuple[int, int, int, float]]" = (
            OrderedDict())
        self.scanned: dict[int, int] = {}     # segment -> bytes indexed
        self.dead_bytes: dict[int, int] = {}  # superseded/evicted bytes
        self.dead_rows: dict[int, int] = {}   # superseded/evicted rows
        self.active = 1
        # The directory mtime our last listing saw, if it has settled.
        self.listed_stamp: int | None = None

    def disk_bytes(self) -> int:
        return sum(self.scanned.values())

    def live_bytes(self) -> int:
        return sum(length for (_, _, length, _) in self.index.values())


class ShardStore:
    """N key-sharded, segmented JSON-lines logs with TTL + LRU eviction."""

    def __init__(self, root: str, *, shards: int | None = None,
                 key_field: str = "cache_key",
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 size_budget_bytes: int | None = None,
                 ttl_s: float | None = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.root = str(root)
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            # A leftover single-file store: opening it would look empty
            # and then fail on the first put, after the work was done.
            raise ValueError(f"store root {self.root!r} exists and is not "
                             f"a directory")
        # The shard directories record the count: keys route by
        # ``shard_of(key, shards)``, so reopening with another count would
        # look up most rows in the wrong shard.
        on_disk = _disk_shards(self.root)
        self.shards = max(1, int(shards)) if shards is not None else (
            on_disk or DEFAULT_SHARDS)
        if on_disk and on_disk != self.shards:
            raise ValueError(f"store root {self.root!r} holds {on_disk} "
                             f"shards, not {self.shards}")
        self.key_field = key_field
        self.max_segment_bytes = max(4096, int(max_segment_bytes))
        self.size_budget_bytes = (None if size_budget_bytes is None
                                  else max(0, int(size_budget_bytes)))
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self._clock = clock
        self._counters_lock = threading.Lock()
        self._counters: dict[str, int] = {
            "evictions_ttl": 0, "evictions_lru": 0, "compacted_segments": 0,
            "deleted_segments": 0, "rescans": 0, "wrong_key_reads": 0,
        }
        self._shards = [
            _Shard(os.path.join(self.root, f"shard-{index:02d}"))
            for index in range(self.shards)]
        #: Every shard directory exists once the first row is put.
        self._laid_out = all(os.path.isdir(shard.directory)
                             for shard in self._shards)
        for shard in self._shards:
            with shard.lock:
                self._discover(shard)
                self._rescan_grown(shard)

    # ---------------------------------------------------------- counters
    def _bump(self, name: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counters(self) -> dict[str, int]:
        with self._counters_lock:
            return dict(self._counters)

    # ---------------------------------------------------------- scanning
    def _segment_path(self, shard: _Shard, segment: int) -> str:
        return os.path.join(shard.directory, _segment_name(segment))

    @staticmethod
    def _segment_size(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def _discover(self, shard: _Shard) -> None:
        """Pick up segment files this index has never seen (other writers)."""
        try:
            stamp = os.stat(shard.directory).st_mtime_ns
            names = os.listdir(shard.directory)
        except OSError:
            return
        settled = time.time_ns() - stamp > _STAMP_SETTLE_NS
        shard.listed_stamp = stamp if settled else None
        known = max(shard.scanned, default=0)
        for name in names:
            segment = _parse_segment_name(name)
            if segment is not None:
                shard.scanned.setdefault(segment, 0)
                known = max(known, segment)
        shard.active = max(shard.active, known or 1)

    def _discover_changed(self, shard: _Shard) -> None:
        """:meth:`_discover`, unless the directory's settled mtime shows
        that no segment was created or deleted since the last listing."""
        try:
            unchanged = (os.stat(shard.directory).st_mtime_ns
                         == shard.listed_stamp)
        except OSError:
            unchanged = False
        if not unchanged:
            self._discover(shard)

    def _rescan_grown(self, shard: _Shard) -> bool:
        """Index any bytes appended (by us or another process) since the
        last scan.  Returns True when anything new was indexed."""
        indexed = False
        for segment in sorted(shard.scanned):
            path = self._segment_path(shard, segment)
            try:
                size = os.path.getsize(path)
            except OSError:
                size = 0
            start = shard.scanned.get(segment, 0)
            if size < start:
                # Rewritten/truncated behind our back: rebuild the shard.
                self._rebuild(shard)
                return True
            if size > start:
                indexed |= self._scan_segment(shard, segment, start, size)
        return indexed

    def _scan_segment(self, shard: _Shard, segment: int,
                      start: int, end: int) -> bool:
        """Index complete lines of one segment in ``[start, end)``."""
        path = self._segment_path(shard, segment)
        try:
            with open(path, "rb") as handle:
                handle.seek(start)
                blob = handle.read(end - start)
        except OSError:
            return False
        # Only complete lines are indexable; a torn tail (a writer died
        # mid-row, or we raced a writer) stays unscanned until the next
        # append repairs or completes it.
        last_newline = blob.rfind(b"\n")
        if last_newline < 0:
            return False
        blob = blob[:last_newline + 1]
        offset = start
        indexed = False
        now = self._clock()
        for line in blob.splitlines(keepends=True):
            length = len(line)
            try:
                row = json.loads(line)
                key = row.get(self.key_field)
            except (json.JSONDecodeError, UnicodeDecodeError,
                    AttributeError):
                key = None
            if isinstance(key, str):
                stored_at = row.get("stored_at")
                if not isinstance(stored_at, (int, float)):
                    stored_at = now
                self._index_put(shard, key, segment, offset, length,
                                float(stored_at))
                indexed = True
            else:
                self._mark_dead(shard, segment, length)
            offset += length
        shard.scanned[segment] = start + len(blob)
        return indexed

    def _rebuild(self, shard: _Shard) -> None:
        """Full shard rescan from scratch (external rewrite detected)."""
        self._bump("rescans")
        shard.index.clear()
        shard.scanned.clear()
        shard.dead_bytes.clear()
        shard.dead_rows.clear()
        self._discover(shard)
        for segment in sorted(shard.scanned):
            path = self._segment_path(shard, segment)
            try:
                size = os.path.getsize(path)
            except OSError:
                size = 0
            if size:
                self._scan_segment(shard, segment, 0, size)

    def _index_put(self, shard: _Shard, key: str, segment: int,
                   offset: int, length: int, stored_at: float) -> None:
        old = shard.index.get(key)
        if old is not None:
            self._mark_dead(shard, old[0], old[2])
        shard.index[key] = (segment, offset, length, stored_at)
        shard.index.move_to_end(key)

    def _mark_dead(self, shard: _Shard, segment: int, length: int) -> None:
        shard.dead_bytes[segment] = shard.dead_bytes.get(segment, 0) + length
        shard.dead_rows[segment] = shard.dead_rows.get(segment, 0) + 1

    # ----------------------------------------------------------- reading
    def get(self, key: str) -> dict[str, Any] | None:
        """The live row for ``key``, or ``None``.

        Every span read verifies ``row[key_field] == key``: a stale index
        entry (the segment was compacted or rewritten by another process)
        triggers one full shard rescan and a retry instead of silently
        returning whatever row now occupies those bytes.  Reads touch the
        LRU order; TTL-expired entries are evicted on sight.
        """
        shard = self._shards[shard_of(key, self.shards)]
        with shard.lock:
            row = self._get_locked(shard, key)
            if row is None:
                # Maybe another process published it since our last scan.
                self._discover(shard)
                if self._rescan_grown(shard):
                    row = self._get_locked(shard, key)
            return row

    def _get_locked(self, shard: _Shard, key: str,
                    retry: bool = True) -> dict[str, Any] | None:
        entry = shard.index.get(key)
        if entry is None:
            return None
        segment, offset, length, stored_at = entry
        if self.ttl_s is not None and self._clock() - stored_at > self.ttl_s:
            self._evict(shard, key, "evictions_ttl")
            return None
        row = None
        try:
            with open(self._segment_path(shard, segment), "rb") as handle:
                handle.seek(offset)
                row = json.loads(handle.read(length))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            row = None
        if isinstance(row, dict) and row.get(self.key_field) == key:
            shard.index.move_to_end(key)
            return row
        if isinstance(row, dict):
            self._bump("wrong_key_reads")
        if not retry:
            shard.index.pop(key, None)
            return None
        self._rebuild(shard)
        return self._get_locked(shard, key, retry=False)

    def keys(self) -> set[str]:
        keys: set[str] = set()
        for shard in self._shards:
            with shard.lock:
                keys.update(shard.index)
        return keys

    def __len__(self) -> int:
        return sum(len(shard.index) for shard in self._shards)

    def __contains__(self, key: str) -> bool:
        shard = self._shards[shard_of(key, self.shards)]
        with shard.lock:
            return key in shard.index

    # ----------------------------------------------------------- writing
    def put(self, key: str, row: Mapping[str, Any]) -> tuple[int, int]:
        """Append one row; returns its authoritative ``(offset, length)``."""
        document = dict(row)
        document.setdefault(self.key_field, key)
        if document[self.key_field] != key:
            raise ValueError(f"row {self.key_field}="
                             f"{document[self.key_field]!r} != key {key!r}")
        stored_at = document.get("stored_at")
        if not isinstance(stored_at, (int, float)):
            stored_at = round(self._clock(), 3)
            document["stored_at"] = stored_at
        data = (jsontext.dumps(document, default=str)
                + "\n").encode("utf-8")
        if not self._laid_out:
            for each in self._shards:
                os.makedirs(each.directory, exist_ok=True)
            self._laid_out = True
        shard = self._shards[shard_of(key, self.shards)]
        with shard.lock:
            # Recency is segment order, so a row must land in the newest
            # segment on disk: another instance may have rotated or
            # compacted into a higher one since our last look.
            self._discover_changed(shard)
            segment = shard.active
            path = self._segment_path(shard, segment)
            start = shard.scanned.get(segment, 0)
            if self._segment_size(path) < start:
                # Our active segment shrank behind us (another process
                # compacted it away).  Appending to a *recreated* file
                # would put new bytes in an old segment number, which
                # breaks segment-order recency -- rebuild and append to
                # the true newest segment instead.
                self._rebuild(shard)
                segment = shard.active
                path = self._segment_path(shard, segment)
                start = shard.scanned.get(segment, 0)
            offset, length = append_jsonl_line(path, data)
            if offset > start:
                # Another process appended rows between our scans; index
                # the gap so its keys stay visible to this reader.
                self._scan_segment(shard, segment, start, offset)
            self._index_put(shard, key, segment, offset, length,
                            float(stored_at))
            shard.scanned[segment] = offset + length
            if offset + length >= self.max_segment_bytes:
                shard.active = max(shard.scanned, default=segment) + 1
            self._enforce_budget(shard)
        return (offset, length)

    # ------------------------------------------- eviction and compaction
    def _per_shard_budget(self) -> int | None:
        if self.size_budget_bytes is None:
            return None
        return max(self.max_segment_bytes,
                   self.size_budget_bytes // self.shards)

    def _evict(self, shard: _Shard, key: str, counter: str) -> None:
        entry = shard.index.pop(key, None)
        if entry is not None:
            self._mark_dead(shard, entry[0], entry[2])
            self._bump(counter)

    def _expire_ttl(self, shard: _Shard) -> int:
        if self.ttl_s is None:
            return 0
        deadline = self._clock() - self.ttl_s
        expired = [key for key, (_, _, _, stored_at) in shard.index.items()
                   if stored_at < deadline]
        for key in expired:
            self._evict(shard, key, "evictions_ttl")
        return len(expired)

    def _drop_dead_segments(self, shard: _Shard) -> bool:
        """Delete non-active segments with no live rows.  True if any died."""
        live_segments = {segment
                         for (segment, _, _, _) in shard.index.values()}
        dropped = False
        for segment in sorted(shard.scanned):
            if segment == shard.active or segment in live_segments:
                continue
            # The segment looks dead *to our index* -- another process may
            # have appended since our last scan.  Index any tail first and
            # spare the segment if live rows appear.
            path = self._segment_path(shard, segment)
            size = self._segment_size(path)
            start = shard.scanned.get(segment, 0)
            if size > start and self._scan_segment(shard, segment, start,
                                                   size):
                continue
            try:
                os.unlink(self._segment_path(shard, segment))
            except OSError:
                pass
            shard.scanned.pop(segment, None)
            shard.dead_bytes.pop(segment, None)
            shard.dead_rows.pop(segment, None)
            self._bump("deleted_segments")
            dropped = True
        return dropped

    def _compact_segment(self, shard: _Shard, segment: int) -> int:
        """Move ``segment``'s live rows to the active segment, delete it.

        This is the rotation-style compaction: bounded work (one segment's
        live rows), never a whole-store rewrite.  Returns rows moved.
        """
        path = self._segment_path(shard, segment)
        # Another process may have appended to this segment since our last
        # scan; index the tail before moving rows, or its keys die with
        # the file below.
        size = self._segment_size(path)
        start = shard.scanned.get(segment, 0)
        if size > start:
            self._scan_segment(shard, segment, start, size)
        elif size < start:
            self._rebuild(shard)
            if segment not in shard.scanned:
                return 0
        victims = [(key, entry) for key, entry in shard.index.items()
                   if entry[0] == segment]
        moved = 0
        if shard.active == segment:
            shard.active = max(shard.scanned, default=segment) + 1
        for key, (_, offset, length, stored_at) in victims:
            row = None
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    row = json.loads(handle.read(length))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                row = None
            if not (isinstance(row, dict)
                    and row.get(self.key_field) == key):
                shard.index.pop(key, None)
                continue
            data = (jsontext.dumps(row, default=str)
                    + "\n").encode("utf-8")
            target = self._segment_path(shard, shard.active)
            new_offset, new_length = append_jsonl_line(target, data)
            shard.scanned[shard.active] = new_offset + new_length
            # Rewriting preserves the row (and its stored_at): keep the
            # original insertion point in the LRU order.
            shard.index[key] = (shard.active, new_offset, new_length,
                                stored_at)
            moved += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        shard.scanned.pop(segment, None)
        shard.dead_bytes.pop(segment, None)
        shard.dead_rows.pop(segment, None)
        self._bump("compacted_segments")
        return moved

    def _compact_one(self, shard: _Shard) -> bool:
        """Compact the deadest eligible non-active segment, if any."""
        best, best_ratio = None, _COMPACT_DEAD_RATIO
        for segment, size in shard.scanned.items():
            if segment == shard.active or not size:
                continue
            ratio = shard.dead_bytes.get(segment, 0) / size
            if ratio >= best_ratio:
                best, best_ratio = segment, ratio
        if best is None:
            return False
        self._compact_segment(shard, best)
        return True

    def _enforce_budget(self, shard: _Shard) -> None:
        budget = self._per_shard_budget()
        if budget is None:
            return
        self._expire_ttl(shard)
        while shard.disk_bytes() > budget:
            if self._drop_dead_segments(shard):
                continue
            if self._compact_one(shard):
                continue
            # Nothing reclaimable without shrinking the live set: evict
            # the least-recently-used entry (index order is LRU order).
            lru_key = next(iter(shard.index), None)
            if lru_key is None:
                break
            self._evict(shard, lru_key, "evictions_lru")

    def compact(self) -> tuple[int, int]:
        """Expire + rewrite every segment with dead bytes; ``(kept, dropped)``.

        ``dropped`` counts superseded/evicted/corrupt rows removed from
        disk.
        """
        kept = 0
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                self._discover(shard)
                self._rescan_grown(shard)
                self._expire_ttl(shard)
                dropped += sum(shard.dead_rows.values())
                self._drop_dead_segments(shard)
                for segment in sorted(shard.scanned):
                    if shard.dead_bytes.get(segment, 0) > 0:
                        self._compact_segment(shard, segment)
                self._drop_dead_segments(shard)
                kept += len(shard.index)
        return (kept, dropped)

    # --------------------------------------------------------- telemetry
    def disk_bytes(self) -> int:
        return sum(shard.disk_bytes() for shard in self._shards)

    def occupancy(self) -> list[dict[str, Any]]:
        """Per-shard occupancy rows for metrics and warmth heartbeats."""
        rows = []
        for number, shard in enumerate(self._shards):
            with shard.lock:
                rows.append({
                    "shard": number,
                    "entries": len(shard.index),
                    "live_bytes": shard.live_bytes(),
                    "disk_bytes": shard.disk_bytes(),
                    "segments": len(shard.scanned),
                    "dead_rows": sum(shard.dead_rows.values()),
                })
        return rows
