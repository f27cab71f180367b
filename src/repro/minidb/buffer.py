"""LRU buffer pool over the disk manager.

Mirrors PostgreSQL's shared buffers at the granularity the paper cares
about: a query that touches a page already in the pool pays nothing; a miss
goes to the :class:`~repro.minidb.disk.DiskManager`, which charges the device
model. Benchmarks call :meth:`BufferPool.clear` to emulate the paper's
"restart the PostgreSQL server and drop the OS cache before each experiment".

Concurrency (docs/ARCHITECTURE.md, "Concurrency model"):

* One pool-wide lock guards the frame table, LRU order, all counters and
  the state of every frame latch, so any number of sessions can
  hit/miss/evict concurrently without corrupting the accounting the
  reproduction exists to measure.
* Each frame carries a **pin count**. A pinned frame is never chosen as an
  eviction victim, so a heap/B+Tree operation that holds a page across
  another pool call (the classic "allocate a new page while extending the
  chain" pattern) can keep mutating it safely. When *every* frame is pinned
  — e.g. a capacity-1 pool in the middle of a two-page operation — the pool
  temporarily admits over capacity instead of failing; the next admission
  evicts back down once pins are released.
* Each frame carries a :class:`~repro.minidb.latch.RWLatch` protecting the
  page *content*, built over the pool lock: readers share it, mutators take
  it exclusively, pinned first (the pin keeps the frame — and the latch
  identity — alive). Content is read through :meth:`BufferPool.reading`:
  one hold of that lock finds, pins and share-latches a frame (waiting,
  lock released, only on a writer) and a second gives both back.

Like the disk manager, the pool keeps per-thread counters next to the
global ones so concurrent sessions can attribute hits/misses exactly.

The rules above are enforced, not just documented: under ``SANITIZE=1`` the
dynamic sanitizer (:mod:`repro.minidb.sanitize.dynamic`) records every
pin/unpin with its acquiring call stack, flags unpins of never-pinned pages
(``SAND03``), ``mark_dirty`` without the frame's write latch (``SAND04``)
and eviction of a latched frame (``SAND06``); the static checker
(``repro sanitize``) additionally forbids touching pool internals
(``_frames``, ``pins``, ...) from outside this module. See
docs/SANITIZER.md.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import StorageError
from repro.minidb.disk import DiskManager
from repro.minidb.latch import RWLatch
from repro.minidb.page import Page
from repro.minidb.sanitize import dynamic as _san


class _ReadingGuard:
    """``with``-guard of ``BufferPool.reading``: one hold of the pool lock
    finds the frame, pins it and takes the shared side of its latch; a
    second gives both back."""

    __slots__ = ("_pool", "_page_id", "_pinned", "_frame")

    def __init__(self, pool: "BufferPool", page_id: int, pinned: bool):
        self._pool = pool
        self._page_id = page_id
        self._pinned = pinned

    def __enter__(self) -> Page:
        pool, page_id = self._pool, self._page_id
        ident = threading.get_ident()
        with pool._lock:
            if self._pinned:  # reached through a pin: not another access
                frame = pool._frames[page_id]
            else:
                frame = pool._fetch(page_id, ident)
            frame.pins += 1  # before a wait on a writer: it cannot be evicted
            try:
                frame.latch.acquire_read_locked(ident)
            except BaseException:  # a self-deadlock: leave no pin behind
                frame.pins -= 1
                raise
            tracker = _san.TRACKER
            if tracker is not None:
                tracker.on_pin(page_id)
        self._frame = frame
        return frame.page

    def __exit__(self, exc_type, exc, tb):
        frame = self._frame
        with self._pool._lock:
            frame.latch.release_read_locked(threading.get_ident())
            tracker = _san.TRACKER
            if tracker is not None:
                tracker.on_unpin(self._page_id)
            frame.pins -= 1
        return False


@dataclass
class PoolStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def snapshot(self) -> "PoolStats":
        return PoolStats(self.hits, self.misses, self.evictions)

    def delta(self, since: "PoolStats") -> "PoolStats":
        return PoolStats(
            self.hits - since.hits,
            self.misses - since.misses,
            self.evictions - since.evictions,
        )


class _Frame:
    """One resident page: content, dirty flag, pin count, content latch."""

    __slots__ = ("page", "dirty", "pins", "latch")

    def __init__(self, page: Page, dirty: bool, page_id: int, lock):
        self.page = page
        self.dirty = dirty
        self.pins = 0
        self.latch = RWLatch(f"page:{page_id}", lock)


class BufferPool:
    """Fixed-capacity LRU page cache with write-back of dirty pages."""

    def __init__(self, disk: DiskManager, capacity: int = 1024):
        if capacity < 1:
            raise StorageError("buffer pool needs capacity >= 1")
        self.disk = disk
        self.capacity = capacity
        self.stats = PoolStats()
        self._thread_stats: dict[int, PoolStats] = {}
        # page_id -> _Frame; OrderedDict keeps LRU order.
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        # Guards _frames, LRU order, pin counts and every counter. Reentrant
        # so clear() can call flush() and get() can call _admit().
        self._lock = threading.RLock()
        #: Write-ahead log armed by the Database (file-backed mode only).
        #: The pool reports every first-dirty to it and honors its no-steal
        #: rule: a WAL-pending frame is never evicted or flushed, so the
        #: main file only ever holds committed images (docs/STORAGE.md).
        self.wal = None

    # -- accounting ------------------------------------------------------
    def thread_stats(self) -> PoolStats:
        """The calling thread's private ``PoolStats`` (created on first use)."""
        ident = threading.get_ident()
        stats = self._thread_stats.get(ident)
        if stats is None:
            stats = self._thread_stats.setdefault(ident, PoolStats())
        return stats

    def _record_miss(self) -> None:
        self.stats.misses += 1
        self.thread_stats().misses += 1

    def _record_eviction(self) -> None:
        self.stats.evictions += 1
        self.thread_stats().evictions += 1

    # ------------------------------------------------------------------
    def get(self, page_id: int, pin: bool = False) -> Page:
        """Return the page, reading it through on a miss.

        With ``pin=True`` the frame's pin count is incremented before the
        lock is released, so the page cannot be evicted until a matching
        :meth:`unpin`."""
        with self._lock:
            frame = self._fetch(page_id, threading.get_ident())
            if pin:
                frame.pins += 1
                tracker = _san.TRACKER
                if tracker is not None:
                    tracker.on_pin(page_id)
            return frame.page

    def _fetch(self, page_id: int, ident: int) -> _Frame:
        """The page's frame, read through on a miss, counted as one access
        of thread *ident*. Caller holds ``self._lock``."""
        frame = self._frames.get(page_id)
        if frame is None:
            self._record_miss()
            return self._admit(page_id, Page(self.disk.read_page(page_id)), False)
        self.stats.hits += 1
        (self._thread_stats.get(ident) or self.thread_stats()).hits += 1
        self._frames.move_to_end(page_id)
        return frame

    def prefetch(self, page_ids) -> int:
        """Readahead: admit the missing pages among *page_ids* in one
        sequential device run, returning how many were actually fetched.

        Misses are recorded here (a prefetched page is still a pool miss —
        it was not resident and a device read was issued for it), so
        per-query ``misses``/``page_reads`` are identical with and without
        readahead; only the *latency* charged changes, because the batched
        :meth:`DiskManager.read_run` prices the run sequentially. The later
        :meth:`get` for a prefetched page is an ordinary hit. Already-
        resident pages are skipped without touching counters or LRU order.
        """
        with self._lock:
            missing = sorted(
                {pid for pid in page_ids if pid not in self._frames}
            )
            if not missing:
                return 0
            for buf in zip(missing, self.disk.read_run(missing)):
                page_id, raw = buf
                self._record_miss()
                self._admit(page_id, Page(raw), dirty=False)
            return len(missing)

    def total_pins(self) -> int:
        """Sum of all frames' pin counts (0 = no operation holds a page)."""
        with self._lock:
            return sum(frame.pins for frame in self._frames.values())

    def pin(self, page_id: int) -> Page:
        """Fetch *and* pin the page (shorthand for ``get(pin=True)``)."""
        return self.get(page_id, pin=True)

    def unpin(self, page_id: int) -> None:
        """Release one pin; the frame becomes evictable at zero."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} not resident; cannot unpin")
            if frame.pins <= 0:
                raise StorageError(f"page {page_id} is not pinned")
            tracker = _san.TRACKER
            if tracker is not None:
                # Raises SAND03 when this thread never pinned the page —
                # before the count moves, so the pool stays consistent.
                tracker.on_unpin(page_id)
            frame.pins -= 1

    @contextmanager
    def pinned(self, page_id: int):
        """``with pool.pinned(pid) as page:`` — pin for the block's duration
        (the write paths' guard; reads go through :meth:`reading`)."""
        page = self.pin(page_id)
        try:
            yield page
        finally:
            self.unpin(page_id)

    def reading(self, page_id: int, pinned: bool = False):
        """``with pool.reading(pid) as page:`` — the page pinned and its
        latch held shared for the block: the one way page content is read.
        ``pinned=True`` counts no access: the caller reached the page through
        a pin it still holds (a descent keeping its node for a later write)."""
        return _ReadingGuard(self, page_id, pinned)

    def pin_count(self, page_id: int) -> int:
        with self._lock:
            frame = self._frames.get(page_id)
            return frame.pins if frame is not None else 0

    def latch(self, page_id: int) -> RWLatch:
        """The resident frame's content latch. Hold a pin while using it."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} not resident; cannot latch")
            return frame.latch

    def new_page(self, kind: int) -> tuple[int, Page]:
        """Allocate a fresh page of *kind*, admitted dirty and **pinned**.

        The pin is real (refcounted): the caller must :meth:`unpin` once the
        page is linked into whatever structure needed it. This is what makes
        multi-page operations safe on arbitrarily small pools."""
        with self._lock:
            page_id = self.disk.allocate()
            page = Page()
            page.format(kind)
            frame = self._admit(page_id, page, dirty=True)
            frame.pins += 1
            tracker = _san.TRACKER
            if tracker is not None:
                tracker.on_pin(page_id)
            if self.wal is not None:
                # A fresh page is mutated in place without a later
                # mark_dirty (nothing else can reach an unlinked page), so
                # the WAL must learn about it here.
                self.wal.on_page_dirty(page_id, self, fresh=True)
            return page_id, page

    def mark_dirty(self, page_id: int) -> None:
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} not resident; cannot mark dirty")
            tracker = _san.TRACKER
            if tracker is not None:
                # SAND04: mutating page content requires the write latch.
                tracker.on_mark_dirty(page_id, frame.latch)
            frame.dirty = True
            if self.wal is not None:
                self.wal.on_page_dirty(page_id, self)

    def page_image(self, page_id: int) -> bytes:
        """Copy of a resident frame's content (no hit/miss accounting).

        WAL commit uses this to snapshot after-images; pending frames are
        always resident (the no-steal rule keeps them in the pool)."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} not resident; cannot image")
            return bytes(frame.page.buf)

    def restore_page(self, page_id: int, image: bytes, dirty: bool) -> None:
        """Overwrite a resident frame with *image* (WAL rollback).

        ``dirty`` says whether the restored content is still ahead of the
        main file (a committed-but-unflushed page) or matches it exactly.
        Runs on the statement-failure path under the exclusive statement
        latch, so no reader can observe the frame mid-restore."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} not resident; cannot restore")
            frame.page.buf[:] = image
            frame.dirty = dirty

    def flush(self) -> None:
        """Write back every dirty page (keeps them cached).

        WAL-pending pages — dirtied by a statement that has not committed —
        are skipped: under the no-steal rule only committed images may reach
        the main file. ``Database.checkpoint`` commits before flushing, so
        its flush is always complete."""
        with self._lock:
            for page_id, frame in self._frames.items():
                if frame.dirty and (
                    self.wal is None or not self.wal.is_pending(page_id)
                ):
                    self.disk.write_page(page_id, frame.page.buf)
                    frame.dirty = False

    def clear(self) -> None:
        """Flush and drop the whole cache (the paper's cold-cache restart).

        Pool counters and the disk manager's I/O counters reset together
        (global and per-thread views alike): activity before the restart
        (including the flush writes issued here) can no longer leak into
        deltas measured after it, so a cold benchmark run never mixes
        warm-run figures. Refuses to run while any page is pinned — a pin
        held across a restart is a caller bug, not a cache entry.
        """
        with self._lock:
            still_pinned = sorted(
                pid for pid, frame in self._frames.items() if frame.pins
            )
            if still_pinned:
                raise StorageError(
                    f"cannot clear buffer pool: pages {still_pinned} are pinned"
                )
            self.flush()
            self._frames.clear()
            # Forget the sequential-read run as a real restart would.
            self.disk.reset_access_history()
            self.stats = PoolStats()
            self._thread_stats.clear()
            self.disk.reset_stats()

    def resident(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._frames

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)

    # ------------------------------------------------------------------
    def _admit(self, page_id: int, page: Page, dirty: bool) -> _Frame:
        # Caller holds self._lock.
        while len(self._frames) >= self.capacity:
            victim_id = next(
                (
                    pid
                    for pid, f in self._frames.items()
                    if f.pins == 0
                    and (self.wal is None or not self.wal.is_pending(pid))
                ),
                None,
            )
            if victim_id is None:
                # Every frame is pinned or WAL-pending: overflow capacity
                # rather than evict a page someone is still using (or whose
                # uncommitted image must not reach the file). The next
                # admission shrinks the pool back once pins/commits release.
                break
            victim = self._frames.pop(victim_id)
            tracker = _san.TRACKER
            if tracker is not None:
                # SAND06: a zero-pin victim whose latch is held means some
                # caller latched without pinning.
                tracker.on_evict(victim_id, victim.latch)
            self._record_eviction()
            if victim.dirty:
                self.disk.write_page(victim_id, victim.page.buf)
        frame = _Frame(page, dirty, page_id, self._lock)
        self._frames[page_id] = frame
        return frame
