"""Heap files: unordered record storage with overflow (TOAST-like) chains.

A heap file is a linked chain of HEAP pages. Records small enough to live in
a page are stored inline; larger records (hub-label rows carry three arrays
with hundreds or thousands of elements, routinely exceeding one 8 KiB page)
are moved to a chain of OVERFLOW pages and the heap cell keeps only a stub
pointing at the chain — the same idea as PostgreSQL's TOAST.

Record ids (``rid``) are ``(page_id, slot)`` pairs and remain stable for the
life of the record.

Every multi-page operation pins the pages it holds across other pool calls
(`BufferPool` refcounts pins), so a page being extended or read can never be
evicted out from under the operation — this holds even on a capacity-1
pool. Content reads and mutations go through the frame's reader–writer
latch; latches are only ever held one page at a time and never across a
``yield``, which keeps the locking order trivially deadlock-free. Both
disciplines are machine-checked: the dynamic sanitizer (``SANITIZE=1``)
verifies every pin is released by statement end and every ``mark_dirty``
happens under the write latch, and ``repro sanitize`` lints this file's
pin/latch shapes statically — see docs/SANITIZER.md.
"""

from __future__ import annotations

import struct
from functools import partial

from repro.errors import StorageError
from repro.minidb.buffer import BufferPool
from repro.minidb.page import (
    HEADER_SIZE,
    KIND_HEAP,
    KIND_OVERFLOW,
    MAX_CELL,
    PAGE_SIZE,
)

_INLINE = 0
_OVERFLOW = 1
_STUB = struct.Struct("<BIq")  # flag, total length, first overflow page
_CHUNK_LEN = struct.Struct("<H")

# Payload capacity of one overflow page.
_OVERFLOW_CAP = PAGE_SIZE - HEADER_SIZE - _CHUNK_LEN.size
# Keep inline records comfortably below a full page so several fit.
_INLINE_LIMIT = MAX_CELL - 1


class HeapFile:
    """An append-oriented heap of byte records over a buffer pool."""

    def __init__(self, pool: BufferPool, first_page: int | None = None):
        self.pool = pool
        if first_page is None:
            # new_page admits the frame already dirty, and nothing else can
            # reach an unlinked page, so no latch (or mark_dirty) is needed.
            first_page, _ = pool.new_page(KIND_HEAP)
            pool.unpin(first_page)
        self.first_page = first_page
        #: Heap page ids in chain order. The chain only ever grows at the
        #: tail (``insert_many``) and vacuum builds a fresh HeapFile, so
        #: this stays exact for the file's lifetime. Scans use it to
        #: prefetch the next pages of the chain in one sequential run.
        self._chain: list[int] = []
        self._last_page = self._find_last_page()

    def _find_last_page(self) -> int:
        """Walk the chain once at attach, refusing any page that is not a
        heap page: its slot directory would be misread, not rejected."""
        page_id = self.first_page
        while True:
            self._chain.append(page_id)
            page = self.pool.get(page_id)
            if page.kind != KIND_HEAP:
                raise StorageError(
                    f"heap chain page {page_id} has page kind {page.kind}, "
                    f"not {KIND_HEAP} (heap)"
                )
            if page.next_page == -1:
                return page_id
            page_id = page.next_page

    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> tuple[int, int]:
        """Store *record*, returning its rid."""
        return self.insert_many([record], lambda _i, store: store())[0]

    def insert_many(self, records: list[bytes], claim) -> list[tuple[int, int]]:
        """Store *records* in order and return their rids, the tail page
        pinned, write-latched and marked dirty once for the run of records
        it takes. ``claim(i, store)`` calls ``store()``, which stores record
        *i* and returns its rid (a table's index does so once the key proved
        new), or raises: the records before *i* stay stored. A record that
        does not fit extends the chain inside ``store``, so pages are
        allocated in the order one-record inserts allocate them."""
        rids: list[tuple[int, int]] = []

        def store(page_id, page, record):
            if len(record) + 1 <= _INLINE_LIMIT:
                cell = bytes([_INLINE]) + record
            else:
                cell = _STUB.pack(_OVERFLOW, len(record), self._write_overflow(record))
            if page.free_space < len(cell):
                # A new tail, linked while the old one stays pinned: even a
                # capacity-1 pool cannot evict it before the link lands.
                new_id, new_page = self.pool.new_page(KIND_HEAP)
                page.next_page = new_id
                self._last_page = new_id
                self._chain.append(new_id)
                with self.pool.latch(new_id).write():
                    rids.append((new_id, new_page.insert(cell)))
                    self.pool.mark_dirty(new_id)
                self.pool.unpin(new_id)
            else:
                rids.append((page_id, page.insert(cell)))
            return rids[-1]

        while len(rids) < len(records):
            page_id = self._last_page
            with self.pool.pinned(page_id) as page, self.pool.latch(page_id).write():
                self.pool.mark_dirty(page_id)
                while len(rids) < len(records) and self._last_page == page_id:
                    claim(len(rids), partial(store, page_id, page, records[len(rids)]))
        return rids

    def read(self, rid: tuple[int, int]) -> bytes:
        """Fetch the record stored at *rid*."""
        return self.read_many([rid])[0]

    def read_many(self, rids: list[tuple[int, int]]) -> list[bytes]:
        """Fetch the records at *rids*, in the order given: one pin and one
        read-latch hold per run of rids on the same page, overflow chains
        followed once no heap page is held."""
        return [self._record(cell)[0] for cell, _, _ in self._cells(rids)]

    def read_rows(self, rids: list[tuple[int, int]], decode) -> list:
        """``decode(record)`` for the records at *rids*, in order, each
        decoded once per residency of its heap page (docs/STORAGE.md,
        "Decoded rows live with their frame"). The first read leaves the
        value on the page's frame, keyed by slot with the record's
        overflow-chain page ids; a later one returns that same object and
        passes each of those pages through the pool without copying it. So
        the accesses — hits, misses, device reads and their order — are
        those of :meth:`read_many`, and only the copy and the decode go.
        Callers must not change a returned value: later readers get it."""
        pool = self.pool
        stats = pool.thread_row_stats()
        values = []
        for cell, slot, rows in self._cells(rids, decoded=True):
            if slot is None:  # cell is the frame's (value, chain) entry
                value, chain = cell
                for page_id in chain:
                    with pool.reading(page_id):
                        pass
                stats.hits += 1
            else:
                record, chain = self._record(cell)
                value = decode(record)
                rows[slot] = (value, chain)
                stats.misses += 1
            values.append(value)
        return values

    def _cells(self, rids, decoded: bool = False) -> list[tuple]:
        """What leaves the heap pages' read latches for *rids*, in order —
        one pin and one latch hold per run of rids on a page — as
        ``(cell, slot, rows)``: the :meth:`_cell` copy, its slot and, with
        *decoded*, the frame's decoded-row map to fill. Where that map
        already holds the slot, the entry stands in for the cell (nothing
        is copied) and *slot* and *rows* are None."""
        cells = []
        i = 0
        while i < len(rids):
            page_id = rids[i][0]
            guard = self.pool.reading(page_id)
            with guard as page:
                if page.kind != KIND_HEAP:
                    raise StorageError(
                        f"rid {rids[i]} does not point at a heap page"
                    )
                rows = guard.decoded_rows() if decoded else None
                while i < len(rids) and rids[i][0] == page_id:
                    slot = rids[i][1]
                    entry = None if rows is None else rows.get(slot)
                    if entry is None:
                        cells.append((self._cell(page.view(slot)), slot, rows))
                    else:
                        cells.append((entry, None, None))
                    i += 1
        return cells

    def delete(self, rid: tuple[int, int]) -> int:
        """Tombstone the record (overflow pages are left to vacuum) and
        return its length."""
        page_id, slot = rid
        with self.pool.pinned(page_id) as page:
            with self.pool.latch(page_id).write():
                view = page.view(slot)
                length = len(view) - 1 if view[0] == _INLINE else _STUB.unpack(view)[1]
                page.delete(slot)
                self.pool.mark_dirty(page_id)
        return length

    def overwrite(self, rid: tuple[int, int], record: bytes) -> None:
        """Replace the inline record at *rid* in place with *record*, of the
        same length (docs/STORAGE.md, "The catalog heap")."""
        page_id, slot = rid
        with self.pool.pinned(page_id) as page:
            with self.pool.latch(page_id).write():
                view = page.view(slot)
                if view[0] != _INLINE or len(view) != len(record) + 1:
                    raise StorageError(f"rid {rid}: not an inline record of that length")
                view[1:] = record
                self.pool.mark_dirty(page_id)

    def scan(self, readahead: int = 0):
        """Yield ``(rid, record_bytes)`` over every live record, in rid order.

        The scan walks pages in chain order, which is also allocation order,
        so the device model sees mostly-sequential reads — as a real heap
        scan would. With ``readahead=N`` the next N chain pages are
        prefetched into the buffer pool as one batched device run before
        being walked, so cold multi-page scans are charged the device's
        *sequential* read rate even when overflow-chain reads interleave
        with the heap pages (miss/hit totals are unchanged; see
        ``BufferPool.prefetch``). The current page stays pinned while its
        slots are walked (overflow reads in between can therefore never
        evict it); the latch is released before each ``yield`` so consumers
        may issue their own page operations freely.
        """
        chain = self._chain
        index = 0
        pending = 0  # pages of the current prefetch group not yet walked
        while index < len(chain):
            page_id = chain[index]
            if readahead > 1:
                if pending == 0:
                    batch = chain[index : index + readahead]
                    self.pool.prefetch(batch)
                    pending = len(batch)
                pending -= 1
            page = self.pool.pin(page_id)
            try:
                latch = self.pool.latch(page_id)
                for slot in range(page.slot_count):
                    with latch.read():
                        if page.is_deleted(slot):
                            continue
                        cell = self._cell(page.view(slot))
                    yield (page_id, slot), self._record(cell)[0]
            finally:
                self.pool.unpin(page_id)
            index += 1

    def snapshot(self) -> tuple:
        """The in-memory state a statement can change, for :meth:`rollback`
        once the statement's pages are back at their before-images. The
        chain only grows at the tail, so its old length is its old value."""
        return self._last_page, len(self._chain)

    def rollback(self, snapshot: tuple) -> None:
        self._last_page, length = snapshot
        del self._chain[length:]

    def page_ids(self) -> list[int]:
        """All heap page ids of this file in chain order (excluding
        overflow pages), from memory: no page is read."""
        return list(self._chain)

    # ------------------------------------------------------------------
    def _write_overflow(self, record: bytes) -> int:
        first = -1
        prev_id = -1
        for start in range(0, len(record), _OVERFLOW_CAP):
            chunk = record[start : start + _OVERFLOW_CAP]
            page_id, page = self.pool.new_page(KIND_OVERFLOW)
            with self.pool.latch(page_id).write():
                _CHUNK_LEN.pack_into(page.buf, HEADER_SIZE, len(chunk))
                page.buf[HEADER_SIZE + 2 : HEADER_SIZE + 2 + len(chunk)] = chunk
                self.pool.mark_dirty(page_id)
            if first == -1:
                first = page_id
            else:
                # prev is still pinned from the previous iteration, so this
                # link write lands on the resident frame.
                prev = self.pool.get(prev_id)
                with self.pool.latch(prev_id).write():
                    prev.next_page = page_id
                    self.pool.mark_dirty(prev_id)
                self.pool.unpin(prev_id)
            prev_id = page_id
        if prev_id != -1:
            self.pool.unpin(prev_id)
        return first

    @staticmethod
    def _cell(view: memoryview):
        """What leaves the latch of a heap cell, copied once: the inline
        record itself, or the unpacked stub of its overflow chain."""
        if view[0] == _INLINE:
            return bytes(view[1:])
        return _STUB.unpack(view)

    def _record(self, cell) -> tuple[bytes, tuple[int, ...]]:
        """The record a :meth:`_cell` stands for and the page ids of its
        overflow chain (none for an inline record); call with no heap latch
        held."""
        if type(cell) is bytes:
            return cell, ()
        _, total, ovf_page = cell
        return self._read_overflow(ovf_page, total)

    def _read_overflow(self, first_page: int, total: int):
        parts = []
        chain = []
        remaining = total
        page_id = first_page
        while remaining > 0:
            if page_id == -1:
                raise StorageError("overflow chain truncated")
            with self.pool.reading(page_id) as page:
                if page.kind != KIND_OVERFLOW:
                    raise StorageError(f"page {page_id} is not an overflow page")
                (length,) = _CHUNK_LEN.unpack_from(page.buf, HEADER_SIZE)
                parts.append(
                    bytes(page.buf[HEADER_SIZE + 2 : HEADER_SIZE + 2 + length])
                )
                next_page = page.next_page
            chain.append(page_id)
            remaining -= length
            page_id = next_page
        data = b"".join(parts)
        if len(data) != total:
            raise StorageError("overflow chain length mismatch")
        return data, tuple(chain)
