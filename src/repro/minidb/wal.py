"""Page-level write-ahead log: statement durability for file-backed minidb.

The serving tier (docs/ARCHITECTURE.md, "Serving tier") runs label shards in
worker processes that may be SIGKILLed at any instant; re-ingesting labels on
every restart would dwarf the queries themselves. The WAL makes a killed
worker restartable in place: every committed DML/DDL statement is re-applied
from the log on reopen, so ``Database(path=...)`` recovers to exactly the
last committed statement without touching the ingest pipeline.

The catalog is an ordinary heap (page 0 on, docs/STORAGE.md, "The catalog
heap"): a statement's catalog rows are pages like any other, so the log
holds page images and nothing else.

Protocol (docs/STORAGE.md, "Durability"):

* **No-steal buffering.** A page dirtied by the statement in flight is
  *WAL-pending*: the buffer pool refuses to evict or flush it, so the main
  database file only ever contains committed page images. (The pool's
  existing pinned-overflow mechanism absorbs the capacity pressure.)
* **Commit = one batched append.** When a write statement finishes, the log
  appends an AFTER record (the current frame content) per dirtied page,
  then one COMMIT record carrying the page count — all to an unbuffered
  file, so a SIGKILL after :meth:`commit` returns cannot lose the
  statement. A crash mid-append leaves a torn tail that replay detects
  (CRC + length framing) and discards: the statement never happened.
* **Rollback** restores each pending frame from its in-memory before-image,
  so a failed statement leaves the pool byte-identical to the last commit.
* **Checkpoint** flushes every dirty frame, fsyncs the main file, then
  truncates the log — after which the log is empty and the main file is
  self-contained. Crashing *inside* a checkpoint is covered at every
  window: until the truncate, the log still holds every committed image
  and replay is idempotent.
* **Replay** (:meth:`WriteAheadLog.replay`) scans the log and applies the
  AFTER images of every *committed* batch to the main file; the catalog is
  then read from its pages like after a clean close.

Record format — ``<II`` (payload length, CRC-32 of payload) then payload:

====== ======================================================
type   payload
====== ======================================================
``A``  ``<q`` page id + 8 KiB after-image (redo)
``C``  ``<q`` page count
====== ======================================================

No-steal means the main file never holds uncommitted data, so redo needs
no before-images. Older logs also hold ``B`` records (a page id + its last
committed image) ahead of each batch's AFTER records; replay skips them.

Fault injection: set :attr:`WriteAheadLog.fault_injector` to a callable
``hook(point: str)``; it is invoked at every named crash point and may raise
:class:`~repro.errors.CrashPoint` to simulate dying there. Points:
``commit:before-append``, ``commit:mid-append``, ``commit:after-append``,
``checkpoint:before-flush``, ``checkpoint:before-sync``,
``checkpoint:before-truncate``.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.errors import WALError
from repro.minidb.metrics import REGISTRY
from repro.minidb.page import PAGE_SIZE

_HEADER = struct.Struct("<II")
_PAGE_ID = struct.Struct("<q")

REC_BEFORE = b"B"  # before-image: no longer written, skipped on replay
REC_AFTER = b"A"
REC_COMMIT = b"C"

#: Hard upper bound on one record's payload (page records are PAGE_SIZE + 9
#: bytes, a COMMIT record 9).
_MAX_PAYLOAD = 64 << 20

#: A freshly allocated page as the device wrote it (``DiskManager.allocate``
#: zero-fills) — the before-image of every page born in the current statement.
_ZERO_PAGE = bytes(PAGE_SIZE)

#: Log size that triggers an automatic checkpoint.
DEFAULT_CHECKPOINT_BYTES = 16 << 20


class WriteAheadLog:
    """Redo log + in-memory undo images for one file-backed database.

    Owned by :class:`~repro.minidb.engine.Database`; the buffer pool holds a
    reference (``pool.wal``) and reports every first-dirty through
    :meth:`on_page_dirty`. All mutation entry points run under the exclusive
    statement latch (single-writer rule), so the log needs no lock of its
    own; :meth:`is_pending` is called under the pool lock and only reads a
    dict, which is safe under the GIL.
    """

    def __init__(self, path: str):
        self.path = path
        #: Log size that triggers an automatic checkpoint.
        self.checkpoint_bytes = DEFAULT_CHECKPOINT_BYTES
        #: Test hook: called with the crash-point name at every fault site.
        self.fault_injector = None
        exists = os.path.exists(path)
        # Unbuffered: a write() that returned is in the OS page cache, so it
        # survives SIGKILL (the crash model here) without an fsync per record.
        self._file = open(path, "r+b" if exists else "w+b", buffering=0)
        #: page id -> before-image bytes for the statement in flight.
        self._pending: dict[int, bytes] = {}
        #: page id -> file offset of its latest *committed* after-image.
        self._committed_offsets: dict[int, int] = {}
        self._size = 0
        self._closed = False

    # -- pool integration ------------------------------------------------
    def is_pending(self, page_id: int) -> bool:
        """Whether *page_id* holds uncommitted changes (never evict/flush)."""
        return page_id in self._pending

    def on_page_dirty(self, page_id: int, pool, fresh: bool = False) -> None:
        """Record the first dirtying of *page_id* in the current statement.

        Called by the buffer pool (under its lock) from ``mark_dirty`` and
        ``new_page``. Captures the page's last *committed* image as the
        undo image: the frame content is already mutated by the time
        ``mark_dirty`` runs, so the image comes from the log's latest
        committed AFTER record, else the main file, else (``fresh=True``)
        the zero page the allocator wrote.
        """
        if self._closed or page_id in self._pending:
            return
        if fresh:
            self._pending[page_id] = _ZERO_PAGE
            return
        offset = self._committed_offsets.get(page_id)
        if offset is not None:
            self._file.seek(offset)
            image = self._file.read(PAGE_SIZE)
            if len(image) != PAGE_SIZE:
                raise WALError(f"short committed-image read for page {page_id}")
            self._pending[page_id] = image
        else:
            self._pending[page_id] = bytes(pool.disk.peek_page(page_id))

    # -- statement boundaries --------------------------------------------
    def commit(self, pool) -> None:
        """Make the in-flight statement durable: append the AFTER image of
        every dirtied page, then the COMMIT record.

        Must run under the exclusive statement latch. After this returns,
        a SIGKILL loses nothing; a crash anywhere inside leaves a torn
        (CRC-invalid or commit-less) tail that replay discards wholesale.
        """
        if not self._pending:
            return
        self._fault("commit:before-append")
        page_ids = sorted(self._pending)
        chunks: list[bytes] = []
        image_offsets: dict[int, int] = {}
        offset = self._size
        for page_id in page_ids:
            image = pool.page_image(page_id)
            rec = self._pack_page(REC_AFTER, page_id, image)
            # The image sits after the record header and the page-id field.
            image_offsets[page_id] = offset + _HEADER.size + 1 + _PAGE_ID.size
            chunks.append(rec)
            offset += len(rec)
        self._file.seek(self._size)
        self._file.write(b"".join(chunks))
        self._fault("commit:mid-append")
        commit_payload = REC_COMMIT + _PAGE_ID.pack(pool.disk.num_pages)
        self._file.write(
            _HEADER.pack(len(commit_payload), zlib.crc32(commit_payload))
            + commit_payload
        )
        self._size = offset + _HEADER.size + len(commit_payload)
        self._committed_offsets.update(image_offsets)
        self._pending.clear()
        REGISTRY.counter("wal.commits").inc()
        REGISTRY.counter("wal.pages_logged").inc(len(page_ids))
        self._fault("commit:after-append")

    def rollback(self, pool) -> None:
        """Restore every pending frame to its last committed image.

        A page that still has a committed-but-unflushed image in the log
        stays dirty (the main file is behind); everything else — including
        pages born in the failed statement, whose committed image is the
        allocator's zero page — comes back clean.
        """
        if not self._pending:
            return
        for page_id, before in self._pending.items():
            pool.restore_page(
                page_id, before, dirty=page_id in self._committed_offsets
            )
        self._pending.clear()
        # A commit that died mid-append left torn bytes past the durable
        # prefix; cut them so they can never shadow a later record boundary.
        self._file.seek(self._size)
        self._file.truncate(self._size)
        REGISTRY.counter("wal.rollbacks").inc()

    def should_checkpoint(self) -> bool:
        return self._size >= self.checkpoint_bytes

    def checkpoint(self, pool) -> None:
        """Flush the committed state into the main file and empty the log.

        Runs between statements, so at entry nothing is pending and the log
        covers every dirty frame. Order matters: flush frames, fsync
        the main file, only then truncate — a crash before the truncate
        replays images that are already in the main file (idempotent), a
        crash after it finds an empty log over a complete file.
        """
        if self._pending:
            raise WALError("checkpoint with uncommitted pages pending")
        self._fault("checkpoint:before-flush")
        pool.flush()
        self._fault("checkpoint:before-sync")
        pool.disk.sync()
        self._fault("checkpoint:before-truncate")
        self._file.seek(0)
        self._file.truncate(0)
        os.fsync(self._file.fileno())
        self._size = 0
        self._committed_offsets.clear()
        REGISTRY.counter("wal.checkpoints").inc()

    # -- recovery --------------------------------------------------------
    def replay(self, disk) -> None:
        """Apply every committed batch in the log to the main file.

        Scanning stops at the first torn or CRC-invalid record and truncates
        the tail there, so a crash mid-append simply never happened. Replay
        is idempotent: images are whole-page, so re-applying them is a no-op
        on the bytes.
        """
        self._file.seek(0, os.SEEK_END)
        end = self._file.tell()
        self._file.seek(0)
        pos = 0
        batch: dict[int, bytes] = {}
        batch_offsets: dict[int, int] = {}
        committed: dict[int, bytes] = {}
        num_pages = None  # the last COMMIT record's
        while pos + _HEADER.size <= end:
            header = self._file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break
            length, crc = _HEADER.unpack(header)
            if not 0 < length <= _MAX_PAYLOAD or pos + _HEADER.size + length > end:
                break
            payload = self._file.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            kind = payload[:1]
            if kind == REC_AFTER:
                (page_id,) = _PAGE_ID.unpack_from(payload, 1)
                batch[page_id] = payload[1 + _PAGE_ID.size :]
                batch_offsets[page_id] = pos + _HEADER.size + 1 + _PAGE_ID.size
            elif kind == REC_COMMIT:
                (num_pages,) = _PAGE_ID.unpack_from(payload, 1)
                committed.update(batch)
                self._committed_offsets.update(batch_offsets)
                batch.clear()
                batch_offsets.clear()
            elif kind != REC_BEFORE:
                break  # unknown type: treat as torn tail
            pos += _HEADER.size + length
        # Discard the torn tail (and any commit-less batch) so new records
        # append after the last durable commit.
        if pos < end:
            self._file.seek(pos)
            self._file.truncate(pos)
        self._size = pos
        if num_pages is None:
            return
        disk.ensure_pages(num_pages)
        for page_id, image in sorted(committed.items()):
            disk.apply_image(page_id, image)
        disk.sync()
        REGISTRY.counter("wal.replays").inc()
        REGISTRY.counter("wal.replayed_pages").inc(len(committed))

    # -- lifecycle -------------------------------------------------------
    def size_bytes(self) -> int:
        return self._size

    def close(self) -> None:
        """Clean shutdown (after a final checkpoint truncated the log)."""
        if not self._closed:
            self._closed = True
            self._file.close()

    def abandon(self) -> None:
        """Crash-simulation shutdown: drop the handle, keep the bytes."""
        if not self._closed:
            self._closed = True
            self._file.close()

    # ------------------------------------------------------------------
    def _fault(self, point: str) -> None:
        hook = self.fault_injector
        if hook is not None:
            hook(point)

    @staticmethod
    def _pack_page(kind: bytes, page_id: int, image: bytes) -> bytes:
        if len(image) != PAGE_SIZE:
            raise WALError(f"page image must be {PAGE_SIZE} bytes")
        payload = kind + _PAGE_ID.pack(page_id) + image
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
