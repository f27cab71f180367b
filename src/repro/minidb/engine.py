"""The minidb Database facade.

A :class:`Database` owns a disk manager (with a device latency model), a
buffer pool, a catalog and a prepared-statement cache, and executes SQL via
:meth:`execute`. This is the component that stands in for PostgreSQL in the
PTLDB reproduction — see DESIGN.md for the substitution argument.

Example::

    db = Database(device="ssd")
    db.execute("CREATE TABLE t (v BIGINT, hubs BIGINT[], PRIMARY KEY (v))")
    db.execute("INSERT INTO t VALUES ($1, $2)", (1, [10, 20]))
    db.execute("SELECT UNNEST(hubs) AS hub FROM t WHERE v=$1", (1,)).rows
"""

from __future__ import annotations

import json
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import CrashPoint, DatabaseError, StorageError
from repro.minidb.buffer import BufferPool
from repro.minidb.catalog import Catalog
from repro.minidb.disk import DeviceModel, DiskManager, hdd_model, ram_model, ssd_model
from repro.minidb.wal import WriteAheadLog
from repro.minidb.latch import RWLatch
from repro.minidb.metrics import REGISTRY, QueryTrace
from repro.minidb.page import HEADER_SIZE, KIND_META, PAGE_SIZE
from repro.minidb.session import PreparedStatement, QueryCost, Session
from repro.minidb.sql.analyzer import Analysis, analyze as analyze_stmt
from repro.minidb.sql.result import Result
from repro.minidb.sql.parser import parse
from repro.minidb.sql.plan import ExplainPlan
from repro.minidb.sql.vectorized import DEFAULT_BATCH_SIZE, DEFAULT_READAHEAD

__all__ = [
    "Database",
    "PreparedStatement",
    "QueryCost",
    "Session",
    "PLAN_CACHE_CAP",
]

_DEVICES = {"hdd": hdd_model, "ssd": ssd_model, "ram": ram_model}
_META_LEN = struct.Struct("<I")
_META_CAP = PAGE_SIZE - HEADER_SIZE - _META_LEN.size

#: Upper bound on cached plans per :class:`Database` (LRU eviction beyond).
PLAN_CACHE_CAP = 256


@dataclass
class CachedPlan:
    """One plan-cache entry: everything derivable from the SQL text alone.

    The entry is valid while the catalog version it was built against is
    current; DDL bumps the version and the next execution re-binds and
    re-plans transparently. It holds a plan or the error to re-raise, never
    neither: ``analysis.plan`` is None exactly when ``analysis`` has errors,
    and then :meth:`plan` raises the first of them, typed and with its caret
    span, at the cost of one cache hit."""

    sql: str
    stmt: object
    analysis: Analysis
    version: int

    @property
    def plan(self):
        """The physical plan; raises the statement's first semantic error."""
        self.analysis.raise_if_errors()
        return self.analysis.plan


class Database:
    """An embedded relational database with simulated storage latency."""

    def __init__(
        self,
        device: str | DeviceModel = "ram",
        pool_pages: int = 4096,
        path: str | None = None,
    ):
        if isinstance(device, str):
            try:
                device = _DEVICES[device]()
            except KeyError:
                raise DatabaseError(
                    f"unknown device {device!r}; pick one of {sorted(_DEVICES)}"
                ) from None
        self.disk = DiskManager(path=path, device=device)
        self.pool = BufferPool(self.disk, capacity=pool_pages)
        self.catalog = Catalog(self.pool)
        self._plan_cache: OrderedDict[str, CachedPlan] = OrderedDict()
        # Serializes plan-cache probes/installs across sessions.
        self._cache_lock = threading.RLock()
        # Statement-level RW latch: reads share, DML/DDL are exclusive.
        self._stmt_latch = RWLatch(name="stmt")
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_evictions = 0
        self.plan_cache_invalidations = 0
        #: Set False to skip per-operator trace collection (hot loops).
        self.tracing = True
        #: Rows per batch exchanged between operators (docs/ARCHITECTURE.md,
        #: "Vectorized pipeline"). Results and page I/O are the same for any
        #: value; tests assign it to move the chunk boundaries.
        self.batch_size = DEFAULT_BATCH_SIZE
        #: Heap-scan readahead depth in pages (0 disables); prefetched
        #: chain pages are charged the device's sequential read rate.
        self.readahead = DEFAULT_READAHEAD
        #: The implicit connection backing ``db.execute`` / ``db.last_cost``;
        #: concurrent callers open their own via :meth:`session`.
        self._session = Session(self)
        self._path = path
        self._closed = False
        #: Write-ahead log: every file-backed database has one, an in-memory
        #: one has none. Armed on the buffer pool *after* open-time replay so
        #: the recovery writes themselves are never re-logged.
        self.wal: WriteAheadLog | None = None
        if path is not None:
            self.wal = WriteAheadLog(path + ".wal")
        if self.disk.num_pages == 0:
            # Fresh database: page 0 is the catalog checkpoint (META) page.
            # Unpin before the sanity check so the raise path cannot leak
            # the pin (repro sanitize, SAN102).
            meta_id, _ = self.pool.new_page(KIND_META)
            self.pool.unpin(meta_id)
            if meta_id != 0:
                raise StorageError("meta page must be page 0")
            self._write_meta(json.dumps([]).encode("utf-8"))
            if self.wal is not None:
                # Persist the empty catalog now: a crash before the first
                # checkpoint must still find a readable META page 0.
                self.pool.flush()
                self.disk.sync()
        else:
            # Existing file: replay the WAL tail (a killed worker's
            # committed statements), then restore the catalog — from the
            # last COMMIT record when the log has one, else from the META
            # checkpoint.
            try:
                payload = self.wal.replay(self.disk)
                if payload is None:
                    payload = self._read_meta()
                self.catalog.restore(json.loads(payload.decode("utf-8")))
            except BaseException:
                # A file that fails to open leaves no handle open behind it.
                self.wal.abandon()
                self.disk.close()
                raise
        # Arm the pool hooks last: from here on every first-dirty is logged.
        self.pool.wal = self.wal

    @classmethod
    def open(cls, path: str, **kwargs) -> "Database":
        """Open (or create) a file-backed database, replaying any WAL tail.

        Equivalent to ``Database(path=path, **kwargs)``; named for symmetry
        with :meth:`close` — a killed worker restarts with ``Database.open``
        and resumes from its last committed statement without re-ingesting.
        """
        return cls(path=path, **kwargs)

    # -- sessions --------------------------------------------------------
    def session(self, tracing: bool | None = None) -> Session:
        """Open a new connection over this database.

        Sessions share the catalog, buffer pool and plan cache but keep
        their own ``last_cost``/``last_trace``/``last_analysis`` and
        prepared handles — hand one to each serving thread."""
        return Session(self, tracing=tracing)

    def execute(self, sql: str, params: tuple | list = ()) -> Result:
        """Run one statement on the database's implicit default session.

        See :meth:`Session.execute` for semantics: semantic errors raise
        *before* any page is read."""
        return self._session.execute(sql, params)

    def executemany(self, sql: str, param_rows) -> int:
        """Run one statement once per parameter tuple as one statement, on
        the default session (see :meth:`Session.executemany`)."""
        return self._session.executemany(sql, param_rows)

    # Per-statement observability delegates to the default session so
    # single-connection code keeps reading ``db.last_cost`` etc. unchanged.
    @property
    def last_cost(self) -> QueryCost | None:
        return self._session.last_cost

    @last_cost.setter
    def last_cost(self, value: QueryCost | None) -> None:
        self._session.last_cost = value

    @property
    def last_trace(self) -> QueryTrace | None:
        return self._session.last_trace

    @last_trace.setter
    def last_trace(self, value: QueryTrace | None) -> None:
        self._session.last_trace = value

    @property
    def last_analysis(self) -> Analysis | None:
        return self._session.last_analysis

    @last_analysis.setter
    def last_analysis(self, value: Analysis | None) -> None:
        self._session.last_analysis = value

    # -- plan cache ------------------------------------------------------
    def _ensure_cached(self, sql: str) -> CachedPlan:
        """Return the (parse, analysis, plan) bundle for *sql*, reusing the
        LRU cache when the catalog version still matches.

        Thread-safe: the probe-or-build runs under the cache lock, so two
        sessions racing on the same new statement build it once each at
        worst and never corrupt the LRU order."""
        with self._cache_lock:
            entry = self._plan_cache.get(sql)
            if entry is not None and entry.version == self.catalog.version:
                self._plan_cache.move_to_end(sql)
                self._count_hit()
                return entry
            self.plan_cache_misses += 1
            REGISTRY.counter("plan_cache.misses").inc()
            if entry is not None:  # built against an older catalog
                self.plan_cache_invalidations += 1
                REGISTRY.counter("plan_cache.invalidations").inc()
            stmt = entry.stmt if entry is not None else parse(sql)
            analysis = analyze_stmt(stmt, self.catalog, sql=sql)
            entry = CachedPlan(sql, stmt, analysis, self.catalog.version)
            self._plan_cache[sql] = entry
            self._plan_cache.move_to_end(sql)
            while len(self._plan_cache) > PLAN_CACHE_CAP:
                self._plan_cache.popitem(last=False)
                self.plan_cache_evictions += 1
                REGISTRY.counter("plan_cache.evictions").inc()
            return entry

    def _count_hit(self) -> None:
        """One execution reused a cached plan: probed, or bound to a handle."""
        with self._cache_lock:
            self.plan_cache_hits += 1
        REGISTRY.counter("plan_cache.hits").inc()

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare *sql* on the default session (see :meth:`Session.prepare`)."""
        return self._session.prepare(sql)

    def plan_cache_stats(self) -> dict:
        """Plan-cache effectiveness counters for this database."""
        return {
            "size": len(self._plan_cache),
            "capacity": PLAN_CACHE_CAP,
            "hits": self.plan_cache_hits,
            "misses": self.plan_cache_misses,
            "evictions": self.plan_cache_evictions,
            "invalidations": self.plan_cache_invalidations,
        }

    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Drop all cached pages — the paper's cold-cache server restart —
        and with them every row decoded from them: the next read of any
        record copies and decodes it again."""
        self.pool.clear()

    def table_stats(self) -> dict[str, dict]:
        """Per-table row counts and page/byte footprints."""
        out = {}
        for name in self.catalog.table_names():
            table = self.catalog.get(name)
            heap_pages = len(table.heap.page_ids())
            out[name] = {
                "rows": table.row_count,
                "heap_pages": heap_pages,
                "data_bytes": table.data_bytes,
                "index_height": (
                    table.index.height() if table.index is not None else 0
                ),
            }
        return out

    def total_pages(self) -> int:
        """Total pages allocated in the database file."""
        return self.disk.num_pages

    def size_bytes(self) -> int:
        from repro.minidb.page import PAGE_SIZE

        return self.disk.num_pages * PAGE_SIZE

    # -- persistence -----------------------------------------------------
    def checkpoint(self) -> None:
        """Write the catalog snapshot to the META chain and flush all pages.

        After a checkpoint, reopening the same database file restores every
        table (schemas, heaps, indexes, row counts). With the WAL armed the
        protocol is: commit the META write, flush every dirty frame, fsync
        the main file, truncate the log — every crash window in between is
        covered by replay (docs/STORAGE.md, "Durability")."""
        payload = json.dumps(self.catalog.describe()).encode("utf-8")
        self._write_meta(payload)
        if self.wal is not None:
            self.wal.commit(self.pool, payload)
            self.wal.checkpoint(self.pool)
        else:
            self.pool.flush()

    def _wal_commit(self) -> None:
        """Seal the statement that just executed (write statements only).

        Called by the session while it still holds the exclusive statement
        latch; auto-checkpoints when the log has outgrown its threshold."""
        if self.wal is None:
            return
        self.wal.commit(self.pool, self.catalog.describe_json().encode("utf-8"))
        if self.wal.should_checkpoint():
            self.checkpoint()

    def _wal_snapshot(self, plan) -> tuple | None:
        """Statement-start image of the in-memory state the write statement
        *plan* can change — the catalog's table map and its target table's
        descriptor — for :meth:`_wal_rollback`. None without a log: nothing
        is rolled back there."""
        if self.wal is None:
            return None
        node = plan.statement
        while isinstance(node, ExplainPlan):  # EXPLAIN ANALYZE runs its DML
            node = node.inner.statement
        return self.catalog.snapshot(getattr(node, "table", None))

    def _wal_rollback(self, exc: BaseException, snapshot: tuple | None) -> None:
        """Undo the failed statement: its frames from their before-images,
        then the descriptors from *snapshot* (a root split, a grown heap
        chain and the row count live in memory, not on a page).

        A :class:`~repro.errors.CrashPoint` is *not* rolled back: it
        simulates the process dying at that instant, and a dead process
        runs no cleanup — recovery happens in :meth:`open`'s replay."""
        if self.wal is None or isinstance(exc, CrashPoint):
            return
        self.wal.rollback(self.pool)
        if snapshot is not None:  # None: failed before the statement began
            self.catalog.rollback(snapshot)

    def _write_meta(self, payload: bytes) -> None:
        page_id = 0
        offset = 0
        while True:
            with self.pool.pinned(page_id) as page:
                if page.kind != KIND_META:
                    raise StorageError(f"page {page_id} is not a META page")
                # Checkpoint writes mutate shared META content, so they take
                # the frame's write latch like every other page mutation
                # (the sanitizer's SAND04 rule).
                with self.pool.latch(page_id).write():
                    chunk = payload[offset : offset + _META_CAP]
                    _META_LEN.pack_into(page.buf, HEADER_SIZE, len(chunk))
                    page.buf[HEADER_SIZE + 4 : HEADER_SIZE + 4 + len(chunk)] = chunk
                    offset += len(chunk)
                    self.pool.mark_dirty(page_id)
                    if offset >= len(payload):
                        page.next_page = -1
                        return
                    if page.next_page == -1:
                        # The current page is pinned, so allocating the next
                        # META page cannot evict it before the link lands.
                        next_id, _ = self.pool.new_page(KIND_META)
                        self.pool.unpin(next_id)
                        page.next_page = next_id
                    page_id = page.next_page

    def _read_meta(self) -> bytes:
        parts = []
        page_id = 0
        while page_id != -1:
            page = self.pool.get(page_id)
            if page.kind != KIND_META:
                raise StorageError(f"page {page_id} is not a META page")
            (length,) = _META_LEN.unpack_from(page.buf, HEADER_SIZE)
            parts.append(bytes(page.buf[HEADER_SIZE + 4 : HEADER_SIZE + 4 + length]))
            page_id = page.next_page
        return b"".join(parts)

    def close(self) -> None:
        """Checkpoint (file-backed), flush, and release every file handle.

        Idempotent: a second ``close`` is a no-op, so ``with`` blocks and
        explicit teardown paths can overlap safely. After ``close`` the
        database file is self-contained (empty WAL) and another process may
        open it — the worker restart-in-place story depends on this."""
        if self._closed:
            return
        self._closed = True
        if self._path is not None:
            self.checkpoint()
        self.pool.flush()
        self.pool.wal = None
        if self.wal is not None:
            self.wal.close()
        self.disk.close()

    def simulate_crash(self) -> None:
        """Die without flushing: drop every handle, skip checkpoint/flush.

        Test hook for crash-recovery coverage — leaves the main file and
        WAL exactly as the OS has them, like a SIGKILL would, so a
        subsequent :meth:`open` must recover through replay."""
        if self._closed:
            return
        self._closed = True
        self.pool.wal = None
        if self.wal is not None:
            self.wal.abandon()
        self.disk.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
