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

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import CatalogError, CrashPoint, DatabaseError
from repro.minidb.buffer import BufferPool
from repro.minidb.catalog import Catalog
from repro.minidb.disk import DeviceModel, DiskManager, hdd_model, ram_model, ssd_model
from repro.minidb.wal import WriteAheadLog
from repro.minidb.latch import RWLatch
from repro.minidb.metrics import REGISTRY, QueryTrace
from repro.minidb.page import KIND_META, PAGE_SIZE
from repro.minidb.session import PreparedStatement, QueryCost, Session
from repro.minidb.sql import ast
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
    span, at the cost of one cache hit. ``write`` — whether the statement
    holds the statement latch exclusively — is decided once per entry."""

    sql: str
    stmt: object
    analysis: Analysis
    version: int
    write: bool

    @property
    def plan(self):
        """The physical plan; raises the statement's first semantic error."""
        self.analysis.raise_if_errors()
        return self.analysis.plan


def _writes(stmt) -> bool:
    """Whether *stmt* writes (DDL, DML, ``VACUUM``): only a query (or an
    ``EXPLAIN`` of one — ``EXPLAIN ANALYZE`` executes its inner statement)
    reads alone and shares the database latch."""
    while isinstance(stmt, ast.Explain):
        stmt = stmt.statement
    return not isinstance(stmt, ast.Query)


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
        #: Redo log: every file-backed database has one, an in-memory one
        #: has none. Statement undo is the buffer pool's, for both.
        self.wal: WriteAheadLog | None = None
        fresh = self.disk.num_pages == 0
        try:
            if path is not None:
                if not fresh and self.disk.peek_page(0)[0] == KIND_META:
                    # Refused before replay, so the old file stays as it is.
                    raise CatalogError(
                        "page 0 is a META page: this file keeps its catalog "
                        "as JSON, as an older minidb wrote it; rebuild it"
                    )
                self.wal = WriteAheadLog(path + ".wal")
                # An existing file first replays its WAL tail (a killed
                # worker's committed statements); the catalog heap is then
                # read the same way for a clean file and a recovered one.
                self.wal.replay(self.disk)
            self.catalog = Catalog(self.pool)
        except BaseException:
            # A file that fails to open leaves no handle open behind it.
            if self.wal is not None:
                self.wal.close()
            self.disk.close()
            raise
        if fresh and self.wal is not None:
            # Persist the empty catalog now: a crash before the first
            # checkpoint must still find a readable catalog page 0.
            self.pool.flush()
            self.disk.sync()

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
            entry = CachedPlan(sql, stmt, analysis, self.catalog.version, _writes(stmt))
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
        return self.disk.num_pages * PAGE_SIZE

    # -- persistence -----------------------------------------------------
    def checkpoint(self) -> None:
        """Flush every page: after a checkpoint, reopening the same file
        restores every table from the catalog heap with no log to replay.
        With the WAL armed the protocol is: flush every dirty frame, fsync
        the main file, truncate the log — every crash window in between is
        covered by replay (docs/STORAGE.md, "Durability")."""
        if self.wal is not None:
            self.wal.checkpoint(self.pool)
        else:
            self.pool.flush()

    def _commit(self, target: str | None) -> None:
        """Seal the write statement that just executed: overwrite the
        catalog rows it moved (:meth:`Catalog.sync` of its *target*), log
        its pages when there is a log — before the pool forgets their undo
        images, so a failed append still rolls back — and close it in the
        pool (the log does once its COMMIT record is written), then
        checkpoint once the log outgrows its threshold.

        Called by the session while it still holds the exclusive statement
        latch."""
        self.catalog.sync(target)
        wal = self.wal
        if wal is not None:
            wal.commit(self.pool)
        self.pool.commit()
        if wal is not None and wal.should_checkpoint():
            self.checkpoint()

    @staticmethod
    def _target(plan) -> str | None:
        """The table the write statement *plan* names (DML, VACUUM, DROP;
        also under EXPLAIN ANALYZE), or None."""
        node = plan.statement
        while isinstance(node, ExplainPlan):  # EXPLAIN ANALYZE runs its DML
            node = node.inner.statement
        return getattr(node, "table", None)

    def _rollback(self, exc: BaseException, snapshot: tuple | None) -> None:
        """Undo the failed write statement, on any database: its pages —
        the catalog's among them — from the pool's undo images, then the
        descriptors from *snapshot* and the restored catalog rows (nothing,
        if it failed before it began or after it committed).

        A :class:`~repro.errors.CrashPoint` is *not* rolled back: it
        simulates the process dying at that instant, and a dead process
        runs no cleanup — recovery happens in :meth:`open`'s replay."""
        if not isinstance(exc, CrashPoint) and self.pool.rollback():
            self.catalog.rollback(snapshot)

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
        if self.wal is not None:
            self.wal.close()
        self.disk.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
