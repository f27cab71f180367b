"""Sessions: per-connection execution state over a shared Database.

The paper's serving experiment (Figure 6) runs many clients against one
PostgreSQL server. The minidb equivalent is one :class:`Session` per client
thread: sessions share the catalog, buffer pool and plan cache (that is what
makes the throughput curve interesting), while each keeps its *own*
``last_cost`` / ``last_trace`` / ``last_analysis`` and prepared-statement
handles, so one connection's observability never clobbers another's.

Isolation model (docs/ARCHITECTURE.md, "Concurrency model"):

* Statement-level reader–writer latch on the database. Read statements
  (``SELECT``, ``EXPLAIN``) hold it shared; everything else — DML, DDL,
  ``VACUUM`` — holds it exclusively. Readers therefore always observe a
  consistent catalog + page image, and writers never interleave (the
  single-writer rule).
* Plan-cache entries carry the catalog version they were built against (a
  prepared handle keeps its entry and skips the probe while it is current).
  The version is re-checked *after* the statement latch is acquired: DDL
  cannot run while we hold the latch, so a version that matches under the
  latch stays valid for the whole statement.
* Cost/trace deltas are read directly off the calling thread's private
  counters (``DiskManager.thread_stats`` / ``BufferPool.thread_stats``),
  which the storage layer charges in lockstep with the global ones —
  attribution stays exact no matter how many sessions run concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.minidb.metrics import QueryTrace, TraceCollector
from repro.minidb.sanitize import dynamic as _san
from repro.minidb.sql.analyzer import Analysis
from repro.minidb.sql.result import Result
from repro.minidb.sql.vectorized import BatchExecutor


@dataclass
class QueryCost:
    """I/O accounting for a single statement."""

    page_reads: int
    pool_hits: int
    simulated_io_ms: float
    pool_misses: int = 0


class PreparedStatement:
    """A reusable handle for one SQL statement, bound to a session and to
    the plan-cache entry it last ran.

    Repeat executions skip parse, binding, planning *and* the cache probe:
    the envelope compares the entry's catalog version and counts the hit.
    After DDL the statement re-plans through the cache once and the handle
    rebinds; an entry the LRU dropped serves until then.
    """

    def __init__(self, session: "Session", sql: str, entry=None):
        self.session = session
        self.sql = sql
        self.entry = entry  # None: bound by the first execution

    @property
    def db(self):
        return self.session.db

    def execute(self, params: tuple | list = ()) -> Result:
        return self.session._execute(self, params)

    def explain(self) -> list[str]:
        """Static plan lines for this statement (no execution)."""
        from repro.minidb.sql.plan import explain_lines

        return explain_lines(self.session.db._ensure_cached(self.sql).plan)

    def __repr__(self) -> str:
        return f"PreparedStatement({self.sql!r})"


class Session:
    """One connection's view of a :class:`~repro.minidb.engine.Database`.

    Cheap to create (no pages are touched); hand one to each serving thread.
    ``tracing`` defaults to ``None`` — inherit the database-wide setting at
    call time — and can be pinned per session.
    """

    def __init__(self, db, tracing: bool | None = None):
        self.db = db
        self.tracing = tracing
        self.last_cost: QueryCost | None = None
        self.last_trace: QueryTrace | None = None
        self.last_analysis: Analysis | None = None

    # ------------------------------------------------------------------
    def _statement(self, stmt: PreparedStatement, run, traced: bool):
        """The envelope every statement runs in: plan-cache entry, statement
        latch, I/O accounting, seal (``Database._commit``) or rollback, pins.

        ``run(plan, collector)`` executes the plan — once, or once per
        parameter row — and its value is returned. *traced* statements get a
        trace collector when tracing is on; *stmt*'s bound entry serves while
        the catalog version it was planned against is current."""
        db = self.db
        sql, entry = stmt.sql, stmt.entry
        if entry is None or entry.version != db.catalog.version:
            entry = db._ensure_cached(sql)
        else:
            db._count_hit()
        write = entry.write
        # Reads share the statement latch, DML/DDL hold it exclusively; the
        # guard keeps the acquire/release paired even when execution raises
        # (and satisfies the no-bare-acquire rule, SAN201).
        with db._stmt_latch.guard(write):
            snapshot = None
            try:
                if entry.version != db.catalog.version:
                    # DDL slipped in between the cache probe and the latch.
                    # It cannot happen again while we hold the latch, so one
                    # re-probe suffices.
                    entry = db._ensure_cached(sql)
                stmt.entry = entry
                self.last_analysis = entry.analysis
                plan = entry.plan  # raises the statement's semantic error
                if write:
                    target = db._target(plan)
                    snapshot = db.catalog.snapshot(target)
                    db.pool.begin()
                # Read directly, like a trace window: no snapshot objects.
                disk_stats = db.disk.thread_stats()
                pool_stats = db.pool.thread_stats()
                reads, read_ms = disk_stats.reads, disk_stats.simulated_read_ms
                hits, misses = pool_stats.hits, pool_stats.misses
                collector = None
                if traced and (db.tracing if self.tracing is None else self.tracing):
                    collector = TraceCollector(pool_stats, disk_stats)
                started = time.perf_counter()
                result = run(plan, collector)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                self.last_cost = cost = QueryCost(
                    page_reads=disk_stats.reads - reads,
                    pool_hits=pool_stats.hits - hits,
                    simulated_io_ms=disk_stats.simulated_read_ms - read_ms,
                    pool_misses=pool_stats.misses - misses,
                )
                # Never leave a previous statement's trace lying around — a
                # stale tree would silently misattribute this statement's
                # I/O.
                self.last_trace = None
                if collector is not None:
                    self.last_trace = QueryTrace(  # the tree is built when read
                        sql, collector, elapsed_ms, cost.pool_hits,
                        cost.pool_misses, cost.page_reads, cost.simulated_io_ms,
                    )
                if write:
                    # Seal the statement — catalog rows, log append (if any),
                    # pool commit — while the exclusive latch is still held
                    # (no reader can see a half-durable state). A batch
                    # seals as one commit, amortizing the append the same
                    # way the latch and plan probe are amortized.
                    db._commit(target)
            except BaseException as exc:
                if write:
                    # Restore every page the failed statement dirtied from
                    # its undo image, then the descriptors, so pool and
                    # catalog re-enter the last committed state before the
                    # latch is released — on every database.
                    db._rollback(exc, snapshot)
                tracker = _san.TRACKER
                if tracker is not None:
                    # The primary error wins; drop any pins the interrupted
                    # statement recorded so they cannot poison the next
                    # statement's leak check on this thread.
                    tracker.drop_thread_pins()
                raise
            tracker = _san.TRACKER
            if tracker is not None:
                # SAND02: every pin this statement took must be back.
                tracker.check_statement_end()
            return result

    def execute(self, sql: str, params: tuple | list = ()) -> Result:
        """Parse, bind, plan (all three cached) and run one statement.

        Semantic errors (unknown names, type violations, misplaced
        aggregates, ...) raise *before* any page is read; access-path
        warnings (``APL*``) never block execution."""
        return self._execute(PreparedStatement(self, sql), params)

    def _execute(self, stmt: PreparedStatement, params) -> Result:
        def run_one(plan, collector):
            return self._executor(tuple(params), collector).run(plan)

        result = self._statement(stmt, run_one, traced=True)
        result.trace = self.last_trace
        return result

    def _executor(self, params: tuple, collector) -> BatchExecutor:
        """The statement engine, bound to one parameter vector."""
        db = self.db
        return BatchExecutor(
            db.catalog,
            params,
            collector=collector,
            batch_size=db.batch_size,
            readahead=db.readahead,
        )

    def executemany(self, sql: str, param_rows) -> int:
        """Run one statement once per parameter tuple, as *one* statement;
        returns the number of tuples.

        The batch shares one envelope: one plan-cache probe, one hold of the
        statement latch, one commit — so it is all or nothing on every
        database (a failing tuple rolls back the rows before it).
        ``last_cost`` aggregates the batch's I/O; ``last_trace`` is cleared
        (per-execution traces are a per-``execute`` feature).
        """

        def run_batch(plan, _collector):
            count = 0
            for params in param_rows:
                self._executor(tuple(params), None).run(plan)
                count += 1
            return count

        return self._statement(PreparedStatement(self, sql), run_batch, False)

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse, bind and plan *sql* once, returning a reusable handle.

        Semantic errors raise here, not at the first ``execute``. The handle
        stays valid across DDL: a catalog-version bump invalidates the
        cached plan and the next execution re-plans."""
        entry = self.db._ensure_cached(sql)
        entry.analysis.raise_if_errors()
        return PreparedStatement(self, sql, entry)

    def __repr__(self) -> str:
        return f"Session(db={self.db!r})"
