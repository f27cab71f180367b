"""Tests for per-connection sessions over a shared Database."""

import threading

import pytest

from repro.errors import SQLError
from repro.minidb.engine import (
    PLAN_CACHE_CAP,
    Database,
    PreparedStatement,
    QueryCost,
    Session,
)


def make_db():
    db = Database(device="hdd")
    db.execute("CREATE TABLE t (v BIGINT, w BIGINT, PRIMARY KEY (v))")
    db.executemany(
        "INSERT INTO t VALUES ($1, $2)", [(i, i * 10) for i in range(50)]
    )
    return db


class TestSessionBasics:
    def test_session_factory(self):
        db = make_db()
        session = db.session()
        assert isinstance(session, Session)
        assert session is not db.session()  # each call is a new connection

    def test_sessions_share_data(self):
        db = make_db()
        a, b = db.session(), db.session()
        assert a.execute("SELECT w FROM t WHERE v=$1", (3,)).scalar() == 30
        assert b.execute("SELECT w FROM t WHERE v=$1", (3,)).scalar() == 30

    def test_last_cost_is_per_session(self):
        db = make_db()
        db.restart()
        a, b = db.session(), db.session()
        a.execute("SELECT w FROM t WHERE v=$1", (1,))
        cost_a = a.last_cost
        b.execute("SELECT v FROM t")
        assert a.last_cost is cost_a  # b's statement did not clobber a's
        assert b.last_cost is not cost_a

    def test_last_trace_is_per_session(self):
        db = make_db()
        a = db.session(tracing=True)
        b = db.session(tracing=False)
        result = a.execute("SELECT v FROM t")
        assert result.trace is a.last_trace
        assert a.last_trace is not None
        b.execute("SELECT v FROM t")
        assert b.last_trace is None
        assert a.last_trace is not None  # untouched by b

    def test_db_delegates_to_default_session(self):
        db = make_db()
        db.execute("SELECT w FROM t WHERE v=$1", (2,))
        assert isinstance(db.last_cost, QueryCost)
        assert db.last_cost is db._session.last_cost
        assert db.last_trace is db._session.last_trace

    def test_tracing_inherited_and_overridable(self):
        db = make_db()
        db.tracing = False
        inherit = db.session()
        pinned = db.session(tracing=True)
        inherit.execute("SELECT v FROM t")
        assert inherit.last_trace is None
        pinned.execute("SELECT v FROM t")
        assert pinned.last_trace is not None

    def test_analysis_errors_raise_per_session(self):
        db = make_db()
        session = db.session()
        with pytest.raises(SQLError):
            session.execute("SELECT nope FROM t")
        assert not session.last_analysis.ok
        assert db.session().last_analysis is None


class TestSessionPrepared:
    def test_prepare_binds_to_session(self):
        db = make_db()
        session = db.session()
        stmt = session.prepare("SELECT w FROM t WHERE v=$1")
        assert isinstance(stmt, PreparedStatement)
        assert stmt.session is session
        assert stmt.db is db  # back-compat accessor
        assert stmt.execute((4,)).scalar() == 40
        assert session.last_cost is not None

    def test_sessions_share_plan_cache(self):
        db = make_db()
        sql = "SELECT w FROM t WHERE v=$1"
        a, b = db.session(), db.session()
        a.execute(sql, (1,))
        hits_before = db.plan_cache_hits
        b.execute(sql, (2,))
        assert db.plan_cache_hits > hits_before

    def test_prepared_survives_ddl(self):
        db = make_db()
        session = db.session()
        stmt = session.prepare("SELECT w FROM t WHERE v=$1")
        db.execute("CREATE TABLE other (x BIGINT, PRIMARY KEY (x))")
        assert stmt.execute((5,)).scalar() == 50


class TestPreparedHandleAcrossDDL:
    """A bound handle re-plans once per catalog-version bump, counts one
    plan-cache hit for every other execution and never runs a stale plan."""

    SQL = "SELECT w FROM t WHERE v=$1"

    @staticmethod
    def _delta(db, before):
        after = db.plan_cache_stats()
        return after["hits"] - before["hits"], after["misses"] - before["misses"]

    def test_one_replan_per_version_bump_one_hit_otherwise(self):
        db = make_db()
        stmt = db.prepare(self.SQL)
        assert stmt.execute((5,)).scalar() == 50
        for ddl in (
            "CREATE TABLE other (x BIGINT, PRIMARY KEY (x))",
            "DROP TABLE other",
        ):
            db.execute(ddl)
            before = db.plan_cache_stats()
            for v in (5, 6, 7):
                assert stmt.execute((v,)).scalar() == v * 10
            assert self._delta(db, before) == (2, 1), ddl
            assert (
                db.plan_cache_stats()["invalidations"]
                == before["invalidations"] + 1
            )

    def test_own_table_dropped_and_recreated(self):
        db = make_db()
        stmt = db.prepare(self.SQL)
        assert stmt.execute((5,)).scalar() == 50
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (v BIGINT, w BIGINT, PRIMARY KEY (v))")
        db.execute("INSERT INTO t VALUES (5, 77)")
        before = db.plan_cache_stats()
        assert stmt.execute((5,)).scalar() == 77  # not the old table's 50
        assert stmt.execute((6,)).rows == []
        assert self._delta(db, before) == (1, 1)

    def test_semantic_error_from_ddl_is_the_typed_error(self):
        db = make_db()
        stmt = db.prepare(self.SQL)
        db.execute("DROP TABLE t")
        with pytest.raises(SQLError) as by_text:
            db.execute(self.SQL, (5,))
        before = db.plan_cache_stats()
        for _ in range(2):
            with pytest.raises(type(by_text.value)) as bound:
                stmt.execute((5,))
            assert str(bound.value) == str(by_text.value)
        assert self._delta(db, before) == (2, 0)  # the error is cached too
        db.execute("CREATE TABLE t (v BIGINT, w TEXT, PRIMARY KEY (v))")
        db.execute("INSERT INTO t VALUES (5, 'five')")
        assert stmt.execute((5,)).scalar() == "five"

    def test_handle_outlives_its_lru_entry(self):
        db = make_db()
        stmt = db.prepare(self.SQL)
        assert stmt.execute((5,)).scalar() == 50
        for i in range(PLAN_CACHE_CAP + 1):
            db.execute(f"SELECT {i} FROM t WHERE v = 1")
        assert self.SQL not in db._plan_cache
        before = db.plan_cache_stats()
        assert stmt.execute((6,)).scalar() == 60
        assert stmt.execute((7,)).scalar() == 70
        hits, misses = self._delta(db, before)
        assert hits + misses == 2 and misses <= 1
        db.execute("CREATE TABLE other (x BIGINT, PRIMARY KEY (x))")
        before = db.plan_cache_stats()
        assert stmt.execute((8,)).scalar() == 80
        assert self._delta(db, before) == (0, 1)

    def test_registry_counters_follow_the_bound_path(self):
        from repro.minidb.metrics import REGISTRY

        db = make_db()
        stmt = db.prepare(self.SQL)
        hits = REGISTRY.counter("plan_cache.hits").value
        for v in range(10):
            stmt.execute((v,))
        assert REGISTRY.counter("plan_cache.hits").value == hits + 10


class TestStatementLatch:
    def test_ddl_visible_across_sessions(self):
        db = make_db()
        a, b = db.session(), db.session()
        a.execute("CREATE TABLE fresh (x BIGINT, PRIMARY KEY (x))")
        a.execute("INSERT INTO fresh VALUES ($1)", (7,))
        assert b.execute("SELECT x FROM fresh").scalar() == 7

    def test_concurrent_readers_see_consistent_answers(self):
        db = make_db()
        errors = []

        def reader():
            session = db.session(tracing=False)
            try:
                for i in range(30):
                    v = i % 50
                    got = session.execute(
                        "SELECT w FROM t WHERE v=$1", (v,)
                    ).scalar()
                    assert got == v * 10
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_thread_stats_sum_to_global(self):
        db = make_db()
        db.restart()
        disk_before = db.disk.stats.snapshot()
        pool_before = db.pool.stats.snapshot()
        per_thread = []

        def reader():
            session = db.session(tracing=False)
            disk_stats = db.disk.thread_stats()
            pool_stats = db.pool.thread_stats()
            disk_start = disk_stats.snapshot()
            pool_start = pool_stats.snapshot()
            for i in range(20):
                session.execute("SELECT w FROM t WHERE v=$1", (i % 50,))
            per_thread.append(
                (disk_stats.delta(disk_start), pool_stats.delta(pool_start))
            )

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        delta = db.disk.stats.delta(disk_before)
        pool_delta = db.pool.stats.delta(pool_before)
        assert sum(d.reads for d, _ in per_thread) == delta.reads
        assert sum(d.simulated_read_ms for d, _ in per_thread) == pytest.approx(
            delta.simulated_read_ms
        )
        # a lost increment on either pool counter shows as a short sum
        assert pool_delta.misses > 0 and pool_delta.hits > 0
        assert sum(p.hits for _, p in per_thread) == pool_delta.hits
        assert sum(p.misses for _, p in per_thread) == pool_delta.misses
