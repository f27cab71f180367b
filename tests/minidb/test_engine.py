"""Tests for the Database facade: cost accounting, caching, stats."""

import pytest

from repro.errors import DatabaseError
from repro.minidb.engine import Database


class TestConstruction:
    def test_device_by_name(self):
        for name in ("hdd", "ssd", "ram"):
            assert Database(device=name).disk.device.name == name

    def test_unknown_device(self):
        with pytest.raises(DatabaseError):
            Database(device="floppy")

    def test_removed_parallel_workers_option_is_rejected(self):
        with pytest.raises(TypeError, match="parallel_workers"):
            Database(parallel_workers=2)

    def test_removed_executor_options_are_rejected(self):
        """``batch_size``/``readahead`` are plain attributes set from one
        module constant each, not constructor options."""
        from repro.minidb.sql.vectorized import DEFAULT_BATCH_SIZE, DEFAULT_READAHEAD
        from repro.ptldb.framework import PTLDB

        with pytest.raises(TypeError, match="batch_size"):
            Database(batch_size=16)
        with pytest.raises(TypeError, match="readahead"):
            PTLDB.from_timetable(None, readahead=8)
        db = Database()
        assert (db.batch_size, db.readahead) == (DEFAULT_BATCH_SIZE, DEFAULT_READAHEAD)

    def test_context_manager(self, tmp_path):
        with Database(path=str(tmp_path / "db.pages")) as db:
            db.execute("CREATE TABLE t (a BIGINT)")
            db.execute("INSERT INTO t VALUES (1)")


class TestCostAccounting:
    def test_cold_query_charges_io(self):
        db = Database(device="hdd")
        db.execute("CREATE TABLE t (a BIGINT, PRIMARY KEY (a))")
        for i in range(500):
            db.execute("INSERT INTO t VALUES ($1)", (i,))
        db.restart()
        db.execute("SELECT a FROM t WHERE a = $1", (250,))
        cold = db.last_cost
        assert cold.page_reads > 0
        assert cold.simulated_io_ms > 0
        # warm repeat: everything cached
        db.execute("SELECT a FROM t WHERE a = $1", (250,))
        warm = db.last_cost
        assert warm.page_reads == 0
        assert warm.simulated_io_ms == 0.0
        assert warm.pool_hits > 0

    def test_pk_lookup_touches_few_pages(self):
        """A point query must not scan the heap (the paper's 'exactly two
        rows per v2v query' depends on this)."""
        db = Database(device="hdd")
        db.execute("CREATE TABLE t (a BIGINT, payload TEXT, PRIMARY KEY (a))")
        for i in range(2000):
            db.execute("INSERT INTO t VALUES ($1, $2)", (i, "x" * 200))
        heap_pages = db.table_stats()["t"]["heap_pages"]
        assert heap_pages > 20
        db.restart()
        db.execute("SELECT payload FROM t WHERE a = $1", (1234,))
        # B+Tree descent + one heap page, nowhere near a full scan
        assert db.last_cost.page_reads <= 6

    def test_full_scan_reads_all_pages(self):
        db = Database(device="hdd")
        db.execute("CREATE TABLE t (a BIGINT, payload TEXT, PRIMARY KEY (a))")
        for i in range(1000):
            db.execute("INSERT INTO t VALUES ($1, $2)", (i, "x" * 200))
        heap_pages = db.table_stats()["t"]["heap_pages"]
        db.restart()
        db.execute("SELECT COUNT(*) FROM t")
        assert db.last_cost.page_reads >= heap_pages


class TestStatementCache:
    def test_repeated_sql_reuses_parse(self):
        db = Database()
        db.execute("CREATE TABLE t (a BIGINT)")
        sql = "SELECT a FROM t WHERE a = $1"
        db.execute(sql, (1,))
        cached = db._plan_cache[sql]
        db.execute(sql, (2,))
        assert db._plan_cache[sql] is cached


class TestStats:
    def test_table_stats(self):
        db = Database()
        db.execute("CREATE TABLE t (a BIGINT, PRIMARY KEY (a))")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        stats = db.table_stats()["t"]
        assert stats["rows"] == 3
        assert stats["heap_pages"] >= 1
        assert stats["index_height"] >= 1

    def test_size_accounting(self):
        db = Database()
        db.execute("CREATE TABLE t (a BIGINT)")
        assert db.size_bytes() == db.total_pages() * 8192

    def test_executemany(self):
        db = Database()
        db.execute("CREATE TABLE t (a BIGINT)")
        count = db.executemany("INSERT INTO t VALUES ($1)", [(i,) for i in range(5)])
        assert count == 5
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5
