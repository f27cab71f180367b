"""Tests for UPDATE, VACUUM, EXPLAIN and database-file persistence."""

import os

import pytest

from repro.errors import CatalogError, SQLNameError
from repro.minidb.engine import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE t (a BIGINT, b BIGINT, tag TEXT, PRIMARY KEY (a))")
    database.execute(
        "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'x')"
    )
    return database


class TestUpdate:
    def test_update_with_predicate(self, db):
        count = db.execute("UPDATE t SET b = b * 2 WHERE tag = 'x'").rows[0][0]
        assert count == 2
        assert db.execute("SELECT b FROM t WHERE a = 1").scalar() == 20
        assert db.execute("SELECT b FROM t WHERE a = 2").scalar() == 20

    def test_update_all_rows(self, db):
        db.execute("UPDATE t SET tag = 'z'")
        assert db.execute("SELECT COUNT(*) FROM t WHERE tag = 'z'").scalar() == 3

    def test_update_multiple_columns(self, db):
        db.execute("UPDATE t SET b = 0, tag = NULL WHERE a = 1")
        assert db.execute("SELECT b, tag FROM t WHERE a = 1").rows == [(0, None)]

    def test_update_pk_maintains_index(self, db):
        db.execute("UPDATE t SET a = 99 WHERE a = 1")
        assert db.execute("SELECT b FROM t WHERE a = 99").scalar() == 10
        assert db.execute("SELECT b FROM t WHERE a = 1").rows == []

    def test_update_references_old_values(self, db):
        """All SET expressions see the pre-update row."""
        db.execute("UPDATE t SET a = b, b = a WHERE a = 1")
        assert db.execute("SELECT b FROM t WHERE a = 10").scalar() == 1

    def test_update_unknown_column(self, db):
        with pytest.raises((CatalogError, SQLNameError)):
            db.execute("UPDATE t SET nope = 1")


class TestDeleteIndexMaintenance:
    def test_deleted_key_not_found_via_index(self, db):
        db.execute("DELETE FROM t WHERE a = 2")
        assert db.execute("SELECT b FROM t WHERE a = 2").rows == []
        # and the key can be reinserted
        db.execute("INSERT INTO t VALUES (2, 200, 'new')")
        assert db.execute("SELECT b FROM t WHERE a = 2").scalar() == 200


class TestVacuum:
    def test_vacuum_compacts(self, db):
        for i in range(4, 500):
            db.execute("INSERT INTO t VALUES ($1, $2, 'bulk')", (i, i))
        db.execute("DELETE FROM t WHERE tag = 'bulk'")
        live = db.execute("VACUUM t").scalar()
        assert live == 3
        pages_after = db.table_stats()["t"]["heap_pages"]
        assert pages_after == 1
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3
        assert db.execute("SELECT b FROM t WHERE a = 1").scalar() == 10


class TestExplain:
    def test_point_lookup_plan(self, db):
        plan = [r[0] for r in db.execute("EXPLAIN SELECT b FROM t WHERE a = 1")]
        assert any("Index Scan" in line for line in plan)
        assert not any("Seq Scan" in line for line in plan)

    def test_seq_scan_plan(self, db):
        plan = [r[0] for r in db.execute("EXPLAIN SELECT b FROM t WHERE b = 10")]
        assert any("Seq Scan on t" in line for line in plan)

    def test_join_strategies_visible(self, db):
        db.execute("CREATE TABLE u (a BIGINT, c BIGINT, PRIMARY KEY (a))")
        db.execute("INSERT INTO u VALUES (1, 7), (2, 8)")
        plan = [
            r[0]
            for r in db.execute(
                "EXPLAIN SELECT u.c FROM (SELECT a FROM t) s, u WHERE u.a = s.a"
            )
        ]
        assert any("Index Nested Loop" in line for line in plan)
        plan = [
            r[0]
            for r in db.execute(
                "EXPLAIN SELECT 1 FROM (SELECT b FROM t) s, u WHERE u.c = s.b"
            )
        ]
        # The join says what it does: key, and the residual it filters by.
        assert "  Hash Join on (u.c = s.b)" in plan
        plan = [
            r[0]
            for r in db.execute(
                "EXPLAIN WITH s AS (SELECT a, b FROM t) SELECT 1 FROM s, u "
                "WHERE u.c = s.b AND s.a < u.a AND s.b > $1 AND u.a + s.a > 0",
                (3,),
            )
        ]
        assert "  Hash Join on (u.c = s.b) filter (s.a < u.a AND u.a + s.a > 0)" in plan
        assert "    CTE Scan on s filter (s.b > $1)" in plan

    def test_a_where_without_from_filters_the_result(self, db):
        # Result carries the constant conjuncts; there is no Filter node.
        sql = "SELECT 1 WHERE 2 > 1.5 AND $1 = 1"
        plan = [r[0] for r in db.execute("EXPLAIN " + sql, (1,))]
        assert plan == ["Project", "  Result filter (2 > 1.5 AND $1 = 1)"]
        assert db.execute(sql, (1,)).rows == [(1,)]
        assert db.execute(sql, (2,)).rows == []

    def test_ptldb_v2v_plan_uses_two_point_lookups(self, small_ptldb):
        from repro.ptldb import sqltext

        plan = [
            r[0]
            for r in small_ptldb.db.execute(
                "EXPLAIN " + sqltext.V2V_EA, (2, 9, 30_000)
            )
        ]
        lookups = [line for line in plan if "Index Scan" in line]
        assert len(lookups) == 2  # exactly lout and lin
        assert not any("Seq Scan" in line for line in plan)
        # ... joined as a band merge, with the pushed-down bound on its scan.
        assert plan[-3:] == [
            "  Hash Join on (outp.hub = inp.hub) band (outp.ta <= inp.td)",
            "    CTE Scan on outp filter (outp.td >= $3)",
            "    CTE Scan on inp",
        ]

    def test_ptldb_knn_plan_probes_by_index_nested_loop(self, small_ptldb):
        """The paper's §3.2.1 access-pattern claim, read off the plan: the
        optimized kNN query never scans the knn_ea table."""
        from repro.ptldb import sqltext

        handle = small_ptldb.handle("poi")
        sql = "EXPLAIN " + sqltext.ea_knn_optimized(handle.aux.knn_ea)
        plan = [
            r[0]
            for r in small_ptldb.db.execute(
                sql,
                (
                    2, 30_000, 2,
                    handle.aux.interval_s,
                    handle.aux.low_hour,
                    handle.aux.high_hour,
                ),
            )
        ]
        assert any(
            "Index Nested Loop" in line and "knn_ea" in line for line in plan
        )
        assert not any(
            "Seq Scan" in line and "knn_ea" in line for line in plan
        )


class TestPersistence:
    def test_roundtrip_with_arrays(self, tmp_path):
        path = os.path.join(tmp_path, "db.pages")
        with Database(path=path) as db:
            db.execute("CREATE TABLE lab (v BIGINT, hubs BIGINT[], PRIMARY KEY (v))")
            db.execute("INSERT INTO lab VALUES (1, ARRAY[3, 4]), (2, NULL)")
        with Database(path=path) as db:
            assert db.execute("SELECT hubs FROM lab WHERE v = 1").scalar() == [3, 4]
            assert db.execute("SELECT hubs FROM lab WHERE v = 2").scalar() is None

    def test_survives_multiple_sessions_and_ddl(self, tmp_path):
        path = os.path.join(tmp_path, "db.pages")
        with Database(path=path) as db:
            db.execute("CREATE TABLE a (x BIGINT)")
            db.execute("INSERT INTO a VALUES (1)")
        with Database(path=path) as db:
            db.execute("CREATE TABLE b (y TEXT)")
            db.execute("INSERT INTO b VALUES ('hi')")
            db.execute("INSERT INTO a VALUES (2)")
        with Database(path=path) as db:
            assert db.catalog.table_names() == ["a", "b"]
            assert db.execute("SELECT COUNT(*) FROM a").scalar() == 2
            assert db.execute("SELECT y FROM b").scalar() == "hi"

    def test_large_catalog_spans_meta_pages(self, tmp_path):
        path = os.path.join(tmp_path, "db.pages")
        with Database(path=path) as db:
            for i in range(120):
                db.execute(
                    f"CREATE TABLE table_with_a_rather_long_name_{i} "
                    "(col_one BIGINT, col_two TEXT, col_three BIGINT[], "
                    "PRIMARY KEY (col_one))"
                )
        with Database(path=path) as db:
            assert len(db.catalog.table_names()) == 120

    def test_dropped_table_gone_after_checkpoint(self, tmp_path):
        path = os.path.join(tmp_path, "db.pages")
        with Database(path=path) as db:
            db.execute("CREATE TABLE gone (x BIGINT)")
            db.execute("DROP TABLE gone")
        with Database(path=path) as db:
            assert db.catalog.table_names() == []
