"""Planner output, the LRU plan cache and prepared statements."""

import pytest

from repro.errors import SQLAnalysisError
from repro.minidb.engine import PLAN_CACHE_CAP, Database
from repro.minidb.sql import plan as phys
from repro.minidb.sql import planner
from repro.ptldb import sqltext


@pytest.fixture()
def db():
    db = Database()
    db.execute("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))")
    for i in range(10):
        db.execute("INSERT INTO t VALUES ($1, $2)", (i, (i * 7) % 5))
    return db


class TestPlanCache:
    def test_repeat_execution_is_a_hit(self, db):
        sql = "SELECT b FROM t WHERE a = $1"
        db.execute(sql, (3,))
        before = db.plan_cache_stats()
        db.execute(sql, (4,))
        after = db.plan_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_hit_reuses_the_same_plan_object(self, db):
        sql = "SELECT b FROM t WHERE a = $1"
        db.execute(sql, (1,))
        first = db._plan_cache[sql].plan
        db.execute(sql, (2,))
        assert db._plan_cache[sql].plan is first

    def test_lru_eviction_bounds_the_cache(self, db):
        for i in range(PLAN_CACHE_CAP + 10):
            db.execute(f"SELECT b FROM t WHERE a = {i}")
        stats = db.plan_cache_stats()
        assert len(db._plan_cache) <= PLAN_CACHE_CAP
        assert stats["evictions"] >= 10

    def test_lru_evicts_least_recently_used_first(self, db):
        keep = "SELECT b FROM t WHERE a = $1"
        db.execute(keep, (0,))
        for i in range(PLAN_CACHE_CAP - 1):
            db.execute(f"SELECT a FROM t WHERE a = {i}")
            db.execute(keep, (0,))  # refresh recency every round
        assert keep in db._plan_cache

    def test_ddl_invalidates_cached_plans(self, db):
        sql = "SELECT COUNT(*) FROM t"
        db.execute(sql)
        before = db.plan_cache_stats()
        db.execute("CREATE TABLE other (x BIGINT, PRIMARY KEY (x))")
        assert db.execute(sql).scalar() == 10
        after = db.plan_cache_stats()
        assert after["invalidations"] > before["invalidations"]
        # the refreshed entry is a hit again
        db.execute(sql)
        assert db.plan_cache_stats()["hits"] == after["hits"] + 1

    def test_error_statement_cached_and_reraised(self, db):
        sql = "SELECT nope FROM t"
        with pytest.raises(SQLAnalysisError):
            db.execute(sql)
        before = db.plan_cache_stats()
        with pytest.raises(SQLAnalysisError):
            db.execute(sql)
        assert db.plan_cache_stats()["hits"] == before["hits"] + 1


class TestPreparedStatement:
    def test_repeat_executions_do_zero_planning_work(self, db):
        stmt = db.prepare("SELECT b FROM t WHERE a = $1")
        before = db.plan_cache_stats()
        for i in range(5):
            assert stmt.execute((i,)).rows == [((i * 7) % 5,)]
        after = db.plan_cache_stats()
        assert after["hits"] == before["hits"] + 5
        assert after["misses"] == before["misses"]

    def test_prepare_raises_semantic_errors_eagerly(self, db):
        with pytest.raises(SQLAnalysisError):
            db.prepare("SELECT nope FROM t")

    def test_stale_handle_transparently_replans(self, db):
        stmt = db.prepare("SELECT COUNT(*) FROM t WHERE b = $1")
        assert stmt.execute((0,)).scalar() == 2
        before = db.plan_cache_stats()
        db.execute("CREATE TABLE bump (x BIGINT, PRIMARY KEY (x))")
        db.execute("INSERT INTO t VALUES (100, 0)")
        assert stmt.execute((0,)).scalar() == 3
        after = db.plan_cache_stats()
        assert after["invalidations"] > before["invalidations"]
        # and the re-planned entry is cached again
        assert stmt.execute((0,)).scalar() == 3
        assert db.plan_cache_stats()["hits"] > after["hits"]

    def test_explain_shows_the_pk_lookup(self, db):
        stmt = db.prepare("SELECT b FROM t WHERE a = $1")
        lines = stmt.explain()
        assert any("Index Scan using t_pkey on t" in line for line in lines)


class TestTopK:
    def test_matches_full_sort_prefix(self, db):
        full = db.execute("SELECT a, b FROM t ORDER BY b, a").rows
        for k in (1, 3, 7, 10, 15):
            got = db.execute(f"SELECT a, b FROM t ORDER BY b, a LIMIT {k}").rows
            assert got == full[:k]

    def test_offset_and_desc(self, db):
        full = db.execute("SELECT a FROM t ORDER BY b DESC, a DESC").rows
        got = db.execute(
            "SELECT a FROM t ORDER BY b DESC, a DESC LIMIT 4 OFFSET 3"
        ).rows
        assert got == full[3:7]

    def test_ties_are_stable(self, db):
        # b has duplicates; a tie-free total order must not be required
        full = db.execute("SELECT a, b FROM t ORDER BY b").rows
        got = db.execute("SELECT a, b FROM t ORDER BY b LIMIT 6").rows
        assert got == full[:6]

    def test_nulls_sort_last(self, db):
        db.execute("INSERT INTO t VALUES (100, NULL)")
        rows = db.execute("SELECT a FROM t ORDER BY b DESC LIMIT 11").rows
        assert rows[-1] == (100,)

    def test_trace_and_explain_show_topk(self, db):
        db.execute("SELECT a FROM t ORDER BY b LIMIT 2")
        assert db.last_trace.find("Top-K Sort")
        lines = [
            row[0]
            for row in db.execute("EXPLAIN SELECT a FROM t ORDER BY b LIMIT 2")
        ]
        assert any(line.strip().startswith("Top-K Sort") for line in lines)
        # plain ORDER BY (no LIMIT) still plans a full Sort
        lines = [
            row[0] for row in db.execute("EXPLAIN SELECT a FROM t ORDER BY b")
        ]
        assert any(line.strip().startswith("Sort") for line in lines)


class TestCommaJoinOrder:
    """Derived relations first, then base tables by ascending row count."""

    @pytest.fixture()
    def joined(self, db):
        for name, rows in (("s", [(1, 10), (4, 40)]), ("u", range(10))):
            db.execute(f"CREATE TABLE {name} (a BIGINT, c BIGINT, PRIMARY KEY (a))")
            db.executemany(
                f"INSERT INTO {name} VALUES ($1, $2)",
                [row if name == "s" else (row, -row) for row in rows],
            )
        return db

    @staticmethod
    def scans(db, sql):
        """The plan's join and scan lines, outermost first."""
        lines = [row[0].strip() for row in db.execute("EXPLAIN " + sql)]
        return [line for line in lines if "Loop" in line or "Scan" in line]

    @pytest.mark.parametrize("tables", ["t, s", "s, t"])
    def test_the_larger_table_is_probed(self, joined, tables):
        sql = f"SELECT t.b, s.c FROM {tables} WHERE t.a = s.a"
        assert self.scans(joined, sql) == [
            "Index Nested Loop probe t by primary key (a)",
            "Seq Scan on s",
        ]
        assert sorted(joined.execute(sql).rows) == [(2, 10), (3, 40)]

    @pytest.mark.parametrize("first, second", [("t", "u"), ("u", "t")])
    def test_equal_counts_keep_from_order(self, joined, first, second):
        sql = f"SELECT t.b, u.c FROM {first}, {second} WHERE t.a = u.a"
        assert self.scans(joined, sql) == [
            f"Index Nested Loop probe {second} by primary key (a)",
            f"Seq Scan on {first}",
        ]

    def test_derived_relations_still_go_first(self, joined):
        # d (2 rows) drives although it is the last source; t and u follow
        # in FROM order (equal counts), each probed by its primary key
        sql = (
            "WITH d AS (SELECT a FROM s) "
            "SELECT t.b, u.c FROM t, u, d WHERE t.a = d.a AND u.a = t.a"
        )
        assert self.scans(joined, sql)[-3:] == [
            "Index Nested Loop probe u by primary key (a)",
            "Index Nested Loop probe t by primary key (a)",
            "CTE Scan on d",
        ]
        assert joined.execute(sql).rows == [(2, -1), (3, -4)]

    def test_a_cached_plan_outlives_its_counts(self, joined):
        """Counts steer only the order: a plan cached before they change
        keeps probing t, and still answers right."""
        sql = "SELECT t.b, s.c FROM s, t WHERE t.a = s.a"
        stmt = joined.prepare(sql)
        assert stmt.execute(()).rows == [(2, 10), (3, 40)]
        joined.executemany(
            "INSERT INTO s VALUES ($1, $2)", [(a, a) for a in range(20, 40)]
        )
        before = joined.plan_cache_stats()
        assert stmt.execute(()).rows == [(2, 10), (3, 40)]
        assert joined.plan_cache_stats()["misses"] == before["misses"]
        # planned afresh, the now larger s is the probed side
        assert self.scans(joined, sql)[0] == "Index Nested Loop probe s by primary key (a)"


class TestPreparedOncePerPlan:
    """Every operator's per-plan state is set by one walk at the end of
    planning; executing the plan, prepared or through the cache, prepares
    nothing."""

    TEXTS = (  # (sql, parameters)
        # CTEs, point lookups, fused ProjectSets, a band Aggregate
        (sqltext.V2V_EA, (1, 2, 0)),
        ("SELECT v, UNNEST(hubs[1:$2]) FROM lout WHERE v = $1 AND v >= 0 LIMIT $2", (1, 2)),
        (
            "SELECT v, COUNT(*) FROM (SELECT v, UNNEST(hubs) AS h FROM lin) s "
            "WHERE h > $1 GROUP BY v ORDER BY v",
            (1,),
        ),
    )

    @pytest.fixture()
    def labels(self):
        db = Database()
        for side in ("lout", "lin"):
            db.execute(
                f"CREATE TABLE {side} (v BIGINT, hubs BIGINT[], tds BIGINT[], "
                "tas BIGINT[], PRIMARY KEY (v))"
            )
            for v in range(3):
                db.execute(
                    f"INSERT INTO {side} VALUES ($1, $2, $3, $4)",
                    (v, [0, 1, 2], [10 * v, 20, 30], [15 * v + 5, 25, 35]),
                )
        return db

    @pytest.fixture()
    def prepared(self, monkeypatch):
        """The operators ``planner._prepare`` is called with, in order."""
        calls = []
        real = planner._prepare

        def counting(op, parent):
            calls.append(op)
            real(op, parent)

        monkeypatch.setattr(planner, "_prepare", counting)
        return calls

    @pytest.mark.parametrize("sql, params", TEXTS)
    def test_planning_prepares_each_node_once_and_executing_none(
        self, labels, prepared, sql, params
    ):
        stmt = labels.prepare(sql)
        operators = [op for op, *_ in phys.operators(stmt.entry.plan.statement)]
        assert len(prepared) == len(operators) > 3
        assert {id(op) for op in prepared} == {id(op) for op in operators}
        prepared.clear()
        answers = [stmt.execute(params).rows for _ in range(5)]
        assert prepared == []
        hits = labels.plan_cache_stats()["hits"]
        assert labels.execute(sql, params).rows == answers[0]
        assert labels.plan_cache_stats()["hits"] == hits + 1
        assert prepared == []

    def test_a_ddl_bump_prepares_the_new_plan_once(self, labels, prepared):
        stmt = labels.prepare(sqltext.V2V_EA)
        before = stmt.execute((1, 2, 0)).rows
        labels.execute("CREATE TABLE unrelated (k BIGINT, PRIMARY KEY (k))")
        prepared.clear()
        for _ in range(3):
            assert stmt.execute((1, 2, 0)).rows == before
        assert len(prepared) == len(list(phys.operators(stmt.entry.plan.statement)))
