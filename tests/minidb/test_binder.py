"""One binder: name resolution has one meaning, and accepted means planned.

Two guarantees of the bound tree (docs/ANALYZER.md), each checked against
stdlib ``sqlite3`` as a third leg — the engine and the row-at-a-time
reference model share one plan, so a wrong binding is invisible between
them:

* the name rules of docs/SQL_DIALECT.md: a bare ORDER BY name is an output
  name first, a bare GROUP BY name an input column first;
* a statement the binder accepts has a plan (lowering cannot raise), and a
  rejected one costs a single plan-cache hit per execution.

Every column of the fixture tables holds distinct non-NULL values where
order matters, and every generated ORDER BY ends in all output positions,
so a result's row order is fully determined and can be compared exactly.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalyzerNameError, SQLAnalysisError, SQLNameError
from repro.minidb.engine import Database
from repro.minidb.sql.analyzer import analyze_sql

DDL = (
    "CREATE TABLE t (a BIGINT, b BIGINT, c BIGINT, PRIMARY KEY (a))",
    "CREATE TABLE u (a BIGINT, d BIGINT, PRIMARY KEY (a))",
)
T_ROWS = [(i, (i * 7) % 5, 11 - i) for i in range(1, 9)]
U_ROWS = [(i, i * i) for i in range(2, 8)]


@pytest.fixture(scope="module")
def dbs():
    db, lite = Database(), sqlite3.connect(":memory:")
    for ddl in DDL:
        db.execute(ddl)
        lite.execute(ddl)
    for table, rows in (("t", T_ROWS), ("u", U_ROWS)):
        slots = ", ".join("?" * len(rows[0]))
        lite.executemany(f"INSERT INTO {table} VALUES ({slots})", rows)
        dollars = ", ".join(f"${i + 1}" for i in range(len(rows[0])))
        db.executemany(f"INSERT INTO {table} VALUES ({dollars})", rows)
    yield db, lite
    lite.close()
    db.close()


def sqlite_rows(lite, sql):
    """*sql*'s rows on sqlite3, or None where sqlite3 rejects it."""
    try:
        return lite.execute(sql).fetchall()
    except sqlite3.Error:
        return None


class TestNameRules:
    @pytest.mark.parametrize(
        "sql",
        [
            # an alias shadowing an input column wins in ORDER BY ...
            "SELECT c AS a FROM t ORDER BY a",
            "SELECT a AS b, b AS a FROM t ORDER BY a, b LIMIT 3",
            "SELECT b, COUNT(*) AS a FROM t GROUP BY b ORDER BY a DESC, b",
            "SELECT c AS a, MIN(b) AS c FROM t GROUP BY c ORDER BY c, a",
            # ... a qualified name or an expression sees input columns only
            "SELECT c AS a FROM t ORDER BY t.a DESC",
            "SELECT c AS a FROM t ORDER BY a + 0 DESC",
            # ... and in GROUP BY the input column wins
            "SELECT c AS k, COUNT(*) FROM t GROUP BY k ORDER BY k",
            "SELECT b + 1 AS c, COUNT(*) FROM t GROUP BY b + 1 ORDER BY c",
        ],
    )
    def test_matches_sqlite(self, dbs, sql):
        db, lite = dbs
        assert db.execute(sql).rows == lite.execute(sql).fetchall()

    def test_group_by_prefers_the_input_column(self, dbs):
        db, _ = dbs
        # GROUP BY b is t.b, so the item `a` (alias b) is ungrouped.
        with pytest.raises(SQLAnalysisError, match="AGG003"):
            db.execute("SELECT a AS b, COUNT(*) FROM t GROUP BY b")


class TestAcceptedMeansPlanned:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t JOIN u ON t.a = u.a ORDER BY a",
            "SELECT t.a, u.a FROM t, u WHERE t.a = u.a ORDER BY a",
        ],
    )
    def test_ambiguous_order_by_is_a_typed_error(self, dbs, sql):
        db, _ = dbs
        analysis = analyze_sql(sql, db.catalog)
        [diag] = analysis.errors
        assert diag.code == "SEM003"
        assert sql[diag.span.start : diag.span.end] == "a"
        assert diag.span.start == sql.rindex("a")
        assert analysis.plan is None
        reads = db.disk.stats.reads
        with pytest.raises(AnalyzerNameError, match=r"SEM003[^^]*\^"):
            db.execute(sql)
        before = db.plan_cache_stats()
        with pytest.raises(SQLNameError):
            db.execute(sql)
        after = db.plan_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert db.disk.stats.reads == reads

    @pytest.mark.parametrize(
        "sql", ["SELECT $0", "SELECT a FROM t WHERE a = $1 OR b = $0"]
    )
    def test_parameter_zero_is_refused_with_its_span(self, dbs, sql):
        db, _ = dbs
        [diag] = analyze_sql(sql, db.catalog).errors
        assert diag.code == "SEM007"
        assert sql[diag.span.start : diag.span.end] == "$0"
        with pytest.raises(SQLAnalysisError, match=r"SEM007 error: there is no parameter \$0"):
            db.execute(sql, (1, 2))
        arity = analyze_sql("SELECT $2 + 1", db.catalog).plan.arity
        assert type(arity) is int and arity == 2
        assert db.execute("SELECT $2 + 1", (5, 6)).rows == [(7,)]

    def test_same_column_twice_is_not_ambiguous(self, dbs):
        db, lite = dbs
        sql = "SELECT a, t.a FROM t ORDER BY a DESC"
        assert db.execute(sql).rows == lite.execute(sql).fetchall()


# ---------------------------------------------------------------------------
# A small SELECT grammar over t and u
# ---------------------------------------------------------------------------
NAMES = ["a", "b", "c", "d", "x", "k"]
#: FROM clause -> (WITH prefix, FROM text, join predicate, columns of each
#: source)
SOURCES = {
    "table": ("", "t", None, {"t": "abc"}),
    "comma": ("", "t, u", "t.a = u.a", {"t": "abc", "u": "ad"}),
    "join": ("", "t JOIN u ON t.a = u.a", None, {"t": "abc", "u": "ad"}),
    "cte": ("WITH w AS (SELECT a, b AS x, c FROM t) ", "w", None, {"w": "axc"}),
    "subquery": ("", "(SELECT a, c AS x, b FROM t) s", None, {"s": "axb"}),
}


@st.composite
def terms(draw, columns):
    """A scalar expression over the sources' columns — bare or qualified,
    so some are ambiguous — and now and then over a name that is not one."""
    source = draw(st.sampled_from(sorted(columns)))
    name = draw(st.sampled_from(columns[source]))
    if draw(st.integers(0, 9)) == 0:
        name = draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        name = f"{source}.{name}"
    shape = draw(st.sampled_from(["{0}", "{0}", "{0} + 1", "{0} - {1}"]))
    return shape.format(name, draw(st.sampled_from(columns[source])))


def aliased(draw, text):
    alias = draw(st.one_of(st.none(), st.sampled_from(NAMES)))
    return (f"{text} AS {alias}" if alias else text), alias


@st.composite
def selects(draw):
    prefix, from_text, predicate, columns = SOURCES[
        draw(st.sampled_from(sorted(SOURCES)))
    ]
    term = terms(columns)
    order_pool = list(NAMES)
    group_by = ""
    if draw(st.booleans()):  # grouped: one key, then aggregates
        key = draw(term)
        head, alias = aliased(draw, key)
        by = draw(st.sampled_from(["expression", "alias", "name"]))
        group_by = " GROUP BY " + (
            alias if by == "alias" and alias else
            draw(st.sampled_from(NAMES)) if by == "name" else key
        )
        items = [head]
        for _ in range(draw(st.integers(0, 2))):
            call = draw(st.sampled_from(["COUNT(*)", f"MIN({draw(term)})"]))
            items.append(aliased(draw, call)[0])
            order_pool.append(call)
        width = len(items)
    elif draw(st.integers(0, 4)) == 0:
        items, width = ["*"], sum(map(len, columns.values()))
    else:
        items = [
            aliased(draw, draw(term))[0]
            for _ in range(draw(st.integers(1, 3)))
        ]
        width = len(items)
    sql = f"{prefix}SELECT {', '.join(items)} FROM {from_text}"
    if predicate:
        sql += f" WHERE {predicate}"
    sql += group_by
    return sql + draw(order_limit(width, st.one_of(st.sampled_from(order_pool), term)))


@st.composite
def order_limit(draw, width, names):
    """`` ORDER BY <keys>, 1..width [LIMIT n]`` — or nothing at all."""
    if draw(st.integers(0, 3)) == 0:
        return ""
    keys = []
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.one_of(names, st.integers(1, width + 1).map(str)))
        keys.append(key + draw(st.sampled_from(["", " DESC"])))
    keys += [str(i + 1) for i in range(width)]  # makes the order total
    limit = draw(st.one_of(st.none(), st.integers(0, 6)))
    return " ORDER BY " + ", ".join(keys) + (f" LIMIT {limit}" if limit else "")


@st.composite
def unions(draw):
    op = draw(st.sampled_from(["UNION", "UNION ALL"]))
    left = draw(st.sampled_from(["a, b", "a AS k, c AS a", "b AS x, a"]))
    right = draw(st.sampled_from(["a, d", "d, a", "a, a"]))
    tail = draw(order_limit(2, st.sampled_from(NAMES)))
    return f"SELECT {left} FROM t {op} SELECT {right} FROM u{tail}"


@settings(max_examples=300, deadline=None)
@given(sql=st.one_of(selects(), unions()))
def test_accepted_statements_plan_and_agree_with_sqlite(dbs, sql):
    db, lite = dbs
    analysis = analyze_sql(sql, db.catalog)  # lowering must never raise
    assert (analysis.plan is not None) == analysis.ok
    if not analysis.ok:
        return
    got = [tuple(row) for row in db.execute(sql).rows]
    want = sqlite_rows(lite, sql)
    if want is None:
        return
    if "ORDER BY" not in sql:
        got, want = sorted(got), sorted(want)
    assert got == want
