"""GROUP BY / HAVING / aggregates, three ways.

A seeded statement generator over two small tables whose cells hold NULLs,
floats, text, booleans and ``BIGINT[]`` arrays. Every statement is compared

* with stdlib ``sqlite3`` wherever it accepts the text (3.40: no arrays, no
  ``BOOL_AND``, no ORDER BY inside an aggregate) — in exact order when the
  statement has an ORDER BY (sqlite gets ``NULLS LAST`` spelled out, minidb's
  only order), else as a multiset;
* with the row-at-a-time reference model, which materializes each group's
  rows and folds plain lists: rows, their order and cold page I/O.

Floats are multiples of 0.25, so every SUM/AVG is exact in any order.

One shape feeds the column kernels: an ``UNNEST`` CTE (int64 columns, with
int64-edge and high-cardinality values, a ragged and a NULL-element row
that expand row by row) comma-joined with a small integer table under a
comparison with arithmetic on both sides, grouped by two to four plain
columns. sqlite3 reads the same CTE rows from a flattened table.

Another hash-joins two such CTEs on ``e.y = f.y`` (neither side is a keyed
table, so no index nested-loop can take it), with at most one residual
comparison between the sides, grouped by zero to three plain columns — the
shapes of the band merge, the column join and the row hash table — plus
scalar aggregates over one CTE alone.

A last one runs ordered ``ARRAY_AGG`` calls (one to three order keys, ties,
DESC keys) over the UNNEST CTE, grouped by one to three columns or
``FLOOR(c / k)`` keys, directly or through a ``Subquery Scan`` of its top
rows per partition (``ROW_NUMBER() … WHERE rn <= k``); sqlite3 3.40 has no
ordered aggregates, so only the reference model checks these.
"""

import random
import sqlite3
import tracemalloc
from collections import Counter
from itertools import zip_longest

import pytest

from repro.errors import AnalyzerStructureError
from repro.minidb.engine import Database
from repro.minidb.sql import ast
from repro.minidb.sql import plan as phys
from repro.minidb.sql.analyzer import analyze_sql
from repro.minidb.sql.expr import compile_expr, hashable
from repro.minidb.sql.parser import parse
from repro.minidb.sql.planner import plan_statement
from repro.minidb.sql.printer import render_expr
from tests.minidb.reference import FORMAT_ID, run_or_refuse, run_reference

T_COLS = "a BIGINT, g BIGINT, x BIGINT, f DOUBLE, s TEXT, ok BOOL, xs BIGINT[]"
T_ROWS = [
    (
        a,
        None if a % 11 == 0 else a % 5,
        None if a % 7 == 3 else (a * 3) % 8,
        None if a % 6 == 5 else ((a * 5) % 9) * 0.25,
        None if a % 9 == 4 else "abcd"[a % 4],
        None if a % 5 == 2 else a % 3 == 0,
        None if a % 8 == 6 else list(range(a % 4)),
    )
    for a in range(1, 61)
]
#: no row for g = 4, a NULL and a repeated w, one w outside t.x
U_ROWS = [(0, 3, "zero"), (1, None, "odd"), (2, 3, "even"), (3, 40, "odd")]
#: int64 edges: a group code built as a product of key ranges overflows
EDGES = [-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2]


def _arr_row(i):
    """``(id, xs, ys)``: equally long arrays (some 32+ elements, decoded as
    ndarrays) except a ragged row and a NULL-element row."""
    n = (i * 7) % 45
    xs = [(i * 1_000_003 + j * 7_919) % 10_007 - 5_000 for j in range(n)]
    for j in range(i % 4, n, 9):
        xs[j] = EDGES[(i + j) % 4]
    ys = [(i + j) % 6 for j in range(n)]
    if i % 13 == 0:
        ys.append(i)  # ragged: xs pads with NULL
    if i % 17 == 0 and n:
        xs[0] = None
    return (i, xs, ys)


ARR_ROWS = [_arr_row(i) for i in range(1, 41)]
#: a small integer table; KN has a NULL, so its cross product stays rows
K_ROWS = [(h, h * h - 3) for h in range(6)]
KN_ROWS = K_ROWS[:3] + [(3, None)]
UNNEST_CTE = "WITH e AS (SELECT id, UNNEST(xs) AS x, UNNEST(ys) AS y FROM arr{}) "
FLAT_CTE = "WITH e AS (SELECT id, x, y FROM arr_flat{}) "
#: without the ragged and NULL-element rows every chunk of e is columnar
COLUMNAR = " WHERE id % 13 <> 0 AND id % 17 <> 0"


@pytest.fixture(scope="module", params=[FORMAT_ID])
def dbs():
    db, lite = Database(), sqlite3.connect(":memory:")
    for ddl in (
        f"CREATE TABLE t ({T_COLS}, PRIMARY KEY (a))",
        "CREATE TABLE u (g BIGINT, w BIGINT, label TEXT, PRIMARY KEY (g))",
        "CREATE TABLE sink (k BIGINT, n BIGINT, m DOUBLE)",
    ):
        db.execute(ddl)
        lite.execute(ddl.replace(", xs BIGINT[]", ""))  # no arrays there
    db.execute("CREATE TABLE arr (id BIGINT, xs BIGINT[], ys BIGINT[], PRIMARY KEY (id))")
    lite.execute("CREATE TABLE arr_flat (id BIGINT, x BIGINT, y BIGINT)")
    for name in ("k", "kn"):
        ddl = f"CREATE TABLE {name} (h BIGINT, w BIGINT, PRIMARY KEY (h))"
        db.execute(ddl)
        lite.execute(ddl)
    for table, rows in (
        ("t", T_ROWS), ("u", U_ROWS), ("arr", ARR_ROWS), ("k", K_ROWS), ("kn", KN_ROWS)
    ):
        dollars = ", ".join(f"${i + 1}" for i in range(len(rows[0])))
        db.executemany(f"INSERT INTO {table} VALUES ({dollars})", rows)
        if table == "arr":
            table = "arr_flat"
            rows = [(i, *pair) for i, xs, ys in rows for pair in zip_longest(xs, ys)]
        rows = [row[:6] for row in rows]  # t without xs
        slots = ", ".join("?" * len(rows[0]))
        lite.executemany(f"INSERT INTO {table} VALUES ({slots})", rows)
    yield db, lite
    lite.close()
    db.close()


def bag(rows):
    return Counter(hashable(row) for row in rows)


def check(dbs, sql, lite_sql=None, ordered=False):
    """Engine == reference model (rows, order, cold page I/O), and == sqlite3
    where it accepts the text. Returns ``(engine run, sqlite leg ran)``.

    Integer arithmetic that leaves int64 (``e.x + k.h`` at the int64 edge)
    is PostgreSQL's "bigint out of range" on the engine and the reference
    alike; sqlite3 computes a REAL there, so it has no leg. Returns
    ``(None, False)`` then."""
    db, lite = dbs
    engine = run_or_refuse(db, sql)
    if engine is None:
        return None, False
    assert db.pool.total_pins() == 0, sql
    assert engine == run_reference(db, sql), sql
    try:
        expected = lite.execute(lite_sql or sql).fetchall()
    except sqlite3.Error:
        return engine, False
    if ordered:
        assert engine.rows == expected, sql
    else:
        assert bag(engine.rows) == bag(expected), sql
    return engine, True


# ---------------------------------------------------------------------------
# The seeded statement generator
# ---------------------------------------------------------------------------
#: ``(select item, GROUP BY spelling)``: by column, expression and alias
KEYS = [
    ("g", "g"), ("s", "s"), ("ok", "ok"), ("f", "f"),
    ("g % 2", "g % 2"), ("x + 1", "x + 1"),
    ("g + 1 AS k", "k"), ("COALESCE(s, 'none') AS k", "k"),
]
#: aggregate items sqlite3 also answers: bare, inside arithmetic and CASE,
#: DISTINCT, over every scalar type
AGGS = [
    "COUNT(*)", "COUNT(x)", "COUNT(s)", "MIN(x)", "MAX(x)", "SUM(x)", "AVG(x)",
    "MIN(f)", "MAX(f)", "SUM(f)", "AVG(f)", "MIN(s)", "MAX(s)", "MIN(ok)",
    "COUNT(DISTINCT x)", "COUNT(DISTINCT s)", "SUM(DISTINCT x)",
    "COUNT(DISTINCT ok)", "SUM(DISTINCT f)", "AVG(DISTINCT x)",
    "MAX(x) - MIN(x)", "SUM(x) + COUNT(*) * 2", "SUM(f) / 2", "-MAX(a)",
    "SUM(x * 2 + a)", "MIN(ABS(x - 3))", "COALESCE(SUM(x), -1)",
    "CASE WHEN MAX(x) > 5 THEN SUM(x) ELSE 0 END",
    "CASE WHEN COUNT(*) > 10 THEN 'big' WHEN MIN(f) IS NULL THEN 'void' "
    "ELSE MIN(s) END",
    "MAX(x) IS NULL",
]
#: no sqlite3 leg: arrays, booleans, ORDER BY inside the call
ARRAY_AGGS = [
    "ARRAY_AGG(x)", "ARRAY_AGG(x ORDER BY a DESC)", "ARRAY_AGG(s ORDER BY f DESC, a)",
    "ARRAY_AGG(DISTINCT x ORDER BY x DESC)", "ARRAY_AGG(DISTINCT s ORDER BY s)",
    "ARRAY_AGG(f ORDER BY x, a)", "CARDINALITY(ARRAY_AGG(a))",
    "BOOL_AND(ok)", "BOOL_OR(ok)", "BOOL_AND(x > 2)", "MIN(xs)", "MAX(xs)",
    "COUNT(DISTINCT xs)", "SUM(x ORDER BY a)", "(ARRAY_AGG(a ORDER BY f, a))[1:2]",
    # multi-key orders: ties, DESC keys, NULL operands and NULL order keys
    "ARRAY_AGG(a ORDER BY g, x DESC, a)", "ARRAY_AGG(x ORDER BY g DESC, a)",
    "ARRAY_AGG(g ORDER BY x)", "ARRAY_AGG(a ORDER BY x DESC, g DESC, a DESC)",
]
#: on aggregates that are and are not in the select list
HAVINGS = [
    "COUNT(*) > 8", "COUNT(*) > 100", "MIN(x) < 2", "SUM(f) >= 4.0",
    "MAX(x) - MIN(x) > 5 AND COUNT(s) > 1", "COUNT(DISTINCT x) < 6",
    "AVG(x) > 3 OR MIN(f) IS NULL", "SUM(x) IS NOT NULL",
]
WHERES = ["", "", "", "WHERE a > 20", "WHERE x <> 2", "WHERE f < 1.5 AND a > 3",
          "WHERE a > 99"]  # the last one: empty input


def aggregates(rng, count, arrays):
    """*count* items: one time in three only bare calls, the statements the
    numpy kernel may take."""
    pool = AGGS + ARRAY_AGGS if arrays else AGGS
    if rng.random() < 0.33:
        pool = AGGS[:14]
    picked = rng.sample(pool, count)
    if picked and rng.random() < 0.3:
        picked.append(picked[0])  # the same call twice
    return picked


def finish(rng, select, from_where, group_by, width, sort_pool, havings=HAVINGS):
    """*select* … plus HAVING / ORDER BY / LIMIT: ``(sql, sqlite sql,
    ordered)``. Sort keys are aggregates in and outside the select list
    (hidden columns), then every output position, so the order is total."""
    sql = f"SELECT {select} {from_where}{group_by}"
    if rng.random() < 0.35:
        sql += f" HAVING {rng.choice(havings)}"
    if rng.random() < 0.5:
        return sql, sql, False
    keys = rng.sample(sort_pool, rng.randint(0, 2))
    keys += [str(i + 1) for i in range(width)]
    keys = [key + rng.choice(["", " ASC", " DESC"]) for key in keys]
    tail = rng.choice(["", "", " LIMIT 3", " LIMIT 1 OFFSET 1", " LIMIT 0"])
    return (
        f"{sql} ORDER BY {', '.join(keys)}{tail}",
        f"{sql} ORDER BY {', '.join(k + ' NULLS LAST' for k in keys)}{tail}",
        True,
    )


def grouped_statement(rng, arrays=False):
    keys = rng.sample(KEYS, rng.randint(1, 2))
    if sum(" AS k" in item for item, _ in keys) == 2:
        keys.pop()
    # a key may stay out of the select list, unless it is named by its alias
    items = [item for item, _ in keys if " AS k" in item or rng.random() < 0.8]
    items += aggregates(rng, rng.randint(0 if items else 1, 3), arrays)
    rng.shuffle(items)
    group_by = " GROUP BY " + ", ".join(spelling for _, spelling in keys)
    return finish(
        rng, ", ".join(items), f"FROM t {rng.choice(WHERES)}", group_by,
        len(items), AGGS,
    )


def array_statement(rng):
    return grouped_statement(rng, arrays=True)


def scalar_statement(rng):
    """No GROUP BY: one group, even over no rows."""
    items = aggregates(rng, rng.randint(1, 4), arrays=rng.random() < 0.3)
    return finish(
        rng, ", ".join(items), f"FROM t {rng.choice(WHERES)}", "", len(items), AGGS
    )


def join_statement(rng):
    """Aggregate over an index nested-loop join (``t.g = u.g``, u's key) and
    over a hash join (``t.x = u.w``)."""
    on = rng.choice(["t.g = u.g", "t.x = u.w"])
    source = rng.choice([f"FROM t, u WHERE {on}", f"FROM t JOIN u ON {on}"])
    if "WHERE" in source and rng.random() < 0.4:
        source += " AND t.a > 12"
    key = rng.choice(["u.label", "t.g", "u.w", "t.ok"])
    aggs = rng.sample(
        ["COUNT(*)", "MIN(t.x)", "MAX(t.a + u.g)", "SUM(t.f)", "COUNT(DISTINCT t.s)",
         "MIN(u.w) + MAX(t.x)", "AVG(t.x)", "MAX(t.a) - MIN(t.a)"],
        rng.randint(1, 3),
    )
    group_by = f" GROUP BY {key}" if rng.random() < 0.8 else ""
    items = ([key] if group_by else []) + aggs
    return finish(
        rng, ", ".join(items), source, group_by, len(items),
        ["COUNT(*)", "MIN(t.a)", "SUM(t.x)"],
    )


#: comparisons with arithmetic on both sides; only small values meet the
#: arithmetic, so sqlite3's float overflow never decides one
CROSS_FILTERS = [
    "e.y + 1 >= (k.h + 1) * 2", "e.y * 2 < k.w + k.h", "e.y - k.h <= 1 - k.h % 2",
    "e.x + k.h > k.w * 1000", "e.id % 5 <> k.h + 0",
]
UNNEST_KEYS = ["e.id", "e.x", "e.y", "k.h", "k.w"]
UNNEST_AGGS = [
    "COUNT(*)", "MIN(e.x)", "MAX(e.x)", "COUNT(e.x)", "MIN(e.y + k.h)",
    "MAX(k.w)", "MIN(e.id)",
]


def unnest_join_statement(rng):
    """A GROUP BY over 2-4 plain columns of an UNNEST CTE, cross-joined with
    ``k`` (or ``kn``, whose NULL keeps the join on rows) under a filter, or
    of the CTE alone."""
    joined = rng.random() < 0.8
    keys = UNNEST_KEYS if joined else UNNEST_KEYS[:3]
    aggs = UNNEST_AGGS if joined else UNNEST_AGGS[:4]
    source = "FROM e"
    if joined:
        right = rng.choice(["k", "k", "kn AS k"])
        source = f"FROM e, {right} WHERE {rng.choice(CROSS_FILTERS)}"
        if rng.random() < 0.3:
            source += f" AND {rng.choice(CROSS_FILTERS)}"
    group = rng.sample(keys, rng.randint(2, min(4, len(keys))))
    items = [key for key in group if rng.random() < 0.85]
    items += rng.sample(aggs, rng.randint(1, 3))
    rng.shuffle(items)
    sql, lite_sql, ordered = finish(
        rng, ", ".join(items), source, " GROUP BY " + ", ".join(group),
        len(items), ["COUNT(*)", "MIN(e.x)"],
        ["COUNT(*) > 3", "MIN(e.x) < 0", "MAX(e.y) - MIN(e.y) > 2"],
    )
    where = COLUMNAR if rng.random() < 0.75 else ""
    return UNNEST_CTE.format(where) + sql, FLAT_CTE.format(where) + lite_sql, ordered


EQUI_CTE = (
    "WITH e AS (SELECT id, UNNEST(xs) AS x, UNNEST(ys) AS y FROM arr{}), "
    "f AS (SELECT id, UNNEST(xs) AS x, UNNEST(ys) AS y FROM arr{}) "
)
FLAT_EQUI_CTE = (
    "WITH e AS (SELECT id, x, y FROM arr_flat{}), "
    "f AS (SELECT id, x, y FROM arr_flat{}) "
)
#: f's rows: two sets with column chunks only, then one with the ragged
#: row (id 13) and one with the NULL-element row (id 17)
F_WHERES = [" WHERE id % 9 = 2", " WHERE id % 11 = 5", " WHERE id % 9 = 4", " WHERE id % 8 = 1"]
#: ``e.x`` meets the int64 edges, so a band over it never fits the
#: composite; ``e.id`` is small, so a band over it does
EQUI_RESIDUALS = [f"e.{c} {op} f.{c}" for c in ("x", "id") for op in ("<=", "<", ">=", ">")]
EQUI_RESIDUALS += ["e.x <> f.x", "f.id >= e.id"]
EQUI_KEYS = ["e.id", "e.x", "e.y", "f.id", "f.x"]
#: the first six are the band kernel's: MIN/MAX of a column of either
#: side or of one column of each
EQUI_AGGS = [
    "MIN(e.x)", "MAX(f.x)", "MIN(f.id)", "MAX(e.id)", "MAX(f.id - e.id)",
    "MIN(e.id + f.id)", "COUNT(*)", "COUNT(f.x)", "SUM(e.y)", "SUM(f.id)",
]


def unnest_equi_join_statement(rng):
    """Two UNNEST CTEs hash-joined on ``e.y = f.y`` (neither is a keyed
    table), with at most one residual ``e.c <op> f.c``, grouped by 0-3
    plain columns; or a scalar aggregate over ``e`` alone."""
    e_where = COLUMNAR if rng.random() < 0.8 else ""
    f_where = rng.choice(F_WHERES[:2] if rng.random() < 0.6 else F_WHERES[2:])
    if rng.random() < 0.2:
        items = rng.sample(UNNEST_AGGS[:4] + ["SUM(e.y)"], rng.randint(1, 3))
        sql, lite_sql, ordered = finish(
            rng, ", ".join(items), "FROM e", "", len(items), ["COUNT(*)", "MIN(e.x)"],
            ["COUNT(*) > 3", "MIN(e.x) < 0"],
        )
    else:
        on = "e.y = f.y"
        residual = rng.choice(EQUI_RESIDUALS) if rng.random() < 0.8 else None
        if rng.random() < 0.7:  # JOIN … ON re-checks its key: never a band
            source = f"FROM e, f WHERE {on}"
            source += f" AND {residual}" if residual else ""
        else:
            source = f"FROM e JOIN f ON {on}"
            source += f" WHERE {residual}" if residual else ""
        group = rng.sample(EQUI_KEYS, rng.choice([0, 0, 0, 1, 1, 2, 3]))
        items = [key for key in group if rng.random() < 0.85]
        pool = EQUI_AGGS[:6] if rng.random() < 0.5 else EQUI_AGGS
        items += rng.sample(pool, rng.randint(1, 3))
        rng.shuffle(items)
        group_by = " GROUP BY " + ", ".join(group) if group else ""
        sql, lite_sql, ordered = finish(
            rng, ", ".join(items), source, group_by, len(items),
            ["MIN(e.x)", "MAX(f.id)"],
            ["COUNT(*) > 3", "MIN(e.x) < 0", "MAX(f.y) > 2"],
        )
    return (
        EQUI_CTE.format(e_where, f_where) + sql,
        FLAT_EQUI_CTE.format(e_where, f_where) + lite_sql,
        ordered,
    )


#: ordered ARRAY_AGG over the UNNEST CTE (int64 columns; column chunks
#: under COLUMNAR, rows with NULL operands and order keys without it):
#: group keys are columns or an integer expression, order keys tie often
#: (``y`` takes six values) and mix directions
ORDERED_GROUPS = ["id", "x", "y", "FLOOR(x / 7)", "FLOOR(id / 4)", "FLOOR(y / 2)"]
ORDERED_OPERANDS = ["x", "y", "id"]
ORDERED_SORTS = ["x", "y", "id"]


def ordered_array_agg(rng):
    operand = rng.choice(ORDERED_OPERANDS)
    keys = rng.sample(ORDERED_SORTS, rng.randint(1, 3))
    keys = [key + rng.choice(["", " DESC", " ASC"]) for key in keys]
    return f"ARRAY_AGG({operand} ORDER BY {', '.join(keys)})"


def ordered_array_statement(rng):
    """``ARRAY_AGG(v ORDER BY k1 [DESC], …)`` grouped by 1-3 keys (columns
    or ``FLOOR(c / k)``) over the UNNEST CTE, or over a ``Subquery Scan``
    of its top rows per partition (``ROW_NUMBER() … WHERE rn <= k``, the
    shape of a target-set build's ``fut``)."""
    where = COLUMNAR if rng.random() < 0.7 else ""
    source = "FROM e"
    if rng.random() < 0.35:
        part = rng.choice(["y", "id", "y, id"])
        order = ", ".join(rng.sample(["x", "id DESC", "y", "x DESC"], 2))
        source = (
            "FROM (SELECT id, x, y, ROW_NUMBER() OVER (PARTITION BY "
            f"{part} ORDER BY {order}) AS rn FROM e) r "
            f"WHERE rn <= {rng.randint(1, 4)}"
        )
    group = rng.sample(ORDERED_GROUPS, rng.randint(1, 3))
    items = [key for key in group if rng.random() < 0.85]
    items += [ordered_array_agg(rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        items.append(rng.choice(["COUNT(*)", "MIN(x)", "MAX(id)"]))
    rng.shuffle(items)
    sql, _, ordered = finish(
        rng, ", ".join(items), source, " GROUP BY " + ", ".join(group),
        len(items), ["COUNT(*)", "MIN(x)"], ["COUNT(*) > 3", "MAX(y) > 2"],
    )
    return UNNEST_CTE.format(where) + sql, None, ordered


SHAPES = {
    "grouped": (grouped_statement, 160),
    "arrays": (array_statement, 90),
    "scalar": (scalar_statement, 70),
    "join": (join_statement, 70),
    "unnest_join": (unnest_join_statement, 120),
    "unnest_equi_join": (unnest_equi_join_statement, 150),
    "ordered_arrays": (ordered_array_statement, 120),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_statements_agree_three_ways(dbs, shape):
    make, count = SHAPES[shape]
    rng = random.Random(f"group-by/{shape}")
    nonempty = on_sqlite = 0
    for _ in range(count):
        sql, lite_sql, ordered = make(rng)
        run, ran = check(dbs, sql, lite_sql, ordered)
        nonempty += bool(run and run.rows)
        on_sqlite += ran
    assert nonempty > count // 2  # the generator is not vacuous
    assert shape in ("arrays", "ordered_arrays") or on_sqlite > count // 2


def test_insert_select_group_by(dbs):
    db, lite = dbs
    rng = random.Random("group-by/insert")
    for _ in range(12):
        key = rng.choice(["g", "x", "g + 1"])
        having = rng.choice(["", " HAVING COUNT(*) > 4", " HAVING MIN(f) < 0.5"])
        sql = (
            f"INSERT INTO sink SELECT {key}, COUNT(DISTINCT s), SUM(f) FROM t "
            f"{rng.choice(WHERES)} GROUP BY {key}{having}"
        )
        try:
            source = run_reference(db, sql).rows
            db.execute(sql)
            lite.execute(sql)
            stored = db.execute("SELECT k, n, m FROM sink").rows
            assert bag(stored) == bag(source), sql
            assert bag(stored) == bag(
                lite.execute("SELECT k, n, m FROM sink").fetchall()
            ), sql
        finally:
            db.execute("DELETE FROM sink")
            lite.execute("DELETE FROM sink")


class TestEmptyInput:
    def test_scalar_aggregates_answer_one_row(self, dbs):
        run, ran = check(
            dbs,
            "SELECT COUNT(*), COUNT(x), SUM(x), MIN(s), AVG(f), "
            "COUNT(DISTINCT x), COALESCE(MAX(x), -1) FROM t WHERE a > 99",
        )
        assert ran and run.rows == [(0, 0, None, None, None, 0, -1)]
        run, _ = check(
            dbs,
            "SELECT ARRAY_AGG(x ORDER BY a), BOOL_AND(ok), BOOL_OR(ok) "
            "FROM t WHERE a > 99",
        )
        assert run.rows == [(None, None, None)]

    def test_grouped_aggregates_answer_no_row(self, dbs):
        run, ran = check(dbs, "SELECT g, COUNT(*) FROM t WHERE a > 99 GROUP BY g")
        assert ran and run.rows == []

    def test_having_filters_the_one_group(self, dbs):
        assert check(dbs, "SELECT COUNT(*) FROM t HAVING COUNT(*) > 99")[0].rows == []
        assert check(dbs, "SELECT MAX(a) FROM t WHERE a > 99 HAVING COUNT(*) = 0")[
            0
        ].rows == [(None,)]


class TestHavingAloneGroups:
    """A core is grouped when it has GROUP BY, an aggregate **or HAVING**
    (PostgreSQL's rule; the parent ignored such a HAVING under a warning)."""

    def test_constant_having_keeps_or_drops_the_one_group(self, dbs):
        assert check(dbs, "SELECT 1 FROM t HAVING 1 = 0")[0].rows == []
        assert check(dbs, "SELECT 1 FROM t HAVING 1 = 1")[0].rows == [(1,)]
        assert check(dbs, "SELECT 7 FROM t WHERE a > 99 HAVING 1 = 1")[0].rows == [(7,)]
        assert check(dbs, "SELECT 1 FROM t HAVING MAX(x) > 99")[0].rows == []

    def test_bare_column_is_ungrouped(self, dbs):
        db, _ = dbs
        sql = "SELECT g FROM t HAVING g > 2"
        analysis = analyze_sql(sql, db.catalog)
        assert {d.code for d in analysis.diagnostics} == {"AGG003"}
        assert analysis.plan is None
        assert sql[analysis.errors[0].span.start :].startswith("g FROM t")
        db.restart()
        before = db.disk.stats.snapshot()
        with pytest.raises(AnalyzerStructureError, match="must appear in GROUP BY"):
            db.execute(sql)
        assert db.disk.stats.delta(before).reads == 0


class TestAggregatesAreColumns:
    def test_one_slot_per_distinct_call(self, dbs):
        db, _ = dbs
        core = analyze_sql(
            "SELECT g, MAX(x), MAX(x) + 1, SUM(x + 1), SUM(x + 1.0) FROM t "
            "GROUP BY g HAVING MAX(x) > 2 AND COUNT(*) > 1 ORDER BY MAX(t.x), MIN(f)",
            db.catalog,
        ).bound.core
        # MAX(x) is one slot for two items, HAVING and a sort key; 1 is not 1.0
        assert [render_expr(call) for call in core.aggs] == [
            "MAX(x)", "SUM(x + 1)", "SUM(x + 1.0)", "MIN(f)", "COUNT(*)",
        ]
        assert [render_expr(it.value) for it in core.items] == [
            "g", "__agg_0", "__agg_0 + 1", "__agg_1", "__agg_2", "__agg_3",
        ]
        assert render_expr(core.having) == "__agg_0 > 2 AND __agg_4 > 1"
        assert core.items[1].value.type == "int"

    def test_every_closure_takes_a_row(self, dbs):
        db, _ = dbs
        with pytest.raises(TypeError):
            compile_expr(ast.Literal(1), {}, grouped=False)
        with pytest.raises(TypeError):
            compile_expr(ast.Literal(1), {}, False)
        node = plan_statement(
            parse("SELECT g, ARRAY_AGG(x ORDER BY a) FROM t GROUP BY g HAVING COUNT(*) > 1"),
            db.catalog,
        ).statement.root
        assert isinstance(node, phys.Aggregate)
        assert not hasattr(node, "simple_spec") and not hasattr(phys.Aggregate, "simple_spec")
        assert len(node.aggs) == len(node.accs) == 2
        # HAVING reads the second aggregate column after a 7-column input row
        assert node.having_fn((None,) * 7 + ([1], 2), ()) is True
        assert node.having_fn((None,) * 7 + ([1], 1), ()) is False

    def test_no_group_keeps_its_rows(self):
        """HAVING + ARRAY_AGG used to collect every group's rows; now a
        group is its first row and one accumulator per call, so the wide
        ``pad`` strings of all other rows die with their batch."""
        db = Database()
        db.batch_size = 32
        db.execute("CREATE TABLE w (a BIGINT, g BIGINT, pad TEXT, PRIMARY KEY (a))")
        db.executemany(
            "INSERT INTO w VALUES ($1, $2, $3)",
            [(a, a % 5, f"{a:05d}" * 400) for a in range(1500)],  # 3 MB of pad
        )
        sql = (
            "SELECT g, ARRAY_AGG(a ORDER BY a DESC), COUNT(DISTINCT a) FROM w "
            "GROUP BY g HAVING COUNT(*) > 1"
        )
        db.execute(sql)  # every page is in the pool from here on
        tracemalloc.start()
        try:
            rows = db.execute(sql).rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(g, len(xs), n) for g, xs, n in rows] == [(g, 300, 300) for g in range(5)]
        assert peak < 1_000_000
        db.close()
