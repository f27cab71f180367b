"""ORDER BY keys travel as columns: one sort contract, two batch shapes.

A sort key is a column position of the row under the ``Sort``/``Top-K`` —
a select item, or a *hidden* item the projection/aggregate computes after
the visible ones and the sort strips (docs/ARCHITECTURE.md, "Vectorized
pipeline"). This suite drives that contract with a seeded statement
generator and compares every statement three ways:

* exact row order against stdlib ``sqlite3`` wherever it accepts the text
  (the engine and the reference model share one plan, so a wrong binding
  or a leaked hidden column is invisible between the two of them);
* rows and cold page I/O against the row-at-a-time reference model.

Both fixture tables are NULL-free (NULLS LAST vs sqlite's NULLS FIRST never
shows) and every generated ORDER BY ends in all output positions, so a
result's row order is fully determined up to identical rows.
"""

import random
import sqlite3

import pytest

from repro.errors import AnalyzerStructureError
from repro.minidb.engine import Database
from repro.minidb.sql import plan as phys
from repro.minidb.sql.analyzer import analyze_sql
from repro.minidb.sql.parser import parse
from repro.minidb.sql.planner import plan_statement
from tests.minidb.reference import FORMAT_ID, run_engine, run_reference

DDL = (
    "CREATE TABLE t (a BIGINT, b BIGINT, c BIGINT, PRIMARY KEY (a))",
    "CREATE TABLE u (a BIGINT, d BIGINT, PRIMARY KEY (a))",
    "CREATE TABLE sink (x BIGINT, y BIGINT)",
)
T_ROWS = [(i, (i * 7) % 5, (i * 13) % 17) for i in range(1, 41)]
U_ROWS = [(i, (i * i) % 11) for i in range(2, 30, 2)]
#: UNNEST input (no sqlite3 leg): ragged arrays, one empty, one NULL.
V_ROWS = [
    (i, i % 3, None if i == 4 else list(range(i, i + (i * 5) % 4)))
    for i in range(1, 13)
]


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
    db.execute("CREATE TABLE v (a BIGINT, g BIGINT, xs BIGINT[], PRIMARY KEY (a))")
    db.executemany("INSERT INTO v VALUES ($1, $2, $3)", V_ROWS)
    yield db, lite
    lite.close()
    db.close()


def check(dbs, sql):
    """Engine == reference model (rows, order, cold page I/O), and == sqlite3
    in exact order where sqlite3 accepts *sql*. Returns the engine's run."""
    db, lite = dbs
    engine = run_engine(db, sql)
    assert db.pool.total_pins() == 0, sql
    assert engine == run_reference(db, sql), sql
    try:
        expected = lite.execute(sql).fetchall()
    except sqlite3.Error:
        return engine
    assert engine.rows == expected, sql
    return engine


# ---------------------------------------------------------------------------
# The seeded statement generator
# ---------------------------------------------------------------------------
#: select items and sort keys over t
T_EXPRS = ["a", "b", "c", "a + b", "-c", "b * 2 - c", "ABS(b - 3)", "c + 0"]
#: aggregate expressions valid in ``GROUP BY b``
T_AGGS = [
    "COUNT(*)", "MIN(c)", "MAX(a)", "SUM(c)", "MIN(a) + MAX(c)",
    "SUM(a) - COUNT(*)", "AVG(c)", "b", "b + 1",
]
WHERES = ["", "", "WHERE a > 12", "WHERE b <> 2", "WHERE c < 9 AND a > 3"]


def direction(rng):
    return rng.choice(["", " ASC", " DESC"])


def tail(rng, limits=(0, 1, 3, 7, 100)):
    """``[LIMIT n [OFFSET m]]`` — ``LIMIT 0`` included."""
    roll = rng.random()
    if roll < 0.4:
        return ""
    if roll < 0.8:
        return f" LIMIT {rng.choice(limits)}"
    return f" LIMIT {rng.choice(limits)} OFFSET {rng.choice((0, 1, 2, 5))}"


def select_list(rng, pool, count):
    """``count`` distinct expressions of *pool*, some of them aliased."""
    items = []
    for i, expr in enumerate(rng.sample(pool, count)):
        alias = f"k{i}" if rng.random() < 0.5 else None
        items.append((expr, alias))
    return items


def order_by(rng, items, pool, hidden=True):
    """1-3 keys — by name, alias, position, selected or (when *hidden*)
    non-selected expression — then every output position, so the order is
    total."""
    keys = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["item", "item", "position", "hidden"])
        i = rng.randrange(len(items))
        expr, alias = items[i]
        if kind == "hidden" and hidden:
            key = rng.choice(pool)
        elif kind == "position":
            key = str(i + 1)
        else:
            # the alias when there is one (a bare alias inside a larger
            # expression is not visible to ORDER BY), else the expression
            key = alias if alias and rng.random() < 0.7 else expr
        keys.append(key + direction(rng))
    keys += [str(i + 1) + direction(rng) for i in range(len(items))]
    return " ORDER BY " + ", ".join(keys)


def render(items):
    return ", ".join(f"{e} AS {a}" if a else e for e, a in items)


def plain_statement(rng):
    items = select_list(rng, T_EXPRS, rng.randint(1, 3))
    return (
        f"SELECT {render(items)} FROM t {rng.choice(WHERES)}"
        + order_by(rng, items, T_EXPRS)
        + tail(rng)
    )


def distinct_statement(rng):
    items = select_list(rng, ["b", "c % 3", "b + 1", "ABS(b - 3)"], rng.randint(1, 2))
    return (
        f"SELECT DISTINCT {render(items)} FROM t {rng.choice(WHERES)}"
        + order_by(rng, items, [], hidden=False)
        + tail(rng, limits=(0, 1, 2, 4))
    )


def grouped_statement(rng):
    items = select_list(rng, T_AGGS, rng.randint(1, 3))
    having = rng.choice(["", "", " HAVING COUNT(*) > 7", " HAVING MIN(c) < 2"])
    return (
        f"SELECT {render(items)} FROM t {rng.choice(WHERES)} GROUP BY b{having}"
        + order_by(rng, items, T_AGGS)
        + tail(rng, limits=(0, 1, 2, 4))
    )


def union_statement(rng):
    """Ordered by position, by output name and by an expression over the
    output row (sqlite3 rejects the last; the reference model still checks
    it)."""
    op = rng.choice(["UNION", "UNION ALL"])
    keys = []
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(["1", "2", "a", "z", "a + z", "-z", "a * 2 - z"])
        keys.append(key + direction(rng))
    keys += ["1" + direction(rng), "2" + direction(rng)]
    return (
        f"SELECT a, b AS z FROM t {rng.choice(WHERES)} {op} SELECT a, d FROM u"
        f" ORDER BY {', '.join(keys)}" + tail(rng)
    )


#: Set-operation operands after the first, which names the output (a, z).
CHAIN_ARMS = ["SELECT a, d FROM u", "SELECT b, c % 3 FROM t", "SELECT a % 4, b FROM t"]


def union_chain_statement(rng):
    """Three operands, ``UNION`` and ``UNION ALL`` mixed in either order,
    the last two parenthesised or not (sqlite3 rejects the parentheses and
    the expression keys; the reference model still checks them). The arms
    repeat rows within and across each other, so every duplicate rule
    shows."""
    first = f"SELECT a, b AS z FROM t {rng.choice(WHERES)}".rstrip()
    second, third = rng.sample(CHAIN_ARMS, 2)
    ops = [rng.choice(["UNION", "UNION ALL"]) for _ in range(2)]
    if rng.random() < 0.5:
        body = f"{first} {ops[0]} {second} {ops[1]} {third}"
    else:
        body = f"{first} {ops[0]} ({second} {ops[1]} {third})"
    keys = []
    for _ in range(rng.randint(0, 2)):
        key = rng.choice(["a", "z", "a + z", "-z", "a * 2 - z", "2"])
        keys.append(key + direction(rng))
    keys += ["1" + direction(rng), "2" + direction(rng)]
    return f"{body} ORDER BY {', '.join(keys)}" + tail(rng)


def nested_statement(rng):
    """ORDER BY (+ LIMIT) inside a CTE or a FROM subquery: the inner sort
    decides *which* rows come out, the outer one their order."""
    items = select_list(rng, T_EXPRS[:5], 2)
    items = [(e, f"k{i}") for i, (e, _) in enumerate(items)]
    inner = (
        f"SELECT {render(items)} FROM t"
        + order_by(rng, items, T_EXPRS)
        + f" LIMIT {rng.choice((1, 4, 9))}"
    )
    outer = "ORDER BY " + rng.choice(["k0, k1", "k1 DESC, k0", "-k0, k1", "2, 1"])
    if rng.random() < 0.5:
        return f"WITH s AS ({inner}) SELECT * FROM s {outer}"
    return f"SELECT s.k1, s.k0 FROM ({inner}) s {outer}"


def unnest_statement(rng):
    items = rng.choice(
        [
            [("a", None), ("UNNEST(xs)", "x")],
            [("UNNEST(xs)", "x")],
            [("UNNEST(xs)", "x"), ("g", None), ("UNNEST(xs[1:2])", "y")],
        ]
    )
    keys = []
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(["x", "g", "-a", "a + g", "1"])  # selected and hidden
        keys.append(key + direction(rng))
    keys += [str(i + 1) + direction(rng) for i in range(len(items))]
    return (
        f"SELECT {render(items)} FROM v {rng.choice(['', 'WHERE g < 2'])}"
        f" ORDER BY {', '.join(keys)}" + tail(rng)
    )


SHAPES = {
    "plain": (plain_statement, 120),
    "distinct": (distinct_statement, 50),
    "grouped": (grouped_statement, 90),
    "union": (union_statement, 50),
    "union_chain": (union_chain_statement, 60),
    "nested": (nested_statement, 50),
    "unnest": (unnest_statement, 50),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_statements_agree_three_ways(dbs, shape):
    make, count = SHAPES[shape]
    rng = random.Random(f"order-by/{shape}")
    nonempty = 0
    for _ in range(count):
        nonempty += bool(check(dbs, make(rng)).rows)
    assert nonempty > count // 2  # the generator is not vacuous


def test_insert_select_takes_the_sorted_visible_columns(dbs):
    db, lite = dbs
    rng = random.Random("order-by/insert")
    for _ in range(20):
        key = rng.choice(["c", "-c", "a + b", "b * 2 - c"]) + direction(rng)
        sql = (
            f"INSERT INTO sink SELECT a, b FROM t ORDER BY {key}, 1"
            f" LIMIT {rng.choice((1, 3, 6))}"
        )
        try:
            source = run_reference(db, sql).rows
            db.execute(sql)
            lite.execute(sql)
            stored = db.execute("SELECT x, y FROM sink").rows
            assert sorted(stored) == sorted(source), sql  # no hidden column
            assert sorted(stored) == sorted(
                lite.execute("SELECT x, y FROM sink").fetchall()
            ), sql
        finally:
            db.execute("DELETE FROM sink")
            lite.execute("DELETE FROM sink")


# ---------------------------------------------------------------------------
# Hidden sort columns stay hidden
# ---------------------------------------------------------------------------
class TestHiddenColumns:
    @pytest.mark.parametrize(
        "sql, width",
        [
            ("SELECT a FROM t ORDER BY c, a", 1),
            ("SELECT a FROM t ORDER BY -c, a LIMIT 4 OFFSET 1", 1),
            ("SELECT b FROM t GROUP BY b ORDER BY MAX(c) - MIN(a), b", 1),
            ("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY SUM(c) DESC LIMIT 2", 2),
            ("SELECT UNNEST(xs) AS x FROM v ORDER BY g, a, x", 1),
            ("SELECT a FROM t UNION SELECT a FROM u ORDER BY -a", 1),
            ("WITH s AS (SELECT a FROM t ORDER BY c, a) SELECT * FROM s", 1),
            ("SELECT * FROM (SELECT a, b FROM t ORDER BY -c, a LIMIT 5) s", 2),
            (
                "SELECT * FROM (SELECT a FROM t ORDER BY c, a) s, "
                "(SELECT a FROM u ORDER BY d, a LIMIT 2) w ORDER BY 1, 2",
                2,
            ),
        ],
    )
    def test_no_hidden_column_in_any_output(self, dbs, sql, width):
        run = check(dbs, sql)
        assert len(run.columns) == width
        assert run.rows and {len(row) for row in run.rows} == {width}

    def test_bound_tree_keeps_positions_only(self, dbs):
        db, _ = dbs
        bound = analyze_sql(
            "SELECT b AS k, COUNT(*) FROM t GROUP BY b ORDER BY MIN(c), k, MIN(c) DESC",
            db.catalog,
        ).bound
        # MIN(c) is bound once, as hidden item 2; k is select item 0.
        assert bound.order_by == [(2, False), (0, False), (2, True)]
        assert [(it.name, it.hidden) for it in bound.core.items] == [
            ("k", False), ("count", False), (None, True),
        ]
        assert [name for name, _ in bound.columns] == ["k", "count"]

    def test_order_by_a_non_selected_aggregate_streams(self, dbs):
        db, _ = dbs
        sql = "SELECT b FROM t GROUP BY b ORDER BY MIN(c), b"
        root = plan_statement(parse(sql), db.catalog).statement.root
        assert isinstance(root, phys.Sort) and root.width == 1
        assert len(root.child.accs) == 1  # the hidden key is one accumulator
        assert check(dbs, sql).rows == [(3,), (4,), (1,), (2,), (0,)]

    def test_operators_exchange_rows_only(self, dbs):
        """The (row, key) pair stream and the scan fallback left no field."""
        db, _ = dbs
        seen = set()

        def visit(node):
            seen.add(type(node))
            for name in ("key_specs", "keyed", "key_fns", "pin_fns"):
                assert not hasattr(node, name), (type(node).__name__, name)
            if isinstance(node, phys.QueryPlan):
                children = [sub for _, sub in node.ctes] + [node.root]
            else:
                children = node.children()
            for child in children:
                visit(child)

        for sql in (
            "SELECT DISTINCT b FROM t ORDER BY b",
            "SELECT b, MIN(c) FROM t GROUP BY b ORDER BY MAX(a) LIMIT 2",
            "SELECT a FROM t WHERE a = 3 ORDER BY c",
            "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY -a LIMIT 3",
        ):
            visit(plan_statement(parse(sql), db.catalog).statement)
        assert {
            phys.Project, phys.Aggregate, phys.Sort, phys.TopK, phys.Distinct,
            phys.PkLookup, phys.Union,
        } <= seen


class TestDistinctOrderedOutsideTheSelectList:
    """Which duplicate's key orders the surviving row is undefined (sqlite3
    answers, PostgreSQL refuses): a typed error, before any page is read."""

    @pytest.mark.parametrize(
        "sql, caret",
        [
            ("SELECT DISTINCT b FROM t ORDER BY a DESC", "a DESC"),
            ("SELECT DISTINCT b, c FROM t ORDER BY b, c + 1", "c + 1"),
        ],
    )
    def test_rejected_with_a_span(self, dbs, sql, caret):
        db, _ = dbs
        analysis = analyze_sql(sql, db.catalog)
        (error,) = analysis.errors
        assert error.code == "SEM005" and analysis.plan is None
        assert sql[error.span.start :].startswith(caret)
        db.restart()
        before = db.disk.stats.snapshot()
        with pytest.raises(AnalyzerStructureError, match="SELECT DISTINCT"):
            db.execute(sql)
        assert db.disk.stats.delta(before).reads == 0

    def test_selected_keys_are_fine(self, dbs):
        assert check(
            dbs, "SELECT DISTINCT b, b + 1 AS n FROM t ORDER BY b + 1 DESC, 1"
        ).rows == [(4, 5), (3, 4), (2, 3), (1, 2), (0, 1)]


# ---------------------------------------------------------------------------
# A LIMIT over the fused UNNEST kernel reads the reference model's pages
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module", params=[FORMAT_ID])
def arrays_db():
    db = Database()
    db.execute(
        "CREATE TABLE w (a BIGINT, xs BIGINT[], ys BIGINT[], PRIMARY KEY (a))"
    )
    db.executemany(
        "INSERT INTO w VALUES ($1, $2, $3)",
        [(i, list(range(i, i + 40)), list(range(40))) for i in range(3000)],
    )
    yield db
    db.close()


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT UNNEST(xs) FROM w LIMIT 1",
        "SELECT UNNEST(xs) FROM w LIMIT 3",
        "SELECT UNNEST(xs), UNNEST(ys) FROM w LIMIT 1",
        "SELECT a, UNNEST(xs), UNNEST(ys) FROM w LIMIT 3",
        "SELECT a, UNNEST(xs) FROM w LIMIT 100 OFFSET 30",
    ],
)
def test_limit_over_unnest_keeps_page_parity(arrays_db, sql):
    engine = run_engine(arrays_db, sql)
    assert arrays_db.pool.total_pins() == 0
    assert engine == run_reference(arrays_db, sql)  # rows and page I/O
    assert engine.io == (1, 1)  # of 44 heap pages


@pytest.fixture(scope="module")
def streaming_db(arrays_db):
    """``arrays_db`` plus ``u`` (20,000 rows ``(a, a % 7)``) and ``k``
    (7 rows, no key)."""
    db = arrays_db
    db.execute("CREATE TABLE u (a BIGINT, b BIGINT, PRIMARY KEY (a))")
    db.executemany("INSERT INTO u VALUES ($1, $2)", [(a, a % 7) for a in range(20_000)])
    db.execute("CREATE TABLE k (d BIGINT, e TEXT)")
    db.executemany("INSERT INTO k VALUES ($1, $2)", [(d, str(d)) for d in range(7)])
    yield db
    db.execute("DROP TABLE u")
    db.execute("DROP TABLE k")


@pytest.mark.parametrize(
    "sql",
    [
        # filtered Subquery Scan, over a Project and over the UNNEST kernel
        "SELECT a FROM (SELECT a FROM w) s WHERE a > 2 LIMIT 3",
        "SELECT * FROM (SELECT a, UNNEST(xs) AS x FROM w) s WHERE x > 2 LIMIT 3",
        # Union All, Unique
        "SELECT a FROM w UNION ALL SELECT a FROM w LIMIT 3",
        "SELECT a FROM u WHERE b = 3 UNION ALL SELECT a FROM u LIMIT 5",
        "SELECT DISTINCT b FROM u LIMIT 3",
        "SELECT b FROM u UNION SELECT a FROM u LIMIT 9",
        # the left input of Index Nested Loop, Hash Join and Nested Loop
        "SELECT x.a FROM u x, u y WHERE x.a = y.a LIMIT 3",
        "SELECT u.a, k.d FROM u JOIN k ON u.b = k.d LIMIT 3",
        "SELECT u.a, k.d FROM u JOIN k ON u.b < k.d LIMIT 3",
    ],
)
def test_limit_through_streaming_operators_keeps_page_parity(streaming_db, sql):
    """A LIMIT reads the reference model's pages through every streaming
    operator: a one-to-one one forwards the row count, any other pulls its
    input a row at a time."""
    engine = run_engine(streaming_db, sql)
    assert streaming_db.pool.total_pins() == 0
    assert engine == run_reference(streaming_db, sql)  # rows and page I/O
