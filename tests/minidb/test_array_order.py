"""Arrays order as in PostgreSQL, NULL elements included.

Element by element; a NULL element after every non-NULL element; an array
that is a prefix of another before it. Every place that orders values —
Sort, Top-K, window ORDER BY, ordered aggregates, MIN/MAX, LEAST/GREATEST
and ``< <= > >=`` — follows that rule. The reference model shares the
ordering helpers with the engine, so the expected rows here are written
out by hand.
"""

import pytest

from repro.minidb.engine import Database

#: In PostgreSQL's ascending order: a, then NULLS LAST.
ROWS = [
    (0, [1, 2]),
    (1, [1, None]),
    (2, [1]),
    (3, None),
    (4, [None]),
    (5, [0, None]),
    (6, [1, 2, 3]),
]
ASC = [5, 2, 0, 6, 1, 4, 3]
DESC = [4, 1, 6, 0, 2, 5, 3]  # NULLS LAST in both directions


@pytest.fixture(scope="module", params=[1024, 2])
def db(request):
    db = Database()
    db.execute("CREATE TABLE t (a BIGINT, xs BIGINT[], PRIMARY KEY (a))")
    db.executemany("INSERT INTO t VALUES ($1, $2)", ROWS)
    db.batch_size = request.param  # 2: the NULL elements meet mid-stream
    yield db
    db.close()


def column(db, sql):
    return [row[0] for row in db.execute(sql).rows]


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT a FROM t ORDER BY xs", ASC),
        ("SELECT a FROM t ORDER BY xs DESC", DESC),
        ("SELECT a FROM t ORDER BY xs LIMIT 3", ASC[:3]),
        ("SELECT a FROM t ORDER BY xs DESC LIMIT 2 OFFSET 1", DESC[1:3]),
        ("SELECT a FROM t ORDER BY xs, a LIMIT 7", ASC),
        ("SELECT ARRAY_AGG(a ORDER BY xs) FROM t", [ASC]),
        ("SELECT ARRAY_AGG(a ORDER BY xs DESC) FROM t", [DESC]),
        ("SELECT MIN(xs) FROM t", [[0, None]]),
        ("SELECT MAX(xs) FROM t", [[None]]),
        ("SELECT MAX(xs) FROM t WHERE a <> 4", [[1, None]]),
    ],
)
def test_ordering(db, sql, expected):
    assert column(db, sql) == expected


def test_window_order(db):
    rows = db.execute(
        "SELECT a, ROW_NUMBER() OVER (ORDER BY xs DESC) FROM t"
    ).rows
    assert sorted(rows, key=lambda r: r[1]) == [(a, i) for i, a in enumerate(DESC, 1)]


@pytest.mark.parametrize(
    "op, expected",
    [
        ("<", [True, False, True, None, False, True, True]),
        ("<=", [True, False, True, None, False, True, True]),
        (">", [False, True, False, None, True, False, False]),
        (">=", [False, True, False, None, True, False, False]),
    ],
)
def test_comparisons(db, op, expected):
    assert column(db, f"SELECT xs {op} ARRAY[1,3] FROM t ORDER BY a") == expected


def test_comparisons_at_a_null_element(db):
    assert db.execute(
        "SELECT xs < ARRAY[1,NULL], xs = ARRAY[1,NULL], xs >= ARRAY[1,NULL] "
        "FROM t WHERE a = 1"
    ).rows == [(False, True, True)]
    assert column(db, "SELECT a FROM t WHERE xs > ARRAY[1,2,3] ORDER BY a") == [1, 4]


def test_least_and_greatest(db):
    assert column(db, "SELECT GREATEST(xs, ARRAY[1,5]) FROM t ORDER BY a") == [
        [1, 5], [1, None], [1, 5], [1, 5], [None], [1, 5], [1, 5],
    ]
    assert column(db, "SELECT LEAST(xs, ARRAY[1,5]) FROM t ORDER BY a") == [
        [1, 2], [1, 5], [1], [1, 5], [1, 5], [0, None], [1, 2, 3],
    ]
