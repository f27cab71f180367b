"""Array cells read as lists everywhere but UNNEST.

A ``BIGINT[]`` delta segment of ``NP_DECODE_MIN`` or more elements decodes
to an int64 ndarray (``values.decode_record``); shorter and NULL-bearing
cells decode to lists. Only UNNEST's column getters read a cell as decoded.
Every other consumer — a compiled column reference, a projection, a stored
row — sees the list, so no ndarray can reach a comparison, a hash, a sort
key, a result row or the record codec. This suite drives a table whose
cells sit on both sides of the crossover through each of those consumers:
every answer must equal the reference model's (which reads list cells),
rows and page I/O, and after each write the table must hold the same
records and ``data_bytes`` as a twin that was written directly.
"""

import numpy as np
import pytest

from repro.minidb.engine import Database
from repro.minidb.values import NP_DECODE_MIN
from tests.minidb.reference import run_engine, run_reference

LENGTHS = (NP_DECODE_MIN - 1, NP_DECODE_MIN, NP_DECODE_MIN + 1, 700)
DDL = "CREATE TABLE {} (k BIGINT, g BIGINT, xs BIGINT[], ys BIGINT[], PRIMARY KEY (k))"
INSERT = "INSERT INTO {} VALUES ($1, $2, $3, $4)"


def _rows():
    """Per length, a NULL-free row (a delta segment: an ndarray from
    ``NP_DECODE_MIN`` on) and a NULL-bearing one (always a list); then a
    NULL cell and a copy of the longest ``xs`` for the grouping consumers."""
    rows = []
    for i, n in enumerate(LENGTHS):
        xs = [1000 * i + 3 * j for j in range(n)]
        holed = [x + 1 for x in xs]  # sorts after xs on its first element
        holed[n // 2] = None
        rows.append((i, i % 2, xs, xs[::-1]))
        rows.append((10 + i, i % 2, holed, xs))
    rows.append((20, 0, None, [7]))
    rows.append((21, 1, rows[6][2], None))
    return rows


ROWS = _rows()
BY_KEY = {row[0]: row for row in ROWS}
LONG = BY_KEY[3][2]


def make_db():
    db = Database()
    db.execute(DDL.format("c"))
    db.executemany(INSERT.format("c"), ROWS)
    return db


@pytest.fixture
def db():
    return make_db()


def agree(db, sql, params=()):
    """The engine's answer, checked against the reference model's (rows
    and page I/O) and free of ndarray cells."""
    engine = run_engine(db, sql, params)
    assert engine == run_reference(db, sql, params)
    assert not any(
        isinstance(cell, np.ndarray) for row in engine.rows for cell in row
    )
    assert db.pool.total_pins() == 0
    return engine.rows


def assert_twin(db, name, rows):
    """Table *name* holds *rows*: the same records (heap order aside) and
    ``data_bytes`` as a fresh table they are inserted into directly."""
    db.execute(DDL.format("twin"))
    db.executemany(INSERT.format("twin"), rows)
    table, twin = db.catalog.get(name), db.catalog.get("twin")
    records = sorted(bytes(raw) for _, raw in table.heap.scan())
    assert records == sorted(bytes(raw) for _, raw in twin.heap.scan())
    assert (table.data_bytes, table.row_count) == (twin.data_bytes, twin.row_count)
    db.execute("DROP TABLE twin")


def test_the_cells_straddle_the_crossover():
    lengths = [len(row[2]) for row in ROWS if row[2] is not None]
    assert min(lengths) < NP_DECODE_MIN <= max(lengths)
    assert any(None in row[2] for row in ROWS if row[2] is not None)


class TestReads:
    def test_select_star(self, db):
        assert agree(db, "SELECT * FROM c") == ROWS

    def test_point_lookup_and_index_nested_loop(self, db):
        assert agree(db, "SELECT xs, ys FROM c WHERE k = 3") == [BY_KEY[3][2:]]
        sql = "SELECT w.k, c.xs FROM (SELECT k FROM c WHERE k < 4) w, c WHERE c.k = w.k"
        assert agree(db, sql) == [(k, BY_KEY[k][2]) for k in range(4)]

    def test_equality(self, db):
        assert agree(db, "SELECT k FROM c WHERE xs = $1", (LONG,)) == [(3,), (21,)]
        unequal = agree(db, "SELECT k FROM c WHERE xs <> $1", (LONG,))
        assert unequal == [(r[0],) for r in ROWS if r[2] not in (None, LONG)]

    def test_in_list(self, db):
        sql = "SELECT k FROM c WHERE xs IN ($1, $2)"
        assert agree(db, sql, (LONG, BY_KEY[1][2])) == [(1,), (3,), (21,)]

    def test_case(self, db):
        sql = "SELECT k, CASE WHEN g = 0 THEN xs ELSE ys END FROM c"
        assert agree(db, sql) == [(r[0], r[2] if r[1] == 0 else r[3]) for r in ROWS]

    def test_cardinality_and_array_length(self, db):
        sql = "SELECT k, CARDINALITY(xs), ARRAY_LENGTH(ys, 1) FROM c"
        assert agree(db, sql) == [
            (k, None if xs is None else len(xs), None if ys is None else len(ys))
            for k, _, xs, ys in ROWS
        ]

    def test_slices_and_indexes(self, db):
        sql = "SELECT k, xs[2:5], xs[31:33], ys[$1], xs[700] FROM c"
        got = agree(db, sql, (NP_DECODE_MIN,))
        assert got == [
            (
                k,
                None if xs is None else xs[1:5],
                None if xs is None else xs[30:33],
                None if ys is None or len(ys) < NP_DECODE_MIN else ys[NP_DECODE_MIN - 1],
                None if xs is None or len(xs) < 700 else xs[699],
            )
            for k, _, xs, ys in ROWS
        ]


class TestGroupingAndOrder:
    def test_group_by_the_array(self, db):
        sql = "SELECT xs, COUNT(*), MIN(k) FROM c GROUP BY xs"
        got = agree(db, sql)
        assert (LONG, 2, 3) in got and len(got) == len(ROWS) - 1

    def test_aggregate_over_arrays(self, db):
        sql = "SELECT g, MAX(xs) FROM c GROUP BY g"
        assert agree(db, sql) == [(0, BY_KEY[12][2]), (1, BY_KEY[13][2])]

    def test_distinct(self, db):
        got = agree(db, "SELECT DISTINCT xs FROM c")
        assert len(got) == len(ROWS) - 1 and (LONG,) in got

    def test_union(self, db):
        sql = "SELECT xs FROM c WHERE k < 3 UNION SELECT xs FROM c WHERE k >= 2"
        assert len(agree(db, sql)) == len(ROWS) - 1

    def test_order_by_the_array(self, db):
        got = agree(db, "SELECT k FROM c ORDER BY xs DESC, k")
        assert got[:3] == [(13,), (3,), (21,)] and got[-1] == (20,)

    def test_window_passthrough(self, db):
        sql = "SELECT k, xs, ROW_NUMBER() OVER (PARTITION BY g ORDER BY k) FROM c"
        assert sorted(agree(db, sql))[3] == (3, LONG, 2)


class TestDerivedRelations:
    def test_cte_passthrough(self, db):
        sql = "WITH w AS (SELECT k, xs FROM c) SELECT xs FROM w WHERE k = 3"
        assert agree(db, sql) == [(LONG,)]

    def test_subquery_passthrough(self, db):
        sql = "SELECT s.ys FROM (SELECT ys, k FROM c) s WHERE s.k > 1 AND s.k < 4"
        assert agree(db, sql) == [(BY_KEY[2][3],), (BY_KEY[3][3],)]

    def test_join_residual(self, db):
        sql = (
            "SELECT a.k, b.k FROM c a, c b "
            "WHERE a.g = b.g AND a.xs = b.xs AND a.k < b.k"
        )
        assert agree(db, sql) == [(3, 21)]


class TestWrites:
    def test_insert_select(self, db):
        db.execute(DDL.format("d"))
        assert db.execute("INSERT INTO d SELECT * FROM c").scalar() == len(ROWS)
        assert agree(db, "SELECT * FROM d") == ROWS
        assert_twin(db, "d", ROWS)

    def test_update_of_another_column(self, db):
        assert db.execute("UPDATE c SET g = g + 10 WHERE k > 0").scalar() == len(ROWS) - 1
        want = [(k, g + 10 if k > 0 else g, xs, ys) for k, g, xs, ys in ROWS]
        assert sorted(agree(db, "SELECT * FROM c"), key=repr) == sorted(want, key=repr)
        assert_twin(db, "c", want)

    def test_delete(self, db):
        assert db.execute("DELETE FROM c WHERE k IN (2, 3, 12)").scalar() == 3
        want = [row for row in ROWS if row[0] not in (2, 3, 12)]
        assert agree(db, "SELECT * FROM c") == want
        assert_twin(db, "c", want)

    def test_vacuum_after_update_and_delete(self, db):
        db.execute("UPDATE c SET g = 5 WHERE k = 1")
        db.execute("DELETE FROM c WHERE k = 13")
        assert db.execute("VACUUM c").scalar() == len(ROWS) - 1
        want = [
            (k, 5 if k == 1 else g, xs, ys) for k, g, xs, ys in ROWS if k != 13
        ]
        assert sorted(agree(db, "SELECT * FROM c"), key=repr) == sorted(want, key=repr)
        assert_twin(db, "c", want)
