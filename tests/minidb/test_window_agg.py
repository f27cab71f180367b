"""``ROW_NUMBER() OVER (...)`` on the batch engine.

Every case is checked three ways: against literal expectations, against
the row-at-a-time reference model (rows, columns and page I/O — see
``tests/minidb/reference.py``), and for pins left behind.
"""

import pytest

from repro.minidb.engine import Database
from repro.minidb.sql import plan as phys
from repro.minidb.sql.npbatch import ColumnChunk
from repro.minidb.sql.parser import parse
from repro.minidb.sql.planner import plan_statement
from repro.minidb.sql.vectorized import BatchExecutor
from tests.minidb.reference import run_engine, run_reference

ROWS = [
    # id, grp, val, tags
    (1, 1, 10, [1, 2]),
    (2, 1, 10, [1, 2]),
    (3, 1, 30, [3]),
    (4, 2, 5, [1, 2]),
    (5, None, 7, None),
    (6, None, 7, [3]),
    (7, 2, 5, None),
]


def make_db(rows=ROWS) -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE w (id BIGINT, grp BIGINT, val BIGINT, tags BIGINT[], "
        "PRIMARY KEY (id))"
    )
    db.executemany("INSERT INTO w VALUES ($1, $2, $3, $4)", rows)
    return db


def check(db, sql, expected, params=()):
    run = run_engine(db, sql, params)
    assert run == run_reference(db, sql, params)
    assert run.rows == expected
    assert db.pool.total_pins() == 0
    return run


@pytest.fixture()
def db():
    return make_db()


class TestSemantics:
    def test_two_specs_in_one_select(self, db):
        check(
            db,
            "SELECT id, "
            "ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC, id) AS a, "
            "ROW_NUMBER() OVER (ORDER BY id DESC) AS b FROM w",
            [
                (1, 2, 7), (2, 3, 6), (3, 1, 5), (4, 1, 4),
                (5, 1, 3), (6, 2, 2), (7, 2, 1),
            ],
        )

    def test_null_partition_key_is_one_partition(self, db):
        check(
            db,
            "SELECT id, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY id) "
            "FROM w WHERE id >= 4",
            [(4, 1), (5, 1), (6, 2), (7, 2)],
        )

    def test_array_valued_partition_key(self, db):
        check(
            db,
            "SELECT id, ROW_NUMBER() OVER (PARTITION BY tags ORDER BY id DESC) "
            "FROM w",
            [(1, 3), (2, 2), (3, 2), (4, 1), (5, 2), (6, 1), (7, 1)],
        )

    def test_desc_ties_broken_by_second_key(self, db):
        check(
            db,
            "SELECT id, ROW_NUMBER() OVER (ORDER BY val DESC, id DESC) FROM w",
            [(1, 3), (2, 2), (3, 1), (4, 7), (5, 5), (6, 4), (7, 6)],
        )

    def test_ties_without_tiebreak_keep_input_order(self, db):
        # The sort is stable: equal keys number in scan (primary-key) order.
        check(
            db,
            "SELECT id, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val) "
            "FROM w WHERE grp = 1",
            [(1, 1), (2, 2), (3, 3)],
        )

    def test_empty_input(self, db):
        check(
            db,
            "SELECT id, ROW_NUMBER() OVER (ORDER BY id) FROM w WHERE id > $1",
            [],
            (100,),
        )

    def test_numbers_are_filterable_above_the_window(self, db):
        check(
            db,
            "SELECT r.id FROM (SELECT id, ROW_NUMBER() OVER "
            "(PARTITION BY grp ORDER BY val DESC, id) AS rn FROM w) r "
            "WHERE r.rn = 1 ORDER BY r.id",
            [(3,), (4,), (5,)],
        )


class TestChunking:
    SQL = "SELECT id, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY id DESC) FROM w"
    EXPECTED = [(1, 3), (2, 2), (3, 1), (4, 2), (5, 2), (6, 1), (7, 1)]

    def test_batch_size_one(self):
        db = make_db()
        db.batch_size = 1
        check(db, self.SQL, self.EXPECTED)
        window = db.last_trace.find("WindowAgg")[0]
        assert (window.rows, window.pulls) == (7, 7)

    def test_input_larger_than_batch_is_rechunked_in_order(self):
        db = make_db()
        db.batch_size = 3
        check(db, self.SQL, self.EXPECTED)
        window = db.last_trace.find("WindowAgg")[0]
        assert (window.rows, window.pulls) == (7, 3)  # 3 + 3 + 1

    def test_column_chunk_child_reaches_the_window(self, monkeypatch):
        db = Database()
        db.batch_size = 16
        db.execute("CREATE TABLE lab (v BIGINT, hubs BIGINT[], PRIMARY KEY (v))")
        # Long enough to decode as ndarrays (values.NP_DECODE_MIN).
        hubs = {1: list(range(0, 80, 2)), 2: list(range(5, 50))}
        db.executemany("INSERT INTO lab VALUES ($1, $2)", list(hubs.items()))
        sql = (
            "SELECT s.v, s.h, ROW_NUMBER() OVER (PARTITION BY s.v "
            "ORDER BY s.h DESC) FROM (SELECT v, UNNEST(hubs) AS h FROM lab) s"
        )
        # Project > WindowAgg > Subquery Scan > Project > ProjectSet > Seq Scan
        window = plan_statement(parse(sql), db.catalog).statement.root.child
        assert isinstance(window, phys.Window)
        assert isinstance(window.child, phys.SubqueryScan)
        # What the Window pulls from its child, batch by batch.
        emit = BatchExecutor._EMIT[phys.SubqueryScan]
        pulled = []

        def recording(self, node, env, hint):
            for chunk in emit(self, node, env, hint):
                pulled.append(type(chunk))
                yield chunk

        monkeypatch.setitem(BatchExecutor._EMIT, phys.SubqueryScan, recording)
        expected = [
            (v, h, len(arr) - i) for v, arr in hubs.items() for i, h in enumerate(arr)
        ]
        check(db, sql, expected)
        assert ColumnChunk in pulled


class TestTrace:
    def test_explain_analyze_shows_batch_clause(self, db):
        lines = [
            line
            for (line,) in db.execute(
                "EXPLAIN ANALYZE SELECT id, ROW_NUMBER() OVER (ORDER BY id) FROM w"
            ).rows
        ]
        window = [line for line in lines if "WindowAgg" in line]
        assert window and "(batch: pulls=1 rows/pull=7.0)" in window[0]
        assert db.pool.total_pins() == 0

    def test_trace_validates(self, db):
        db.restart()
        trace = db.execute(
            "SELECT id, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY id) FROM w"
        ).trace
        assert trace.validate() == []
        window = trace.find("WindowAgg")[0]
        assert window.children and window.children[0].name == "Seq Scan"
        assert window.self_page_reads == 0  # blocking, but does no I/O itself
