"""The index nested-loop join and the multi-key read under it.

A left chunk's distinct probe keys go to the index together, in key order
(``Table.lookup_many``); rows, their order and the cold page I/O must be
those of the reference model, which probes once per outer row. The point
lookup (``WHERE pk = $1``) probes by the same key rule.
"""

import random

import pytest

from repro.errors import CatalogError, StorageError
from repro.minidb.engine import Database
from tests.minidb.reference import (
    FORMAT_ID,
    assert_decoded,
    run_engine,
    run_reference,
)


def pair(sql):
    """*sql* over the keyed table ``t`` and over its PK-less twin ``u``."""
    return sql, sql.replace("t.", "u.").replace("FROM t,", "FROM u,")


@pytest.fixture()
def db():
    """``t`` (keyed: the join probes it) and ``u`` (same DDL and rows minus
    the PRIMARY KEY clause: the join hashes it) beside an outer table whose
    ``x`` holds integral, fractional and NULL doubles."""
    db = Database(device="hdd")
    db.execute("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))")
    db.execute("CREATE TABLE u (a BIGINT, b BIGINT)")
    db.execute("CREATE TABLE s (id BIGINT, x DOUBLE)")
    rows = [(i, 10 * i) for i in range(2000)]
    db.executemany("INSERT INTO t VALUES ($1, $2)", rows)
    db.executemany("INSERT INTO u VALUES ($1, $2)", rows)
    db.executemany(
        "INSERT INTO s VALUES ($1, $2)",
        [(1, 2.0), (2, 3.5), (3, None), (4, 1999.0), (5, -0.0), (6, 1e30)],
    )
    return db


class TestIntegralDoubleKey:
    """A DOUBLE probe key equal to an integer matches that BIGINT key."""

    JOIN = "SELECT t.a, t.b, s.x FROM t, (SELECT x FROM s {where}) s WHERE t.a = s.x"

    def plans(self, db, sql):
        return "\n".join(r[0] for r in db.execute("EXPLAIN " + sql))

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("WHERE id = 1", [(2, 20, 2.0)]),
            ("WHERE id = 2", []),  # 3.5 equals no BIGINT
            ("WHERE id = 3", []),  # NULL equals nothing
            ("", [(2, 20, 2.0), (1999, 19990, 1999.0), (0, 0, -0.0)]),
        ],
    )
    def test_engine_reference_and_hash_join_agree(self, db, where, expected):
        keyed, twin = pair(self.JOIN.format(where=where))
        assert "Index Nested Loop probe t by primary key (a)" in self.plans(db, keyed)
        assert "Hash Join" in self.plans(db, twin)
        engine = run_engine(db, keyed)
        assert engine.rows == expected
        assert engine == run_reference(db, keyed)
        assert db.execute(twin).rows == expected


class TestBatchedProbes:
    def outer(self, db, keys):
        db.execute("CREATE TABLE o (pos BIGINT, k BIGINT)")
        db.executemany("INSERT INTO o VALUES ($1, $2)", list(enumerate(keys)))

    JOIN = "SELECT o.pos, t.a, t.b FROM t, (SELECT pos, k FROM o) o WHERE t.a = o.k"

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_rows_order_and_cold_io_are_the_per_row_model(self, db, batch_size):
        # Unsorted keys with repeats inside and across chunks, misses below,
        # between (none: keys are dense) and beyond the stored range.
        rng = random.Random(5)
        keys = [rng.randrange(-50, 2100) for _ in range(300)]
        keys += keys[:40] + [None, 5, 5, 5]
        self.outer(db, keys)
        db.batch_size = batch_size
        keyed, twin = pair(self.JOIN)
        engine = run_engine(db, keyed)
        assert engine == run_reference(db, keyed)
        assert [pos for pos, _, _ in engine.rows] == [
            pos for pos, k in enumerate(keys) if k is not None and 0 <= k < 2000
        ]
        assert engine.rows == db.execute(twin).rows
        assert db.pool.total_pins() == 0

    def test_trace_counts_probes_and_leaf_visits(self, db):
        keys = [7, 8, 9, 7, 8, 9, 1500, 5000]
        self.outer(db, keys)
        trace = db.execute(self.JOIN).trace
        (inl,) = trace.find("Index Nested Loop")
        assert (inl.loops, inl.probes, inl.rows) == (8, 5, 7)
        # 7, 8, 9 share a leaf; 1500 and the miss beyond the last leaf
        # (which lands on the last leaf) cost at most one descent each.
        assert 2 <= inl.leaf_visits <= 3
        assert trace.validate() == []
        (line,) = [
            r[0]
            for r in db.execute("EXPLAIN ANALYZE " + self.JOIN)
            if "Index Nested Loop" in r[0]
        ]
        assert f"loops=8 probes=5 leaf_visits={inl.leaf_visits} time=" in line
        assert all(
            op.probes is None and op.leaf_visits is None
            for op in trace.operators()
            if op is not inl
        )

    def test_validate_flags_probe_counts_out_of_order(self, db):
        self.outer(db, [1, 2, 3])
        trace = db.execute(self.JOIN).trace
        (inl,) = trace.find("Index Nested Loop")
        inl.probes = inl.loops + 1
        assert any("probes=4 <= loops=3" in p for p in trace.validate())


class TestPointLookupProbeKey:
    """``WHERE pk = $n`` probes by the join's rule and never scans: an
    integral DOUBLE is that integer; a value that equals no BIGINT key
    returns no row without reading a page."""

    CASES = [(5, [(50,)]), (5.0, [(50,)]), (5.5, []), (None, []), ("x", [])]

    @pytest.mark.parametrize("key, expected", CASES)
    def test_single_column_key(self, db, key, expected):
        sql = "SELECT b FROM t WHERE a = $1"
        engine = run_engine(db, sql, (key,))
        assert engine == run_reference(db, sql, (key,))
        assert engine.rows == expected
        # root, leaf and heap page for a key that can exist, else nothing
        assert engine.io == ((3, 3) if expected else (0, 0))
        assert [op.name for op in db.last_trace.operators()] == [
            "Project", "Index Scan"
        ]
        assert db.pool.total_pins() == 0

    @pytest.mark.parametrize(
        "params, expected",
        [
            ((5, 5), [(50,)]),
            ((5.0, 5.0), [(50,)]),
            ((5, 5.5), []),
            ((None, 5), []),
            ((5, "x"), []),
        ],
    )
    def test_two_column_key(self, db, params, expected):
        db.execute("CREATE TABLE g (h BIGINT, a BIGINT, b BIGINT, PRIMARY KEY (h, a))")
        db.executemany(
            "INSERT INTO g VALUES ($1, $2, $3)",
            [(i % 7, i, 10 * i) for i in range(2000)],
        )
        sql = "SELECT b FROM g WHERE h = $1 AND a = $2"
        engine = run_engine(db, sql, params)
        assert engine == run_reference(db, sql, params)
        assert engine.rows == expected
        assert (engine.io == (0, 0)) == (not expected)
        assert not db.last_trace.find("Seq Scan")


class TestLookupMany:
    @pytest.mark.parametrize("storage", [FORMAT_ID])
    def test_is_lookup_per_key(self, storage):
        db = Database()
        db.execute(
            "CREATE TABLE g (hub BIGINT, h BIGINT, vs BIGINT[], "
            "PRIMARY KEY (hub, h))"
        )
        rows = [
            (hub, h, list(range(hub * h % 9 * (600 if h == 3 else 1))))
            for hub in range(60)
            for h in range(5)
        ]
        db.executemany("INSERT INTO g VALUES ($1, $2, $3)", rows)
        table = db.catalog.get("g")
        keys = sorted(
            [(hub, h) for hub in range(-1, 62, 2) for h in (0, 3, 7)] + [(4, 3)] * 2
        )
        stored = {row[:2]: row for row in rows}
        got, descents = table.lookup_many(keys)
        for key, row in zip(keys, got):
            one = table.lookup(key)
            assert (row is None) == (one is None) == (key not in stored)
            if row is not None:
                assert_decoded(table.schema.types, row, stored[key])
                assert_decoded(table.schema.types, one, stored[key])
        assert 0 < descents <= len(keys)
        assert table.lookup_many([]) == ([], 0)
        assert db.pool.total_pins() == 0

    def test_needs_an_index_and_ascending_keys(self):
        db = Database()
        db.execute("CREATE TABLE k (a BIGINT, PRIMARY KEY (a))")
        db.execute("CREATE TABLE n (a BIGINT)")
        with pytest.raises(CatalogError, match="no primary key"):
            db.catalog.get("n").lookup_many([(1,)])
        with pytest.raises(StorageError, match="ascending"):
            db.catalog.get("k").lookup_many([(2,), (1,)])
