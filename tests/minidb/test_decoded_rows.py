"""Decoded rows on the buffer frame: coherent, private and free of page I/O.

``Table.lookup``/``lookup_many`` keep each decoded row on its heap page's
frame (``HeapFile.read_rows``). The model test runs random statement
streams — writes, a failing statement, VACUUM, DROP/CREATE, restart,
checkpoint, crash + reopen — against an engine and a twin whose frames
forget their rows before every step, so the twin always decodes. Every row
a lookup returns must equal ``decode_record(types, heap.read(rid))`` and
the model's row, and every read statement must cost what the twin's did.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, StorageError
from repro.minidb.buffer import BufferPool
from repro.minidb.disk import DiskManager
from repro.minidb.engine import Database
from repro.minidb.heap import HeapFile
from repro.minidb.values import decode_record
from tests.minidb.reference import assert_decoded

DDL = "CREATE TABLE t (k BIGINT, xs BIGINT[], ys BIGINT[], s TEXT, PRIMARY KEY (k))"
INSERT = "INSERT INTO t VALUES ($1, $2, $3, $4)"
POINT = "SELECT k, xs, ys, s FROM t WHERE k = $1"
COPY = "INSERT INTO t SELECT $1, xs, ys, s FROM t WHERE k = $2"
JOIN = "SELECT o.pos, t.k, t.xs, t.ys FROM t, (SELECT pos, q FROM o) o WHERE t.k = o.q"

KEYS = st.integers(0, 11)
#: (length, seed, with a NULL element): 1,200 random int64s overflow a
#: heap page into a chain; 40 decode to an ndarray; 3 to a list.
ARRAY = st.tuples(st.sampled_from([0, 3, 40, 1200]), st.integers(0, 99), st.booleans())
STEP = st.one_of(
    st.tuples(st.just("insert"), KEYS, ARRAY, ARRAY),
    st.tuples(st.just("update"), KEYS, ARRAY),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("fail"), KEYS, ARRAY),
    st.tuples(st.just("copy"), KEYS),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("many"), st.lists(KEYS, max_size=8)),
    st.sampled_from(
        [("vacuum",), ("recreate",), ("restart",), ("checkpoint",), ("crash",)]
    ),
)


def array(spec):
    length, seed, null = spec
    rng = random.Random(seed * 7 + length)
    out = [rng.randrange(-(2**63), 2**63) for _ in range(length)]
    if null and out:
        out[rng.randrange(length)] = None
    return out


def plain(row):
    return tuple(c.tolist() if isinstance(c, np.ndarray) else c for c in row)


def forget_decoded_rows(db):
    """The twin's frames drop their rows: its next read decodes again."""
    for frame in db.pool._frames.values():
        frame.rows = None


class Side:
    """One file-backed database of the pair and what its reads cost."""

    def __init__(self, path, pool_pages, forget):
        self.path, self.pool_pages, self.forget = path, pool_pages, forget
        self.db = Database(path=path, device="hdd", pool_pages=pool_pages)
        self.db.execute(DDL)
        self.db.execute("CREATE TABLE o (pos BIGINT, q BIGINT)")
        self.costs = []

    def call(self, fn, *args):
        if self.forget:
            forget_decoded_rows(self.db)
        return fn(*args)

    def read(self, sql, params=()):
        """*sql* twice in a row; the rows, and both runs' ``last_cost``."""
        for _ in range(2):
            rows = self.call(self.db.execute, sql, params).rows
            self.costs.append((sql, params, self.db.last_cost))
        return rows

    def lookups(self, keys, model):
        """``lookup`` and ``lookup_many`` of *keys*, each row checked
        against the heap's record and the model."""
        table = self.db.catalog.get("t")
        types = table.schema.types
        ordered = sorted(set(keys))
        got = self.call(table.lookup_many, [(k,) for k in ordered])[0]
        got += [self.call(table.lookup, (k,)) for k in ordered]
        for k, row in zip(ordered * 2, got):
            rid = table.index.search((k,))
            if rid is None:
                assert row is None and k not in model
                continue
            stored = decode_record(types, table.heap.read(rid))
            assert_decoded(types, row, list(plain(stored)))
            assert plain(row) == model[k]

    def step(self, op, model):
        db = self.db
        if self.forget:
            forget_decoded_rows(db)
        kind = op[0]
        if kind == "insert":
            _, k, xs, ys = op
            if k not in model:
                db.execute(INSERT, (k, array(xs), array(ys), f"s{k}"))
        elif kind == "update":
            db.execute("UPDATE t SET xs = $2 WHERE k = $1", (op[1], array(op[2])))
        elif kind == "delete":
            db.execute("DELETE FROM t WHERE k = $1", (op[1],))
        elif kind == "fail":
            # The second row repeats the first row's key, so the batch
            # fails; with a new key the first row reached a heap page and
            # the rollback restores it.
            row = (op[1], array(op[2]), [], "dup")
            with pytest.raises(CatalogError, match="duplicate primary key"):
                db.executemany(INSERT, [row, row])
        elif kind == "copy" and op[1] in model:
            # One statement copies row k to 20, reads 20 back (a row of a
            # page this statement wrote) to copy it to 21, then fails on a
            # duplicate: the rollback reopens the slots it had used.
            steps = [(20, op[1]), (21, 20), (21, 20)]
            with pytest.raises(CatalogError, match="duplicate primary key"):
                db.executemany(COPY, steps)
        elif kind == "get":
            rows = self.read(POINT, (op[1],))
            self.lookups([op[1]], model)
            return rows
        elif kind == "many":
            db.execute("DELETE FROM o")
            db.executemany("INSERT INTO o VALUES ($1, $2)", list(enumerate(op[1])))
            rows = self.read(JOIN)
            self.lookups(op[1], model)
            return rows
        elif kind == "vacuum":
            db.execute("VACUUM t")
        elif kind == "recreate":
            db.execute("DROP TABLE t")
            db.execute(DDL)
        elif kind == "restart":
            db.restart()
            assert db.pool.row_stats().hits == db.pool.row_stats().misses == 0
        elif kind == "checkpoint":
            db.checkpoint()
        elif kind == "crash":
            db.simulate_crash()
            self.db = Database.open(
                self.path, device="hdd", pool_pages=self.pool_pages
            )
        return None


def advance(model, op):
    """The model's rows after *op* (every statement but "fail" commits)."""
    kind = op[0]
    if kind == "insert" and op[1] not in model:
        model[op[1]] = (op[1], array(op[2]), array(op[3]), f"s{op[1]}")
    elif kind == "update" and op[1] in model:
        k, _, ys, s = model[op[1]]
        model[k] = (k, array(op[2]), ys, s)
    elif kind == "delete":
        model.pop(op[1], None)
    elif kind == "recreate":
        model.clear()


def run_stream(tmp_path_factory, pool_pages, stream):
    base = tmp_path_factory.mktemp("decoded")
    engine = Side(str(base / "engine.minidb"), pool_pages, forget=False)
    twin = Side(str(base / "twin.minidb"), pool_pages, forget=True)
    model = {}
    try:
        for op in stream:
            rows = engine.step(op, model)
            assert rows == twin.step(op, model)
            advance(model, op)
        # Every read statement, first run and repeat, cost what it cost
        # the twin: a row found on its frame reads the pages its decode
        # would have read.
        assert engine.costs == twin.costs
        return engine.db.pool.row_stats(), engine.costs
    finally:
        engine.db.close()
        twin.db.close()


WRITE_READ_CYCLE = [
    ("insert", 1, (1200, 1, False), (40, 2, False)),
    ("insert", 2, (3, 3, False), (40, 4, True)),
    ("get", 1),
    ("many", [1, 2, 5]),
    ("update", 1, (40, 5, False)),
    ("get", 1),
    ("fail", 2, (1200, 6, False)),
    ("copy", 1),
    ("insert", 3, (3, 7, False), (0, 0, False)),
    ("many", [1, 2, 3]),
    ("many", [2, 1]),
    ("vacuum",),
    ("get", 2),
    ("checkpoint",),
    ("crash",),
    ("many", [1, 2]),
    ("restart",),
    ("get", 1),
    ("recreate",),
    ("get", 1),
]


class TestCoherence:
    @pytest.mark.parametrize("pool_pages", [4, 4096])
    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(STEP, max_size=24))
    @example(stream=WRITE_READ_CYCLE)
    def test_rows_and_costs_match_a_twin_that_always_decodes(
        self, tmp_path_factory, pool_pages, stream
    ):
        run_stream(tmp_path_factory, pool_pages, stream)

    def test_a_repeated_lookup_is_a_hit_with_the_same_cost(self, tmp_path_factory):
        stats, costs = run_stream(
            tmp_path_factory, 4096, WRITE_READ_CYCLE[:2] + [("get", 1)] * 3
        )
        assert stats.hits > stats.misses > 0
        first = costs[0][2]
        assert first.pool_hits > 0
        assert [cost for _, _, cost in costs] == [first] * 6


class TestFrameLifetime:
    """Each point where a frame's content changes or goes drops its rows.
    Heap slots are append-only, so only a test that rewrites a cell in
    place, or a rollback that hands a slot number out again, can tell."""

    @pytest.fixture()
    def heap(self):
        return HeapFile(BufferPool(DiskManager(), capacity=3))

    def test_a_marked_write_drops_the_rows(self, heap):
        rid = heap.insert(b"abc")
        assert heap.read_rows([rid], bytes.upper) == [b"ABC"]
        pool, page_id = heap.pool, rid[0]
        with pool.writing(page_id) as page:
            page.view(rid[1])[1:] = b"xyz"
        assert heap.read_rows([rid], bytes.upper) == [b"XYZ"]

    def test_a_restored_page_drops_the_rows(self, heap):
        pool, first = heap.pool, heap.insert(b"one")
        pool.begin()
        rid = heap.insert(b"two")
        assert rid[0] == first[0]
        assert heap.read_rows([rid], bytes.upper) == [b"TWO"]
        pool.rollback()  # the page is back at its undo image
        with pytest.raises(StorageError):  # the slot is gone again
            heap.read_rows([rid], bytes.upper)

    def test_eviction_and_clear_drop_the_rows(self, heap):
        pool, rid = heap.pool, heap.insert(b"abc")
        heap.read_rows([rid], bytes.upper)
        for _ in range(3):  # a 3-page pool: the heap page is evicted
            pool.unpin(pool.new_page(0)[0])
        heap.read_rows([rid], bytes.upper)
        heap.read_rows([rid], bytes.upper)
        pool.clear()
        heap.read_rows([rid], bytes.upper)
        assert pool.row_stats() == type(pool.row_stats())(hits=0, misses=1)
        heap.read_rows([rid], bytes.upper)
        assert pool.row_stats().hit_share == 0.5


class TestIsolation:
    """A row handed out is the reader's: nothing it does reaches the
    frame's copy, so the next lookup answers as before."""

    @pytest.fixture()
    def db(self):
        db = Database()
        db.execute(DDL)
        db.execute(INSERT, (1, list(range(3)), list(range(40)), "a"))
        db.execute("SELECT * FROM t WHERE k = 1")  # leaves the row on the frame
        return db

    def test_appending_to_a_list_cell_of_a_result(self, db):
        row = db.execute("SELECT xs FROM t WHERE k = 1").rows[0]
        row[0].append(99)
        assert db.execute("SELECT xs FROM t WHERE k = 1").rows == [([0, 1, 2],)]
        looked_up = db.catalog.get("t").lookup((1,))
        looked_up[1].append(7)
        assert db.catalog.get("t").lookup((1,))[1] == [0, 1, 2]

    def test_writing_into_an_ndarray_cell_raises(self, db):
        table = db.catalog.get("t")
        for row in (table.lookup((1,)), table.lookup_many([(1,)])[0][0]):
            cell = row[2]
            assert isinstance(cell, np.ndarray)
            with pytest.raises(ValueError, match="read-only"):
                cell[0] = 5
        assert table.lookup((1,))[2].tolist() == list(range(40))
        assert db.pool.row_stats().hits >= 2
