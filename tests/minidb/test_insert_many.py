"""``Table.insert_many`` against a row-by-row model of the store path.

``insert_many`` checks a chunk a column at a time, appends its heap records
one latch hold per page and refuses a duplicate key in the index descent
that inserts it. The model below is the definition it replaced: per row,
``check_value`` every cell, look the key up, append the record under its
own pin and latch, then insert the key. Fed the same chunk, both must end
with the same rids, the same page images, the same ``describe()`` and the
same error (type and message) — the first offending row's, with the rows
before it stored.

Chunks are drawn by hypothesis: inline and overflow records, int64
ndarray cells as the decoder returns them (``NP_DECODE_MIN`` elements or
more), NULL elements, int64 edges, out-of-range and wrong-type values, and
duplicate keys within the chunk and against rows already stored. A failing
``INSERT … SELECT`` in the middle of a chunk rolls back under the WAL to
every page's before-image.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, SQLTypeError
from repro.minidb.buffer import BufferPool
from repro.minidb.catalog import Table, TableSchema
from repro.minidb.disk import DiskManager
from repro.minidb.engine import Database
from repro.minidb.heap import _INLINE, _INLINE_LIMIT, _OVERFLOW, _STUB
from repro.minidb.page import KIND_HEAP
from repro.minidb.values import (
    NP_DECODE_MIN,
    T_BIGINT,
    T_BIGINT_ARRAY,
    T_BOOL,
    T_DOUBLE,
    T_TEXT,
    Column,
    decode_record,
    encode_record,
)

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
SCHEMA = [
    Column("k", T_BIGINT),
    Column("a", T_BIGINT),
    Column("xs", T_BIGINT_ARRAY),
    Column("f", T_DOUBLE),
    Column("s", T_TEXT),
    Column("ok", T_BOOL),
]


# ---------------------------------------------------------------------------
# The row-by-row model
# ---------------------------------------------------------------------------
def model_heap_insert(heap, record):
    """One record under its own pin and write latch, overflow chain first."""
    pool = heap.pool
    if len(record) + 1 <= _INLINE_LIMIT:
        cell = bytes([_INLINE]) + record
    else:
        cell = _STUB.pack(_OVERFLOW, len(record), heap._write_overflow(record))
    page_id = heap._last_page
    page = pool.pin(page_id)
    try:
        if page.free_space < len(cell):
            new_id, new_page = pool.new_page(KIND_HEAP)
            with pool.latch(page_id).write():
                page.next_page = new_id
                pool.mark_dirty(page_id)
            pool.unpin(page_id)
            heap._last_page = new_id
            heap._chain.append(new_id)
            page_id, page = new_id, new_page
        with pool.latch(page_id).write():
            slot = page.insert(cell)
            pool.mark_dirty(page_id)
        return page_id, slot
    finally:
        pool.unpin(page_id)


def model_insert(table, values):
    """Check, look the key up, store, index — one row."""
    row = table._checked(values)
    key = None
    if table.index is not None:
        key = table._pk_of(row)
        if table.index.search(key) is not None:
            raise CatalogError(f"{table.schema.name}: duplicate primary key {key}")
    record = encode_record(table.schema.types, row)
    rid = model_heap_insert(table.heap, record)
    if key is not None:
        table.index.insert(key, rid)
    table.row_count += 1
    table.data_bytes += len(record)
    return rid


def outcome(fn):
    try:
        return fn(), None
    except (CatalogError, SQLTypeError) as exc:
        return None, (type(exc), str(exc))


def images(pool):
    pool.flush()
    return [bytes(pool.disk.peek_page(pid)) for pid in range(pool.disk.num_pages)]


# ---------------------------------------------------------------------------
# Chunks
# ---------------------------------------------------------------------------
EDGES = st.sampled_from([I64_MIN, I64_MAX, I64_MIN + 1, I64_MAX - 1, 0, -1])
ints = st.one_of(st.integers(-1000, 1000), EDGES)
#: what a BIGINT cell may wrongly hold
WRONG = st.sampled_from([2**63, -(2**63) - 1, True, 1.5, "x", [1]])


def decoded(values):
    """*values* as the decoder returns them: an int64 ndarray from 32 on."""
    return decode_record((T_BIGINT_ARRAY,), encode_record((T_BIGINT_ARRAY,), (values,)))[0]


@st.composite
def arrays(draw):
    kind = draw(st.sampled_from(["short", "short", "nulls", "long", "overflow"]))
    if kind == "short":
        return draw(st.lists(ints, max_size=12))
    if kind == "nulls":
        return draw(st.lists(st.one_of(ints, st.none()), min_size=1, max_size=40))
    # long: an ndarray cell; overflow: 1,300 elements, wide deltas > one page
    size = draw(st.integers(NP_DECODE_MIN, 80)) if kind == "long" else 1300
    start = draw(ints)
    steps = draw(st.sampled_from([1, 300, 70_000, 2**40, 2**62]))
    # wrapped into int64, so a step may cross an edge
    values = [(start + i * steps - I64_MIN) % 2**64 + I64_MIN for i in range(size)]
    cell = decoded(values)
    assert isinstance(cell, np.ndarray)
    return cell


@st.composite
def rows(draw, key_range):
    return (
        draw(st.integers(0, key_range)),
        draw(st.one_of(ints, st.none())),
        draw(st.one_of(arrays(), st.none())),
        draw(st.one_of(st.floats(-1e6, 1e6), st.integers(-5, 5), st.none())),
        draw(st.one_of(st.text(max_size=8), st.none())),
        draw(st.one_of(st.booleans(), st.none())),
    )


#: one value per column that ``check_value`` (or the key) refuses
FAULTS = [
    st.sampled_from([None, 2**63, True, 1.5]),
    st.sampled_from([-(2**63) - 1, "x", [1]]),
    st.sampled_from(["xs", 1, [1, True], [2**63], [0, 1.5], np.arange(3, dtype=np.int32)]),
    st.sampled_from(["x", 10**400, [1.0]]),
    st.sampled_from(["\ud800", b"x", 3]),
    st.sampled_from([1, "t"]),
]


@st.composite
def chunks(draw):
    """Valid rows with keys that often repeat; in some chunks one faulty
    cell or one row of the wrong width."""
    key_range = draw(st.integers(2, 40))
    chunk = draw(st.lists(rows(key_range), max_size=30))
    if chunk and draw(st.booleans()):
        at = draw(st.integers(0, len(chunk) - 1))
        row = list(chunk[at])
        if draw(st.integers(0, 5)) == 0:
            row.pop()
        else:
            col = draw(st.integers(0, len(row) - 1))
            row[col] = draw(FAULTS[col])
        chunk[at] = tuple(row)
    return chunk


def twin_tables(keyed, capacity):
    schema = TableSchema("t", SCHEMA, ("k",) if keyed else ())
    return [Table(schema, BufferPool(DiskManager(), capacity=capacity)) for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(
    keyed=st.booleans(),
    capacity=st.sampled_from([3, 256]),
    existing=st.lists(st.integers(0, 40), max_size=12, unique=True),
    chunk=chunks(),
)
def test_insert_many_equals_row_by_row(keyed, capacity, existing, chunk):
    fast, model = twin_tables(keyed, capacity)
    for table in (fast, model):
        for k in existing:
            model_insert(table, (k, k, [k, k + 1], None, "e", None))

    def row_by_row():
        return [model_insert(model, row) for row in chunk]

    got = outcome(lambda: fast.insert_many(chunk))
    want = outcome(row_by_row)
    if want[1] is None:
        assert got == want
    else:
        assert got[1] == want[1]
    assert fast.describe() == model.describe()
    assert images(fast.pool) == images(model.pool)
    assert fast.pool.total_pins() == model.pool.total_pins() == 0


def test_every_page_run_is_one_latch_hold():
    """A chunk of inline records holds each heap page's write latch once
    for its run, plus one short hold for the record that opens a new page."""
    table = twin_tables(True, 256)[0]
    held = []
    real = table.pool.latch

    def latch(page_id):
        if page_id in table.heap._chain:
            held.append(page_id)
        return real(page_id)

    table.pool.latch = latch
    rows = [(k, k, list(range(k % 20)), None, None, None) for k in range(600)]
    table.insert_many(rows)
    # one hold per page run, plus the new tail's own hold when it is linked
    assert len(table.heap._chain) > 2
    assert len(held) == 2 * len(table.heap._chain) - 1
    assert table.row_count == 600 and table.pool.total_pins() == 0


# ---------------------------------------------------------------------------
# Statement rollback under the WAL
# ---------------------------------------------------------------------------
def page_images(db):
    return [
        db.pool.page_image(pid) if db.pool.resident(pid) else bytes(db.disk.peek_page(pid))
        for pid in range(db.disk.num_pages)
    ]


@pytest.mark.parametrize(
    "source, error",
    [
        # the 150th source row repeats a key the chunk stored earlier
        ("SELECT k % 150, xs FROM src", r"duplicate primary key \(0,\)"),
        # the 80th collides with a row stored before the statement
        ("SELECT k + 920, xs FROM src", r"duplicate primary key \(1000,\)"),
        # a BIGINT out of range in the middle of the chunk
        (
            "SELECT CASE WHEN k = 120 THEN 9223372036854775808 ELSE k + 2000 END, "
            "xs FROM src",
            r"BIGINT value out of range",
        ),
    ],
)
def test_failed_insert_select_mid_chunk_restores_every_page(tmp_path, source, error):
    path = str(tmp_path / "t.minidb")
    db = Database(path=path)
    db.execute("CREATE TABLE src (k BIGINT, xs BIGINT[], PRIMARY KEY (k))")
    # wide arrays every 7th row: overflow records mid-chunk
    db.executemany(
        "INSERT INTO src VALUES ($1, $2)",
        [(k, list(range(0, (1300 if k % 7 == 3 else 20) * 2**33, 2**33))) for k in range(300)],
    )
    db.execute("CREATE TABLE t (k BIGINT, xs BIGINT[], PRIMARY KEY (k))")
    db.executemany("INSERT INTO t VALUES ($1, $2)", [(k, [k]) for k in range(1000, 1010)])
    before, described = page_images(db), db.catalog.describe()
    wal_size = db.wal.size_bytes()
    with pytest.raises((CatalogError, SQLTypeError), match=error):
        db.execute(f"INSERT INTO t {source}")
    after = page_images(db)
    assert after[: len(before)] == before
    assert all(image == bytes(len(image)) for image in after[len(before) :])
    assert db.catalog.describe() == described
    assert db.wal.size_bytes() == wal_size
    assert db.pool.total_pins() == 0
    db.execute("INSERT INTO t SELECT k, xs FROM src WHERE k < 20")
    db.simulate_crash()
    with Database.open(path) as again:
        assert again.execute("SELECT COUNT(*) FROM t").rows == [(30,)]
