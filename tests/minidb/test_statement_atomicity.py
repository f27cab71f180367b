"""A failed write statement leaves nothing behind, on every database.

Statement undo belongs to the buffer pool, so an in-memory ``Database()``
rolls back exactly as a file-backed one does: after each failing statement
below, the rows, ``row_count``, ``catalog.describe()`` and every page image
equal their state before it (a page the statement allocated is back at the
allocator's zero page), and the same handle goes on working.
"""

import pytest

from repro.errors import CatalogError, SQLTypeError
from repro.minidb.engine import Database
from repro.minidb.metrics import REGISTRY

DDL = "CREATE TABLE t (k BIGINT, v BIGINT, xs BIGINT[], PRIMARY KEY (k))"
INSERT = "INSERT INTO t VALUES ($1, $2, $3)"
#: Every 7th row's array spills into an overflow chain.
WIDE = list(range(0, 1300 * 2**33, 2**33))
SEED_ROWS = [(k, k * k, WIDE if k % 7 == 3 else [k, k + 1]) for k in range(60)]
POOL_PAGES = 8  # smaller than what the statements below dirty


@pytest.fixture(params=["memory", "file"])
def db(request, tmp_path):
    path = None if request.param == "memory" else str(tmp_path / "t.minidb")
    db = Database(pool_pages=POOL_PAGES, path=path)
    db.execute(DDL)
    db.executemany(INSERT, SEED_ROWS)
    yield db
    db.close()


def images(db: Database) -> list[bytes]:
    return [
        db.pool.page_image(pid)
        if db.pool.resident(pid)
        else bytes(db.disk.peek_page(pid))
        for pid in range(db.disk.num_pages)
    ]


def state(db: Database):
    rows = sorted(db.execute("SELECT k, v, xs FROM t").rows)
    return rows, db.catalog.get("t").row_count, db.catalog.describe()


def assert_undone(db: Database, before_state, before_images) -> None:
    after = images(db)
    assert after[: len(before_images)] == before_images
    assert all(image == bytes(len(image)) for image in after[len(before_images) :])
    assert state(db) == before_state
    assert db.pool.total_pins() == 0
    assert db.pool.dirtied() == []


def fails(db: Database, error, match: str, run) -> None:
    before_state, before_images = state(db), images(db)
    with pytest.raises(error, match=match):
        run()
    assert_undone(db, before_state, before_images)


def test_executemany_with_a_duplicate_in_its_third_tuple(db):
    fails(db, CatalogError, r"duplicate primary key \(5,\)", lambda: db.executemany(
        INSERT, [(100, 1, [1]), (101, 2, WIDE), (5, 3, [3]), (102, 4, [4])]
    ))
    assert db.executemany(INSERT, [(100, 1, [1]), (101, 2, WIDE)]) == 2
    assert db.catalog.get("t").row_count == 62


def test_insert_select_with_a_duplicate_partway_through_its_chunk(db):
    # Source keys 200..219 land (overflow records among them), then the
    # 21st source row maps back onto key 200.
    fails(db, CatalogError, r"duplicate primary key \(200,\)", lambda: db.execute(
        "INSERT INTO t SELECT k % 20 + 200, v, xs FROM t"
    ))
    db.execute("INSERT INTO t SELECT k + 200, v, xs FROM t WHERE k < 20")
    assert db.catalog.get("t").row_count == 80


def test_update_that_fails_on_a_value_type(db):
    # Every row before k = 40 is deleted and re-stored before 'x' is refused.
    fails(db, SQLTypeError, "expected BIGINT", lambda: db.execute(
        "UPDATE t SET v = CASE WHEN k = 40 THEN $1 ELSE v + 1 END", ("x",)
    ))
    db.execute("UPDATE t SET v = v + 1 WHERE k < 3")
    assert sorted(db.execute("SELECT v FROM t WHERE k < 3").rows) == [(1,), (2,), (5,)]


def test_a_failure_after_vacuum_keeps_the_vacuumed_table(db):
    db.execute("DELETE FROM t WHERE k % 3 = 0")
    assert db.execute("VACUUM t").rows == [(40,)]
    vacuumed = state(db)
    # VACUUM gave the table a new heap and index: the failed statements are
    # undone against those, not the ones before them.
    fails(db, CatalogError, r"duplicate primary key \(4,\)", lambda: db.executemany(
        INSERT, [(300, 1, WIDE), (301, 2, [2]), (4, 3, [3])]
    ))
    fails(db, SQLTypeError, "expected BIGINT", lambda: db.execute(
        "UPDATE t SET v = CASE WHEN k = 40 THEN $1 ELSE v + 1 END", ("x",)
    ))
    assert state(db) == vacuumed
    db.execute(INSERT, (300, 1, WIDE))
    assert db.catalog.get("t").row_count == 41


class TestMemoryBound:
    """A write statement's dirtied pages are its memory bound: the pool
    keeps them all until it commits, past its capacity if need be."""

    def test_an_overshoot_is_counted_and_shrinks_back(self):
        db = Database(pool_pages=4)
        db.execute("CREATE TABLE u (k BIGINT)")
        db.execute("INSERT INTO u VALUES (1)")
        db.execute(DDL)
        counter = REGISTRY.counter("buffer.over_capacity_admits")
        before = counter.value
        # 20 overflow chains of two pages each, one statement: u's heap
        # page is evicted, then no frame is left to evict.
        db.executemany(INSERT, [(k, k, WIDE) for k in range(20)])
        assert counter.value > before
        assert len(db.pool) > 4
        admits = counter.value
        assert db.execute("SELECT k FROM u").rows == [(1,)]  # one miss
        assert db.last_cost.pool_misses == 1
        assert len(db.pool) == 4
        assert counter.value == admits
        db.close()
