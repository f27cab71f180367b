"""The catalog is as durable as the rows: a WAL model over DDL and DML.

Hypothesis draws streams of write statements over two tables — CREATE,
DROP, INSERT, INSERT … SELECT, UPDATE, DELETE, VACUUM and checkpoints,
many of which fail (duplicate keys, a missing table, a value of the wrong
type). Each stream runs three ways:

* *uncrashed*: on a file-backed database to its end, recording every live
  table's rows and ``catalog.describe()`` after each statement;
* *in-memory twin*: on a ``Database()`` that runs every statement too,
  failed ones included, each of which must fail there as well; its rows
  and descriptors, page ids included, must equal the uncrashed run's
  after every statement — a failed statement leaves nothing behind, with
  a log or without one;
* *crashed*: on a fresh file with a crash armed at one named point from a
  drawn statement on. When it fires, the process "dies"
  (``simulate_crash``) and the reopened file must equal the uncrashed run
  after the last statement that committed: the crashed one itself when
  its COMMIT record was written, else the one before.

Since the catalog is a heap whose rows the WAL logs like any page, a DROP
is durable and a crash never brings back a dropped table, nor a table's
descriptor from before its last committed statement.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, CrashPoint, DatabaseError
from repro.minidb.engine import Database
from repro.minidb.page import PAGE_SIZE

#: Every named crash point of the WAL (docs/STORAGE.md, "Durability").
CRASH_POINTS = (
    "commit:before-append",
    "commit:mid-append",
    "commit:after-append",
    "checkpoint:before-flush",
    "checkpoint:before-sync",
    "checkpoint:before-truncate",
)
#: A crash at these points loses the statement: its COMMIT record is not
#: (wholly) in the log. At any later point it is committed — a checkpoint
#: a write statement triggers runs after its commit.
LOSES_THE_STATEMENT = ("commit:before-append", "commit:mid-append")

#: One write statement, by what the draw names: ``(op, table, keys)``.
#: Keys collide often, so many statements fail.
STATEMENT = st.tuples(
    st.sampled_from(
        ["create", "drop", "insert", "insert_select", "update", "delete",
         "vacuum", "checkpoint", "bad_type"]
    ),
    st.integers(0, 1),
    st.lists(st.integers(0, 30), max_size=25, unique=True),
)
START = [("create", 0, []), ("create", 1, [])]


def run_statement(db: Database, op: str, table: int, keys: list) -> None:
    name = f"p{table}"
    other = f"p{1 - table}"
    if op == "create":
        db.execute(
            f"CREATE TABLE {name} (k BIGINT, xs BIGINT[], PRIMARY KEY (k))"
        )
    elif op == "drop":
        db.execute(f"DROP TABLE {name}")
    elif op == "insert":
        db.executemany(
            f"INSERT INTO {name} VALUES ($1, $2)",
            [(k, list(range(k * 40))) for k in keys],
        )
    elif op == "insert_select":
        db.execute(f"INSERT INTO {name} SELECT k + {len(keys)}, xs FROM {other}")
    elif op == "update":
        db.execute(f"UPDATE {name} SET xs = ARRAY[k] WHERE k < {len(keys)}")
    elif op == "delete":
        db.execute(f"DELETE FROM {name} WHERE k < {len(keys)}")
    elif op == "vacuum":
        db.execute(f"VACUUM {name}")
    elif op == "checkpoint":
        db.checkpoint()
    else:
        db.execute(f"INSERT INTO {name} VALUES ('x', NULL)")


def state(db: Database) -> tuple:
    """Every live table's rows, checked against its index, and the
    catalog's descriptors."""
    tables = {}
    for name in db.catalog.table_names():
        rows = sorted(db.execute(f"SELECT k, xs FROM {name}").rows)
        index = db.catalog.get(name).index
        assert [key[0] for key, _ in index.scan()] == [k for k, _ in rows]
        tables[name] = rows
    return tables, db.catalog.describe()


def open_file(path: str) -> Database:
    db = Database(path=path)
    db.wal.checkpoint_bytes = 64 * PAGE_SIZE  # checkpoints mid-stream
    return db


def outcome(db: Database, op: str, table: int, keys: list):
    """The error type the statement raised on *db*, or None."""
    try:
        run_statement(db, op, table, keys)
    except DatabaseError as exc:
        return type(exc)
    return None


def uncrashed(path: str, stream: list) -> list:
    """The state after each statement of *stream* (the first is the state
    before any), checking each against the in-memory twin."""
    db, twin = open_file(path), Database()
    states = [state(db)]
    for op, table, keys in stream:
        failed = outcome(db, op, table, keys)
        assert outcome(twin, op, table, keys) is failed, (op, table, keys)
        states.append(state(db))
        assert states[-1] == state(twin), (op, table, keys)
    db.close()
    twin.close()
    return states


def crashed(path: str, stream: list, point: str, at: int) -> int:
    """Run *stream* with a crash armed at *point* from statement *at* on,
    then die; returns the number of committed statements."""
    db = open_file(path)
    fired = []

    def hook(name: str) -> None:
        if name == point and not fired:
            fired.append(name)
            raise CrashPoint(name)

    for i, (op, table, keys) in enumerate(stream):
        if i == at:
            db.wal.fault_injector = hook
        try:
            run_statement(db, op, table, keys)
        except CrashPoint:
            db.simulate_crash()
            return i if point in LOSES_THE_STATEMENT else i + 1
        except DatabaseError:
            pass
    db.simulate_crash()
    return len(stream)


def check(tmp_path_factory, stream: list, point: str, at: int) -> None:
    stream = START + stream
    directory = tmp_path_factory.mktemp("catalog")
    states = uncrashed(str(directory / "uncrashed.minidb"), stream)
    path = str(directory / "crashed.minidb")
    committed = crashed(path, stream, point, min(at, len(stream) - 1))
    with Database.open(path) as again:
        assert state(again) == states[committed]
        assert again.pool.total_pins() == 0


@pytest.mark.parametrize("point", CRASH_POINTS)
@settings(max_examples=40, deadline=None)
@given(stream=st.lists(STATEMENT, max_size=24), at=st.integers(0, 26))
# DROP, then a crash: the table stays dropped
@example(stream=[("drop", 0, []), ("insert", 1, [2])], at=2)
# a dropped name created again is a new table in the same catalog
@example(stream=[("insert", 0, [1, 2]), ("drop", 0, []), ("create", 0, []),
                 ("insert", 0, [3])], at=4)
# VACUUM moves the heap's first page and the index root, then a crash
@example(stream=[("insert", 1, [4, 5, 6]), ("delete", 1, [0, 1, 2, 3, 4]),
                 ("vacuum", 1, []), ("insert", 0, [1])], at=4)
def test_a_crash_recovers_the_last_committed_catalog(
    tmp_path_factory, stream, point, at
):
    check(tmp_path_factory, stream, point, at)


def test_a_dropped_table_stays_dropped_after_a_crash(tmp_path):
    path = str(tmp_path / "drop.minidb")
    db = Database(path=path)
    for op, table in [("create", 0), ("create", 1), ("drop", 0)]:
        run_statement(db, op, table, [])
    db.simulate_crash()
    with Database.open(path) as again:
        names = [table["name"] for table in again.catalog.describe()]
    assert names == ["p1"]


def test_a_failed_statement_restores_the_catalog_page(tmp_path):
    """A DROP that dies before its COMMIT record is rolled back by its
    page: the table, its rows and its catalog row are all there, and the
    same handle goes on using it."""
    db = Database(path=str(tmp_path / "rollback.minidb"))
    run_statement(db, "create", 0, [])
    run_statement(db, "insert", 0, [1, 2])
    before = state(db)
    image = db.pool.page_image(0)

    def fail(point: str) -> None:
        if point == "commit:before-append":
            raise DatabaseError("the log device failed")

    db.wal.fault_injector = fail
    with pytest.raises(DatabaseError, match="log device"):
        run_statement(db, "drop", 0, [])
    db.wal.fault_injector = None
    assert db.pool.page_image(0) == image
    assert state(db) == before
    run_statement(db, "insert", 0, [3])
    assert state(db)[1][0]["row_count"] == 3
    db.close()


def test_a_schema_a_catalog_row_cannot_hold_is_refused(tmp_path):
    """A catalog row is one inline record, and a NUL separates its column
    names: a schema that breaks either is a typed error before any page is
    written, and the catalog stays as it was."""
    db = Database(path=str(tmp_path / "refused.minidb"))
    run_statement(db, "create", 0, [])
    before, pages = state(db), db.disk.num_pages
    wide = ", ".join(f"column_with_a_long_name_{i} BIGINT" for i in range(400))
    with pytest.raises(CatalogError, match="does not fit a page"):
        db.execute(f"CREATE TABLE wide ({wide})")
    with pytest.raises(CatalogError, match="cannot name"):
        db.execute('CREATE TABLE t ("a\x00b" BIGINT)')
    assert state(db) == before and db.disk.num_pages == pages
    db.close()


def test_a_write_statement_compares_only_its_target_catalog_row(tmp_path, monkeypatch):
    """A DML or VACUUM statement reads the fixed fields of its target
    alone, however many tables there are, and overwrites that one catalog
    row; DDL compares every row."""
    from repro.minidb.catalog import Table

    db = Database(path=str(tmp_path / "many.minidb"))
    for i in range(40):
        db.execute(f"CREATE TABLE m{i} (k BIGINT, PRIMARY KEY (k))")
    read, written = [], []
    real_fields, real_overwrite = Table.fields, db.catalog.heap.overwrite
    monkeypatch.setattr(
        Table, "fields", lambda self: read.append(self.schema.name) or real_fields(self)
    )
    monkeypatch.setattr(
        db.catalog.heap, "overwrite",
        lambda rid, raw: written.append(rid) or real_overwrite(rid, raw),
    )
    rid = db.catalog._rows["m17"][0]
    for sql in (
        "INSERT INTO m17 VALUES (1), (2)",
        "EXPLAIN ANALYZE INSERT INTO m17 VALUES (3)",
        "DELETE FROM m17 WHERE k = 1",
        "VACUUM m17",
    ):
        del read[:], written[:]
        db.execute(sql)
        assert read == ["m17"] and written == [rid], sql
    del read[:]
    db.execute("CREATE TABLE late (k BIGINT)")
    assert set(read) == {f"m{i}" for i in range(40)} | {"late"}
    db.close()
    with Database.open(db._path) as again:
        assert again.execute("SELECT k FROM m17").rows == [(2,), (3,)]
