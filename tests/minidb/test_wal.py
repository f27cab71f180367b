"""WAL durability: crash-point matrix, replay idempotence, rollback.

Crashes are simulated with the WAL's fault injector: a hook raises
:class:`~repro.errors.CrashPoint` at a named point, the engine deliberately
skips all cleanup for that exception (a dead process runs none), and
``simulate_crash`` drops the handles exactly as SIGKILL would. Every test
then reopens the file and checks the recovered state against what a
correct redo log must produce.
"""

import shutil
import struct
import zlib

import pytest

from repro.errors import CatalogError, CrashPoint, DatabaseError
from repro.minidb.engine import Database
from repro.minidb.page import PAGE_SIZE
from repro.minidb.wal import DEFAULT_CHECKPOINT_BYTES
from tests.minidb.reference import FORMAT_ID

DDL = "CREATE TABLE t (k BIGINT, v BIGINT, PRIMARY KEY (k))"
SEED_ROWS = [(i, i * i) for i in range(50)]


def seeded(path: str) -> Database:
    db = Database(path=path)
    db.execute(DDL)
    db.executemany("INSERT INTO t VALUES ($1, $2)", SEED_ROWS)
    return db


def rows(db: Database):
    return sorted(db.execute("SELECT k, v FROM t").rows)


def crash_at(db: Database, point: str) -> None:
    def hook(name: str) -> None:
        if name == point:
            raise CrashPoint(name)

    db.wal.fault_injector = hook


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "wal_test.minidb")


class TestCleanLifecycle:
    def test_close_checkpoints_and_truncates_the_log(self, db_path):
        db = seeded(db_path)
        assert db.wal.size_bytes() > 0  # committed but not yet checkpointed
        db.close()
        with Database.open(db_path) as again:
            assert rows(again) == sorted(SEED_ROWS)
            assert again.wal.size_bytes() == 0

    def test_context_manager_closes(self, db_path):
        with Database(path=db_path) as db:
            db.execute(DDL)
            db.execute("INSERT INTO t VALUES (1, 2)")
        with Database.open(db_path) as again:
            assert rows(again) == [(1, 2)]

    def test_close_is_idempotent(self, db_path):
        db = seeded(db_path)
        db.close()
        db.close()


class TestKillRecovery:
    def test_sigkill_before_any_checkpoint_replays_everything(self, db_path):
        db = seeded(db_path)
        db.simulate_crash()  # no close, no checkpoint: redo comes from the WAL
        with Database.open(db_path) as again:
            assert rows(again) == sorted(SEED_ROWS)

    def test_recovered_database_accepts_new_writes(self, db_path):
        db = seeded(db_path)
        db.simulate_crash()
        with Database.open(db_path) as again:
            again.execute("INSERT INTO t VALUES (100, 1)")
            assert (100, 1) in rows(again)

    def test_replay_is_idempotent_across_repeated_crashes(self, db_path):
        db = seeded(db_path)
        db.simulate_crash()
        second = Database.open(db_path)
        recovered = rows(second)
        second.simulate_crash()  # recovered state, killed again before checkpoint
        with Database.open(db_path) as third:
            assert rows(third) == recovered == sorted(SEED_ROWS)


class TestCommitCrashPoints:
    @pytest.mark.parametrize("point", ["commit:before-append", "commit:mid-append"])
    def test_crash_before_commit_record_loses_only_that_statement(
        self, db_path, point
    ):
        db = seeded(db_path)
        crash_at(db, point)
        with pytest.raises(CrashPoint):
            db.execute("INSERT INTO t VALUES (100, 1)")
        db.simulate_crash()
        with Database.open(db_path) as again:
            # The torn tail is detected and truncated; every earlier commit
            # survives byte-for-byte, the in-flight statement does not.
            assert rows(again) == sorted(SEED_ROWS)

    def test_crash_after_commit_record_is_durable(self, db_path):
        db = seeded(db_path)
        crash_at(db, "commit:after-append")
        with pytest.raises(CrashPoint):
            db.execute("INSERT INTO t VALUES (100, 1)")
        db.simulate_crash()
        with Database.open(db_path) as again:
            assert rows(again) == sorted(SEED_ROWS + [(100, 1)])


class TestCheckpointCrashPoints:
    @pytest.mark.parametrize(
        "point",
        [
            "checkpoint:before-flush",
            "checkpoint:before-sync",
            "checkpoint:before-truncate",
        ],
    )
    def test_crash_mid_checkpoint_loses_nothing(self, db_path, point):
        db = seeded(db_path)
        crash_at(db, point)
        with pytest.raises(CrashPoint):
            db.checkpoint()
        db.simulate_crash()
        with Database.open(db_path) as again:
            assert rows(again) == sorted(SEED_ROWS)
            again.execute("INSERT INTO t VALUES (100, 1)")
            again.checkpoint()
        with Database.open(db_path) as final:
            assert rows(final) == sorted(SEED_ROWS + [(100, 1)])


class TestStatementRollback:
    def test_failed_statement_rolls_back_and_log_is_reusable(self, db_path):
        db = seeded(db_path)
        size_before = db.wal.size_bytes()
        with pytest.raises(DatabaseError):
            db.execute("INSERT INTO t VALUES ($1, $2)", (0, 9))  # PK collision
        assert rows(db) == sorted(SEED_ROWS)
        assert db.wal.size_bytes() == size_before  # aborted pages truncated
        db.execute("INSERT INTO t VALUES (61, 2)")
        db.close()
        with Database.open(db_path) as again:
            assert rows(again) == sorted(SEED_ROWS + [(61, 2)])

    def test_failed_batch_rolls_back_every_row_in_the_batch(self, db_path):
        db = seeded(db_path)
        session = db.session(tracing=False)
        with pytest.raises(DatabaseError):
            # The middle row collides with seeded key 0; the batch commits
            # as one statement, so the valid first row must vanish with it
            # and the third is never tried.
            session.executemany(
                "INSERT INTO t VALUES ($1, $2)", [(60, 1), (0, 9), (61, 2)]
            )
        assert rows(db) == sorted(SEED_ROWS)
        assert db.catalog.get("t").row_count == len(SEED_ROWS)
        assert session.executemany("INSERT INTO t VALUES ($1, $2)", [(60, 1)]) == 1
        db.close()

    def test_a_batch_is_one_commit_record(self, db_path):
        db = Database(path=db_path)
        db.execute(DDL)
        commits = []
        db.wal.fault_injector = lambda point: commits.append(point)
        assert db.executemany("INSERT INTO t VALUES ($1, $2)", SEED_ROWS) == 50
        assert commits.count("commit:before-append") == 1
        with pytest.raises(DatabaseError):
            db.executemany("INSERT INTO t VALUES ($1, $2)", [(90, 1), (7, 7), (91, 1)])
        assert rows(db) == sorted(SEED_ROWS)  # zero rows of the failed batch
        db.close()

    def test_failed_insert_select_rolls_back_every_source_row(self, db_path):
        db = seeded(db_path)
        size_before = db.wal.size_bytes()
        with pytest.raises(CatalogError, match="duplicate primary key"):
            # The source yields keys 100, 101, 100: two rows land, then the
            # third collides with the first — all three must vanish.
            db.execute(
                "INSERT INTO t SELECT k % 2 + 100, v FROM t WHERE k < 3"
            )
        assert rows(db) == sorted(SEED_ROWS)
        assert db.wal.size_bytes() == size_before
        assert db.pool.total_pins() == 0
        db.execute("INSERT INTO t SELECT k + 100, v FROM t WHERE k < 3")
        db.close()
        with Database.open(db_path) as again:
            assert rows(again) == sorted(
                SEED_ROWS + [(100, 0), (101, 1), (102, 4)]
            )

    def test_pending_pages_stay_resident_until_commit(self, db_path):
        db = seeded(db_path)
        seen = {}

        def hook(point):
            if point == "commit:before-append":
                seen["pending"] = [
                    pid
                    for pid in range(db.disk.num_pages)
                    if db.wal.is_pending(pid)
                ]
                # No-steal: every page the statement dirtied must still be
                # readable from the pool at commit time.
                for pid in seen["pending"]:
                    assert len(db.pool.page_image(pid)) > 0

        db.wal.fault_injector = hook
        db.execute("INSERT INTO t VALUES (70, 7)")
        assert seen["pending"], "commit saw no pending pages"
        assert all(not db.wal.is_pending(pid) for pid in seen["pending"])
        db.close()


def log_records(path: str, start: int = 0):
    """``(kind, payload)`` of every record of the log at *path* from byte
    *start* on (header: payload length, CRC-32)."""
    with open(path, "rb") as handle:
        data = handle.read()[start:]
    records, pos = [], 0
    while pos < len(data):
        length, crc = struct.unpack_from("<II", data, pos)
        payload = data[pos + 8 : pos + 8 + length]
        assert zlib.crc32(payload) == crc
        records.append((payload[:1], payload))
        pos += 8 + length
    return records


def record(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


class TestLogFormat:
    def test_a_commit_logs_one_image_per_dirtied_page(self, db_path):
        db = seeded(db_path)
        dirtied = []

        def hook(point):
            if point == "commit:before-append":
                dirtied.extend(
                    pid for pid in range(db.disk.num_pages) if db.wal.is_pending(pid)
                )

        before = db.wal.size_bytes()
        db.wal.fault_injector = hook
        db.execute("INSERT INTO t VALUES (70, 7)")
        records = log_records(db_path + ".wal", before)
        kinds = [kind for kind, _ in records]
        assert dirtied and kinds == [b"A"] * len(dirtied) + [b"C"]
        assert [struct.unpack_from("<q", p, 1)[0] for _, p in records[:-1]] == dirtied
        # The catalog row's page is logged like the table's own, and the
        # COMMIT record holds the page count only.
        assert 0 in dirtied
        assert records[-1][1] == b"C" + struct.pack("<q", db.disk.num_pages)
        page_record = 8 + 1 + 8 + PAGE_SIZE
        commit_record = 8 + 1 + 8
        assert db.wal.size_bytes() - before == len(dirtied) * page_record + commit_record
        db.close()

    def test_a_log_with_before_images_still_replays(self, db_path, tmp_path):
        db = seeded(db_path)
        db.execute("UPDATE t SET v = v + 1 WHERE k < 20")
        db.simulate_crash()
        # The same log with a before-image ahead of each batch's images, as
        # logs were once written (their contents never matter to redo).
        old = str(tmp_path / "old.minidb")
        shutil.copyfile(db_path, old)
        befores, afters = [], []
        with open(old + ".wal", "wb") as handle:
            for kind, payload in log_records(db_path + ".wal"):
                if kind == b"A":
                    befores.append(b"B" + payload[1:9] + bytes([0xA5]) * PAGE_SIZE)
                    afters.append(payload)
                    continue
                handle.write(b"".join(map(record, befores + afters + [payload])))
                befores, afters = [], []
        assert b"B" in [kind for kind, _ in log_records(old + ".wal")]
        states = []
        for path in (db_path, old):
            with Database.open(path) as again:
                states.append((rows(again), again.catalog.describe()))
                again.pool.flush()
                states.append(
                    [bytes(again.disk.peek_page(p)) for p in range(again.disk.num_pages)]
                )
        assert states[:2] == states[2:]
        assert states[0][0] == sorted(
            (k, v + (k < 20)) for k, v in SEED_ROWS
        )


class TestRemovedOptions:
    def test_a_file_backed_database_always_logs(self, db_path):
        for option in ({"wal": False}, {"wal_checkpoint_bytes": 1}):
            with pytest.raises(TypeError):
                Database(path=db_path, **option)
            with pytest.raises(TypeError):
                Database.open(db_path, **option)
        with Database(path=db_path) as db:
            assert db.wal.checkpoint_bytes == DEFAULT_CHECKPOINT_BYTES

    def test_a_log_past_the_threshold_checkpoints_itself(self, db_path):
        db = seeded(db_path)
        db.wal.checkpoint_bytes = 1  # an attribute, not an option
        db.execute("INSERT INTO t VALUES (70, 7)")
        assert db.wal.size_bytes() == 0
        db.simulate_crash()
        with Database.open(db_path) as again:
            assert rows(again) == sorted(SEED_ROWS + [(70, 7)])


class TestIndexSplitsUnderTheWal:
    """A statement whose index inserts split leaves and grow a new root is
    undone (or redone) page for page."""

    ROWS = 1000  # a BIGINT-keyed leaf holds 408 cells: > 2 leaves' worth

    def loaded(self, path: str) -> Database:
        db = Database(path=path)
        db.execute("CREATE TABLE src (k BIGINT, v BIGINT, PRIMARY KEY (k))")
        db.executemany(
            "INSERT INTO src VALUES ($1, $2)", [(i, 3 * i) for i in range(self.ROWS)]
        )
        db.execute(DDL)
        return db

    @staticmethod
    def images(db: Database) -> list[bytes]:
        return [
            db.pool.page_image(pid)
            if db.pool.resident(pid)
            else bytes(db.disk.peek_page(pid))
            for pid in range(db.disk.num_pages)
        ]

    def test_failure_on_the_last_row_restores_every_page(self, db_path):
        db = self.loaded(db_path)
        before = self.images(db)
        described = db.catalog.describe()
        size_before = db.wal.size_bytes()
        with pytest.raises(CatalogError, match=r"duplicate primary key \(0,\)"):
            # Keys 0..998 land (leaf splits, then a new root); the last
            # source row maps back onto key 0.
            db.execute(f"INSERT INTO t SELECT k % {self.ROWS - 1}, v FROM src")
        after = self.images(db)
        assert len(after) > len(before), "the statement allocated no page"
        assert after[: len(before)] == before
        assert all(image == bytes(len(image)) for image in after[len(before) :])
        assert db.wal.size_bytes() == size_before
        assert db.pool.total_pins() == 0
        # The descriptor is back too — root page, heap tail, counters — so
        # the same handle goes on using the table.
        assert db.catalog.describe() == described
        assert rows(db) == []
        db.execute("INSERT INTO t SELECT k, v FROM src WHERE k < 5")
        assert rows(db) == [(i, 3 * i) for i in range(5)]
        db.simulate_crash()
        with Database.open(db_path) as again:
            assert rows(again) == [(i, 3 * i) for i in range(5)]
            again.execute("INSERT INTO t SELECT k, v FROM src WHERE k >= 995")
            assert len(rows(again)) == 10

    @pytest.mark.parametrize("storage", [FORMAT_ID])
    def test_rolled_back_statements_leave_the_descriptor_alone(
        self, db_path, storage
    ):
        """Failing INSERT … SELECT (chain growth, root split),
        UPDATE and batch between succeeding ones: the table always equals a
        twin that ran only the successes."""
        ddl = (
            "CREATE TABLE t (k BIGINT, hub BIGINT, vs BIGINT[], PRIMARY KEY (k))"
        )
        db, twin = Database(path=db_path), Database()
        for handle in (db, twin):
            handle.execute(ddl)
            handle.execute(ddl.replace("TABLE t", "TABLE src"))
            handle.executemany(
                "INSERT INTO src VALUES ($1, $2, $3)",
                [(i, i // 40, list(range(i % 30))) for i in range(1200)],
            )
        steps = [
            ("INSERT INTO t SELECT k, hub, vs FROM src WHERE k < 300", True),
            ("INSERT INTO t SELECT k % 1100 + 300, hub, vs FROM src", False),
            ("UPDATE t SET k = 7 WHERE k >= 290", False),
            ("INSERT INTO t SELECT k, hub, vs FROM src WHERE k >= 900", True),
            ("DELETE FROM t WHERE hub = 3", True),
            ("INSERT INTO t SELECT k + 2000, hub, vs FROM src WHERE k <> 1199 "
             "UNION ALL SELECT 5, 0, vs FROM src WHERE k = 1199", False),
            ("VACUUM t", True),
            ("INSERT INTO t SELECT k, hub, vs FROM src WHERE k >= 895", False),
        ]
        table = db.catalog.get("t")
        for sql, succeeds in steps:
            described = db.catalog.describe()
            chain = list(table.heap._chain)
            if succeeds:
                db.execute(sql)
                twin.execute(sql)
            else:
                with pytest.raises(CatalogError, match="duplicate primary key"):
                    db.execute(sql)
                assert db.catalog.describe() == described, sql
                assert table.heap._chain == chain, sql
            assert db.pool.total_pins() == 0
            expected = twin.catalog.get("t")
            assert (table.row_count, table.data_bytes) == (
                expected.row_count, expected.data_bytes,
            ), sql
            for probe in ("SELECT k, hub, vs FROM t", "SELECT k FROM t WHERE hub = 23"):
                assert sorted(db.execute(probe).rows) == sorted(
                    twin.execute(probe).rows
                ), sql
        with pytest.raises(CatalogError, match="duplicate primary key"):
            db.executemany("INSERT INTO t VALUES ($1, 0, NULL)", [(5000,), (0,)])
        assert table.row_count == twin.catalog.get("t").row_count
        db.close()
        twin.close()

    def test_success_survives_a_crash_with_index_and_heap_agreeing(self, db_path):
        db = self.loaded(db_path)
        db.execute("INSERT INTO t SELECT k, v FROM src")
        assert db.catalog.get("t").index.height() == 2
        db.simulate_crash()
        with Database.open(db_path) as again:
            table = again.catalog.get("t")
            assert table.index.height() == 2
            by_index = [
                (key[0], table.decode(table.heap.read(rid))[1])
                for key, rid in table.index.scan()
            ]
            assert by_index == [(i, 3 * i) for i in range(self.ROWS)]
            assert by_index == rows(again)
            assert again.pool.total_pins() == 0
