"""WAL durability: crash-point matrix, replay idempotence, rollback.

Crashes are simulated with the WAL's fault injector: a hook raises
:class:`~repro.errors.CrashPoint` at a named point, the engine deliberately
skips all cleanup for that exception (a dead process runs none), and
``simulate_crash`` drops the handles exactly as SIGKILL would. Every test
then reopens the file and checks the recovered state against what a
correct redo log must produce.
"""

import pytest

from repro.errors import CatalogError, CrashPoint, DatabaseError
from repro.minidb.engine import Database

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
            # Second row collides with seeded key 0; the batch commits as
            # one statement, so the valid first row must vanish with it.
            session.execute_many(
                "INSERT INTO t VALUES ($1, $2)", [(60, 1), (0, 9)]
            )
        assert rows(db) == sorted(SEED_ROWS)
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


class TestWalDisabled:
    def test_wal_false_still_round_trips_via_checkpoint(self, db_path):
        db = Database(path=db_path, wal=False)
        db.execute(DDL)
        db.execute("INSERT INTO t VALUES (1, 2)")
        assert db.wal is None
        db.close()
        with Database.open(db_path, wal=False) as again:
            assert rows(again) == [(1, 2)]


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
        db.simulate_crash()
        with Database.open(db_path) as again:
            assert rows(again) == []
            again.execute("INSERT INTO t SELECT k, v FROM src WHERE k < 5")
            assert rows(again) == [(i, 3 * i) for i in range(5)]

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
