"""Dynamic concurrency sanitizer: every SAND* rule fires, and only then.

Each violation class gets a deliberate reproduction (docs/SANITIZER.md
documents the rules); the suite also proves the sanitizer is silent on
clean workloads and completely inert when disabled.
"""

import threading

import pytest

from repro.errors import SanitizerError
from repro.minidb.buffer import BufferPool
from repro.minidb.disk import DiskManager
from repro.minidb.engine import Database
from repro.minidb.latch import RWLatch
from repro.minidb.page import KIND_HEAP
from repro.minidb.sanitize import dynamic
from repro.minidb.session import Session


@pytest.fixture
def tracker():
    """A fresh tracker per test; always disabled again afterwards."""
    dynamic.disable()
    try:
        yield dynamic.enable()
    finally:
        dynamic.disable()


def _fresh_pool(capacity=8):
    return BufferPool(DiskManager(), capacity=capacity)


class TestLatchOrderInversion:
    def test_sand01_inversion_reports_both_stacks(self, tracker):
        a = RWLatch(name="latch:a")
        b = RWLatch(name="latch:b")
        with a.read():
            with b.read():  # records the edge a -> b
                pass
        with b.read():
            with pytest.raises(SanitizerError) as exc:
                a.acquire_read()  # b -> a closes the cycle
        err = exc.value
        assert err.code == "SAND01"
        assert "inversion" in str(err)
        assert "latch:a" in str(err) and "latch:b" in str(err)
        # Both sides of the conflict are attributed: the stack holding b,
        # the stack acquiring a, and the recorded first a -> b hop.
        assert len(err.traces) == 3
        assert all("acquire" in trace for trace in err.traces)

    def test_consistent_order_stays_silent(self, tracker):
        a = RWLatch(name="latch:a")
        b = RWLatch(name="latch:b")
        for _ in range(3):
            with a.read():
                with b.write():
                    pass

    def test_reentrant_read_is_not_an_edge(self, tracker):
        a = RWLatch(name="latch:a")
        b = RWLatch(name="latch:b")
        with b.read():
            with a.read():
                with a.read():  # re-entry: must not create a -> a or cycle
                    pass
        with a.read():
            pass


class TestSelfDeadlock:
    def test_sand05_upgrade(self, tracker):
        latch = RWLatch(name="latch:u")
        with latch.read():
            with pytest.raises(SanitizerError) as exc:
                latch.acquire_write()
        assert exc.value.code == "SAND05"

    def test_sand05_reentrant_write(self, tracker):
        latch = RWLatch(name="latch:w")
        with latch.write():
            with pytest.raises(SanitizerError) as exc:
                latch.acquire_write()
        assert exc.value.code == "SAND05"

    def test_sand05_read_under_own_write(self, tracker):
        latch = RWLatch(name="latch:rw")
        with latch.write():
            with pytest.raises(SanitizerError) as exc:
                latch.acquire_read()
        assert exc.value.code == "SAND05"


class TestPinDiscipline:
    def test_sand02_pin_leak_attributed_to_call_site(self, tracker):
        pool = _fresh_pool()
        page_id, _ = pool.new_page(KIND_HEAP)  # records this pin's stack
        with pytest.raises(SanitizerError) as exc:
            tracker.check_statement_end()
        err = exc.value
        assert err.code == "SAND02"
        assert f"page(s) {page_id}" in str(err)
        assert any("new_page" in trace for trace in err.traces)
        # The table was cleared: the next statement starts clean.
        tracker.check_statement_end()

    def test_balanced_pins_are_silent(self, tracker):
        pool = _fresh_pool()
        page_id, _ = pool.new_page(KIND_HEAP)
        pool.unpin(page_id)
        tracker.check_statement_end()

    def test_sand03_unpin_from_wrong_thread(self, tracker):
        pool = _fresh_pool()
        page_id, _ = pool.new_page(KIND_HEAP)
        pool.unpin(page_id)

        def pin_elsewhere():
            pool.pin(page_id)

        thread = threading.Thread(target=pin_elsewhere)
        thread.start()
        thread.join(timeout=5.0)
        # The frame *is* pinned (by the other thread) so the pool-level
        # check passes; the per-thread ledger catches the confusion.
        with pytest.raises(SanitizerError) as exc:
            pool.unpin(page_id)
        assert exc.value.code == "SAND03"

    def test_sand04_mutation_without_write_latch(self, tracker):
        pool = _fresh_pool()
        page_id, _ = pool.new_page(KIND_HEAP)
        with pytest.raises(SanitizerError) as exc:
            pool.mark_dirty(page_id)
        assert exc.value.code == "SAND04"
        with pool.latch(page_id).write():
            pool.mark_dirty(page_id)  # the blessed shape is silent
        pool.unpin(page_id)

    def test_sand04_read_latch_is_not_enough(self, tracker):
        pool = _fresh_pool()
        page_id, _ = pool.new_page(KIND_HEAP)
        with pool.latch(page_id).read():
            with pytest.raises(SanitizerError) as exc:
                pool.mark_dirty(page_id)
        assert exc.value.code == "SAND04"
        pool.unpin(page_id)

    def test_sand06_eviction_of_latched_frame(self, tracker):
        pool = _fresh_pool(capacity=2)
        victim, _ = pool.new_page(KIND_HEAP)
        pool.unpin(victim)
        latch = pool.latch(victim)
        latch.acquire_read()  # deliberately latched without a pin
        try:
            with pytest.raises(SanitizerError) as exc:
                for _ in range(2):  # overflow the pool; victim is LRU
                    pid, _ = pool.new_page(KIND_HEAP)
                    pool.unpin(pid)
            assert exc.value.code == "SAND06"
        finally:
            latch.release_read()


class TestSessionIntegration:
    def _leaky_session(self, db):
        """A session whose executor pins the meta page and never unpins."""
        session = Session(db)
        real = session._executor

        def leaky(params, collector):
            executor = real(params, collector)
            run = executor.run

            def leaking_run(p):
                db.pool.pin(0)
                return run(p)

            executor.run = leaking_run
            return executor

        session._executor = leaky
        return session

    def test_pin_leak_surfaces_at_statement_end(self, tracker):
        db = Database()
        db.execute("CREATE TABLE t (v BIGINT, PRIMARY KEY (v))")
        db.execute("INSERT INTO t VALUES ($1)", (7,))
        session = self._leaky_session(db)
        with pytest.raises(SanitizerError) as exc:
            session.execute("SELECT v FROM t")
        assert exc.value.code == "SAND02"
        # The leak check cleared this thread's pin ledger, so even the
        # repair unpin would read as SAND03 — suspend the tracker for it.
        dynamic.disable()
        db.pool.unpin(0)
        dynamic.enable()
        # The statement latch was released and the pin table cleared: the
        # session keeps working.
        clean = Session(db)
        assert clean.execute("SELECT v FROM t").rows == [(7,)]

    def test_primary_error_wins_over_leak_check(self, tracker):
        db = Database()
        db.execute("CREATE TABLE t (v BIGINT, PRIMARY KEY (v))")
        session = Session(db)
        with pytest.raises(Exception) as exc:
            session.execute("SELECT v FROM missing")
        assert not isinstance(exc.value, SanitizerError)
        # ...and the failed statement left no stale pin bookkeeping.
        assert session.execute("SELECT v FROM t").rows == []

    def test_clean_workload_is_silent(self, tracker):
        db = Database()
        db.execute("CREATE TABLE t (v BIGINT, w BIGINT, PRIMARY KEY (v))")
        session = Session(db)
        for i in range(40):
            session.execute("INSERT INTO t VALUES ($1, $2)", (i, i * i))
        assert session.execute(
            "SELECT count(v) FROM t WHERE w >= $1", (4,)
        ).rows == [(38,)]
        db.execute("VACUUM t")
        assert tracker.thread_pin_count() == 0


class TestDisabled:
    def test_hooks_are_inert_when_disabled(self):
        dynamic.disable()
        assert not dynamic.enabled()
        pool = _fresh_pool()
        page_id, _ = pool.new_page(KIND_HEAP)
        pool.mark_dirty(page_id)  # no write latch: only SANITIZE=1 objects
        pool.unpin(page_id)

    def test_enable_disable_roundtrip(self):
        dynamic.disable()
        tracker = dynamic.enable()
        assert dynamic.enabled()
        assert dynamic.enable() is tracker  # idempotent
        dynamic.disable()
        assert dynamic.TRACKER is None
