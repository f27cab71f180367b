"""RWLatch edge cases: reentrancy, misuse detection, introspection, metrics.

These pin down the latch semantics the sanitizer builds on (PR 7): the
read side is re-entrant (and stays grantable under a *pending* writer —
the writer-starvation behaviour callers rely on), the guaranteed
self-deadlocks raise instead of hanging, releases are validated per
thread, and contended waits are charged to the metrics registry.
"""

import threading
import time

import pytest

from repro.errors import StorageError
from repro.minidb.latch import RWLatch
from repro.minidb.metrics import REGISTRY
from repro.minidb.sanitize import dynamic


@pytest.fixture(autouse=True)
def _sanitizer_off():
    """These tests pin the latch's *own* misuse errors (StorageError).

    Under ``SANITIZE=1`` the tracker would raise SAND05 first for the
    self-deadlock shapes — that path is covered by
    test_sanitizer_dynamic.py — so run this file with the tracker off and
    restore whatever was active afterwards.
    """
    was_enabled = dynamic.enabled()
    dynamic.disable()
    yield
    if was_enabled:
        dynamic.enable()


class TestReentrantRead:
    def test_same_thread_read_stacks(self):
        latch = RWLatch(name="t")
        latch.acquire_read()
        latch.acquire_read()
        ident = threading.get_ident()
        assert latch.holders()["readers"] == {ident: 2}
        latch.release_read()
        assert latch.holders()["readers"] == {ident: 1}
        latch.release_read()
        assert not latch.held()

    def test_reentrant_read_under_pending_writer(self):
        """A reader may re-enter while a writer *waits* (not holds).

        Readers only block on a granted writer, so the re-entrant read
        cannot deadlock against the queued writer — the writer simply
        waits for the full read count to drain (writer starvation is the
        accepted trade; this test pins the behaviour down).
        """
        latch = RWLatch(name="t")
        writer_done = threading.Event()
        latch.acquire_read()

        def writer():
            latch.acquire_write()
            latch.release_write()
            writer_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.monotonic() + 5.0
        while latch.waiting() == 0:
            assert time.monotonic() < deadline, "writer never queued"
            time.sleep(0.001)
        # The writer is blocked; the re-entrant read is granted anyway.
        latch.acquire_read()
        assert latch.holders()["readers"][threading.get_ident()] == 2
        assert not writer_done.is_set()
        latch.release_read()
        latch.release_read()
        thread.join(timeout=5.0)
        assert writer_done.is_set()


class TestMisuse:
    def test_double_release_read_raises(self):
        latch = RWLatch(name="t")
        latch.acquire_read()
        latch.release_read()
        with pytest.raises(StorageError, match="double release"):
            latch.release_read()

    def test_release_read_from_non_holder_raises(self):
        latch = RWLatch(name="t")
        acquired = threading.Event()
        release = threading.Event()

        def holder():
            latch.acquire_read()
            acquired.set()
            release.wait(timeout=5.0)
            latch.release_read()

        thread = threading.Thread(target=holder)
        thread.start()
        assert acquired.wait(timeout=5.0)
        # This thread never acquired, even though the latch *is* held.
        with pytest.raises(StorageError, match="double release"):
            latch.release_read()
        release.set()
        thread.join(timeout=5.0)

    def test_double_release_write_raises(self):
        latch = RWLatch(name="t")
        latch.acquire_write()
        latch.release_write()
        with pytest.raises(StorageError, match="double release"):
            latch.release_write()

    def test_upgrade_raises_instead_of_hanging(self):
        latch = RWLatch(name="t")
        with latch.read():
            with pytest.raises(StorageError, match="upgrade"):
                latch.acquire_write()
        assert not latch.held()

    def test_reentrant_write_raises(self):
        latch = RWLatch(name="t")
        with latch.write():
            with pytest.raises(StorageError, match="self-deadlock"):
                latch.acquire_write()

    def test_read_under_own_write_raises(self):
        latch = RWLatch(name="t")
        with latch.write():
            with pytest.raises(StorageError, match="self-deadlock"):
                latch.acquire_read()


class TestGuards:
    def test_write_guard_releases_on_exception(self):
        latch = RWLatch(name="t")
        with pytest.raises(ValueError):
            with latch.write():
                assert latch.held()
                raise ValueError("boom")
        assert not latch.held()
        with latch.write():  # re-acquirable: nothing leaked
            pass

    def test_read_guard_releases_on_exception(self):
        latch = RWLatch(name="t")
        with pytest.raises(ValueError):
            with latch.read():
                raise ValueError("boom")
        assert not latch.held()

    def test_guard_picks_side_at_runtime(self):
        latch = RWLatch(name="t")
        ident = threading.get_ident()
        with latch.guard(write=False):
            assert latch.holders() == {"readers": {ident: 1}, "writer": None}
        with latch.guard(write=True):
            assert latch.holders() == {"readers": {}, "writer": ident}
        assert not latch.held()


class TestIntrospection:
    def test_holders_snapshot(self):
        latch = RWLatch(name="t")
        assert latch.holders() == {"readers": {}, "writer": None}
        with latch.write():
            assert latch.holders()["writer"] == threading.get_ident()
        assert latch.waiting() == 0

    def test_repr_reflects_state(self):
        latch = RWLatch(name="page:7")
        assert "free" in repr(latch)
        with latch.write():
            assert "write-held" in repr(latch)


class TestWaitMetrics:
    def test_contended_acquire_charges_registry(self):
        latch = RWLatch(name="page:93")
        count_before = REGISTRY.counter("latch.wait_count").value
        kind_before = REGISTRY.counter("latch.page.wait_count").value
        ms_before = REGISTRY.counter("latch.wait_ms").value
        held = threading.Event()

        def writer():
            latch.acquire_write()
            held.set()
            # Hold until the main thread is visibly queued, so the read
            # below is contended by construction, not by sleep timing.
            deadline = time.monotonic() + 5.0
            while latch.waiting() == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            latch.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        assert held.wait(timeout=5.0)
        latch.acquire_read()
        latch.release_read()
        thread.join(timeout=5.0)
        assert REGISTRY.counter("latch.wait_count").value == count_before + 1
        assert REGISTRY.counter("latch.page.wait_count").value == kind_before + 1
        assert REGISTRY.counter("latch.wait_ms").value >= ms_before

    def test_uncontended_acquire_is_free(self):
        latch = RWLatch(name="page:94")
        before = REGISTRY.counter("latch.wait_count").value
        with latch.read():
            pass
        with latch.write():
            pass
        assert REGISTRY.counter("latch.wait_count").value == before


class TestCallerHeldLock:
    """A latch built over a caller's lock (the buffer pool's, for its frame
    latches): the ``_locked`` read pair runs under that lock, already held,
    and is the same shared side ``acquire_read`` takes."""

    def test_locked_read_pair_is_the_shared_side(self):
        lock = threading.RLock()
        latch = RWLatch("page:7", lock)
        me = threading.get_ident()
        with lock:
            latch.acquire_read_locked(me)
        assert latch.holders() == {"readers": {me: 1}, "writer": None}
        with pytest.raises(StorageError, match="upgrade"):
            latch.acquire_write()
        with latch.read():  # re-entrant with the public side
            assert latch.holders()["readers"] == {me: 2}
        with lock:
            latch.release_read_locked(me)
            with pytest.raises(StorageError, match="double release"):
                latch.release_read_locked(me)
        assert not latch.held()

    def test_locked_read_waits_for_a_writer_releasing_the_callers_lock(self):
        lock = threading.RLock()
        latch = RWLatch("page:8", lock)
        waits = REGISTRY.counter("latch.page.wait_count").value
        got = []

        def reader():
            with lock:
                latch.acquire_read_locked(threading.get_ident())
                got.append("read")
                latch.release_read_locked(threading.get_ident())

        latch.acquire_write()
        thread = threading.Thread(target=reader)
        thread.start()
        deadline = time.monotonic() + 5.0
        while latch.waiting() == 0:  # takes `lock`: the waiter let go of it
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert got == []
        latch.release_write()
        thread.join(timeout=5.0)
        assert not thread.is_alive() and got == ["read"]
        assert REGISTRY.counter("latch.page.wait_count").value == waits + 1

    def test_last_reader_wakes_a_waiting_writer(self):
        latch = RWLatch("page:9")
        latch.acquire_read()
        done = threading.Event()

        def writer():
            with latch.write():
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.monotonic() + 5.0
        while latch.waiting() == 0:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        latch.release_read()
        assert done.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
