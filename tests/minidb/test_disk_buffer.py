"""Tests for the disk manager, device models and buffer pool."""

import os
import threading
import time

import pytest

from repro.errors import StorageError
from repro.minidb.buffer import BufferPool
from repro.minidb.disk import DiskManager, hdd_model, ram_model, ssd_model
from repro.minidb.metrics import REGISTRY
from repro.minidb.page import KIND_HEAP, PAGE_SIZE, Page
from repro.minidb.sanitize import dynamic


def store(pool, pid, cell):
    """Insert *cell* the way the engine mutates a page — through the write
    guard — so these tests also run with ``SANITIZE=1``."""
    with pool.writing(pid) as page:
        page.insert(cell)


class TestDeviceModels:
    def test_hdd_random_reads_are_expensive(self):
        hdd = hdd_model()
        assert hdd.random_read_ms > 50 * hdd.sequential_read_ms

    def test_ssd_much_faster_than_hdd(self):
        assert hdd_model().random_read_ms > 50 * ssd_model().random_read_ms

    def test_ram_is_free(self):
        ram = ram_model()
        assert ram.random_read_ms == 0.0


class TestDiskManager:
    def test_allocate_and_roundtrip(self):
        disk = DiskManager()
        pid = disk.allocate()
        buf = bytearray(PAGE_SIZE)
        buf[0] = 42
        disk.write_page(pid, buf)
        assert disk.read_page(pid)[0] == 42

    def test_out_of_range(self):
        disk = DiskManager()
        with pytest.raises(StorageError):
            disk.read_page(0)
        disk.allocate()
        with pytest.raises(StorageError):
            disk.read_page(1)

    def test_short_write_rejected(self):
        disk = DiskManager()
        pid = disk.allocate()
        with pytest.raises(StorageError):
            disk.write_page(pid, b"short")

    def test_sequential_detection(self):
        disk = DiskManager(device=hdd_model())
        for _ in range(3):
            disk.allocate()
        disk.read_page(0)
        disk.read_page(1)
        disk.read_page(2)
        disk.read_page(0)  # jump back: random again
        assert disk.stats.reads == 4
        assert disk.stats.sequential_reads == 2
        expected = 2 * hdd_model().random_read_ms + 2 * hdd_model().sequential_read_ms
        assert disk.stats.simulated_read_ms == pytest.approx(expected)

    def test_file_persistence(self, tmp_path):
        path = os.path.join(tmp_path, "db.pages")
        disk = DiskManager(path=path)
        pid = disk.allocate()
        buf = bytearray(PAGE_SIZE)
        buf[:5] = b"hello"
        disk.write_page(pid, buf)
        disk.close()
        reopened = DiskManager(path=path)
        assert reopened.num_pages == 1
        assert bytes(reopened.read_page(pid)[:5]) == b"hello"
        reopened.close()

    def test_unaligned_file_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.pages")
        with open(path, "wb") as handle:
            handle.write(b"x" * 100)
        with pytest.raises(StorageError, match="not page aligned"):
            DiskManager(path=path)

    def test_stats_delta(self):
        disk = DiskManager(device=ssd_model())
        disk.allocate()
        before = disk.stats.snapshot()
        disk.read_page(0)
        delta = disk.stats.delta(before)
        assert delta.reads == 1
        assert delta.simulated_read_ms > 0


class TestPerThreadRunAccounting:
    """Sequential-read runs are per I/O stream (thread), so concurrent
    scans from concurrent sessions never break each other's run or
    double-charge latency."""

    def make_disk(self, pages):
        disk = DiskManager(device=hdd_model())
        for _ in range(pages):
            disk.allocate()
        return disk

    def test_interleaved_threads_keep_their_own_runs(self):
        import threading

        disk = self.make_disk(20)
        turn = threading.Event()
        done = threading.Event()

        def other():
            # Strictly interleave with the main thread, page by page.
            for page in range(10, 20):
                turn.wait()
                turn.clear()
                disk.read_page(page)
                done.set()

        worker = threading.Thread(target=other)
        worker.start()
        for page in range(10):
            disk.read_page(page)
            turn.set()
            done.wait()
            done.clear()
        worker.join()
        # Each stream pays one random seek then stays sequential, even
        # though the two scans interleaved read-for-read.
        assert disk.stats.reads == 20
        assert disk.stats.sequential_reads == 18
        hdd = hdd_model()
        assert disk.stats.simulated_read_ms == pytest.approx(
            2 * hdd.random_read_ms + 18 * hdd.sequential_read_ms
        )

    def test_write_breaks_every_threads_run(self):
        import threading

        disk = self.make_disk(6)
        disk.read_page(0)
        disk.read_page(1)  # sequential run in progress on this thread
        writer = threading.Thread(
            target=disk.write_page, args=(5, bytearray(PAGE_SIZE))
        )
        writer.start()
        writer.join()
        disk.read_page(2)  # the head moved: random again
        assert disk.stats.sequential_reads == 1

    def test_concurrent_overlapping_prefetch_charges_each_page_once(self):
        import threading

        disk = self.make_disk(12)
        pool = BufferPool(disk, capacity=32)
        disk.reset_stats()
        barrier = threading.Barrier(2)

        def run(page_ids):
            barrier.wait()
            pool.prefetch(page_ids)

        a = threading.Thread(target=run, args=(range(0, 8),))
        b = threading.Thread(target=run, args=(range(4, 12),))
        a.start()
        b.start()
        a.join()
        b.join()
        # Overlap pages 4..7 were fetched by whichever prefetch won the
        # pool lock; the loser saw them resident and skipped them. Each
        # page is read (and its latency charged) exactly once, and each
        # thread's residual run is priced as its own stream: one random
        # head move per thread, sequential for the rest — regardless of
        # which thread went first.
        assert disk.stats.reads == 12
        assert pool.stats.misses == 12
        assert disk.stats.sequential_reads == 10
        hdd = hdd_model()
        assert disk.stats.simulated_read_ms == pytest.approx(
            2 * hdd.random_read_ms + 10 * hdd.sequential_read_ms
        )


class TestBufferPool:
    def make(self, capacity=4):
        disk = DiskManager(device=hdd_model())
        return BufferPool(disk, capacity=capacity), disk

    def test_capacity_validation(self):
        disk = DiskManager()
        with pytest.raises(StorageError):
            BufferPool(disk, capacity=0)

    def new_page(self, pool, kind=KIND_HEAP):
        """Allocate and immediately unpin (tests mostly want evictable pages)."""
        pid, page = pool.new_page(kind)
        pool.unpin(pid)
        return pid, page

    def test_hit_vs_miss(self):
        pool, disk = self.make()
        pid, page = self.new_page(pool)
        pool.get(pid)
        assert pool.stats.hits == 1
        assert pool.stats.misses == 0
        pool.clear()
        pool.get(pid)
        assert pool.stats.misses == 1

    def test_eviction_writes_back_dirty(self):
        pool, disk = self.make(capacity=2)
        pid, _ = self.new_page(pool)
        store(pool, pid, b"dirty data")
        # admit two more pages, evicting the first
        self.new_page(pool)
        self.new_page(pool)
        assert not pool.resident(pid)
        assert pool.stats.evictions >= 1
        recovered = pool.get(pid)
        assert recovered.read(0) == b"dirty data"

    def test_mark_dirty_requires_resident(self):
        pool, _ = self.make(capacity=2)
        pid, _ = self.new_page(pool)
        self.new_page(pool)
        self.new_page(pool)  # evicts pid
        with pytest.raises(StorageError):
            pool.mark_dirty(pid)

    def test_clear_flushes(self):
        pool, disk = self.make()
        pid, _ = self.new_page(pool)
        store(pool, pid, b"payload")
        pool.clear()
        assert len(pool) == 0
        fresh = Page(disk.read_page(pid))
        assert fresh.read(0) == b"payload"

    def test_lru_order(self):
        pool, _ = self.make(capacity=2)
        a, _ = self.new_page(pool)
        b, _ = self.new_page(pool)
        pool.get(a)  # a becomes most-recent
        self.new_page(pool)  # evicts b, not a
        assert pool.resident(a)
        assert not pool.resident(b)

    def test_an_open_statement_never_reaches_the_device(self):
        """No-steal: neither a flush nor an eviction writes a page the open
        statement dirtied; its rollback puts content and dirty flag back."""
        pool, disk = self.make(capacity=2)
        pid, _ = self.new_page(pool)
        store(pool, pid, b"committed")
        pool.flush()
        pool.begin()
        store(pool, pid, b"uncommitted")
        fresh, _ = pool.new_page(KIND_HEAP)
        pool.flush()
        third, _ = self.new_page(pool)  # over capacity: nothing is evictable
        assert pool.resident(pid) and len(pool) == 3
        assert Page(disk.read_page(pid)).slot_count == 1
        assert pool.dirtied() == [pid, fresh, third]
        pool.unpin(fresh)
        with pytest.raises(StorageError, match="uncommitted"):
            pool.clear()  # a restart would drop the undo images' pages
        assert pool.rollback() and not pool.rollback()
        assert pool.get(pid).slot_count == 1 and pool.page_image(fresh) == bytes(PAGE_SIZE)
        pool.clear()

    def test_clear_resets_sequential_run(self):
        pool, disk = self.make()
        pid, _ = self.new_page(pool)
        pool.clear()
        pool.get(pid)  # must be charged as a random read, not sequential
        assert disk.stats.sequential_reads == 0


class TestPins:
    """Pin/unpin reference counts: the eviction-while-referenced fix."""

    def make(self, capacity=2):
        disk = DiskManager(device=hdd_model())
        return BufferPool(disk, capacity=capacity), disk

    def test_new_page_is_pinned(self):
        pool, _ = self.make()
        pid, _ = pool.new_page(KIND_HEAP)
        assert pool.pin_count(pid) == 1
        pool.unpin(pid)
        assert pool.pin_count(pid) == 0

    def test_pinned_page_never_evicted(self):
        # Pre-fix, admitting pages beyond capacity evicted the page the
        # caller was still mutating; mark_dirty then crashed "not resident".
        pool, _ = self.make(capacity=2)
        pid, page = pool.new_page(KIND_HEAP)  # stays pinned
        for _ in range(4):
            other, _ = pool.new_page(KIND_HEAP)
            pool.unpin(other)
        assert pool.resident(pid)
        store(pool, pid, b"still here")  # pre-fix: StorageError
        pool.unpin(pid)

    def test_all_pinned_overflows_capacity(self):
        pool, _ = self.make(capacity=1)
        a, _ = pool.new_page(KIND_HEAP)
        b, _ = pool.new_page(KIND_HEAP)  # both pinned: pool goes over capacity
        assert pool.resident(a) and pool.resident(b)
        assert len(pool) == 2
        pool.unpin(a)
        pool.unpin(b)
        # The next admission evicts back down to capacity.
        c, _ = pool.new_page(KIND_HEAP)
        pool.unpin(c)
        assert len(pool) <= 2

    def test_unpin_errors(self):
        pool, _ = self.make()
        pid, _ = pool.new_page(KIND_HEAP)
        pool.unpin(pid)
        with pytest.raises(StorageError, match="not pinned"):
            pool.unpin(pid)
        with pytest.raises(StorageError, match="not resident"):
            pool.unpin(999)

    def test_writing_guard_pins_for_its_block(self):
        pool, _ = self.make()
        pid, _ = pool.new_page(KIND_HEAP)
        pool.unpin(pid)
        with pool.writing(pid):
            assert pool.pin_count(pid) == 1
        assert pool.pin_count(pid) == 0

    def test_clear_refuses_while_pinned(self):
        pool, _ = self.make()
        pid, _ = pool.new_page(KIND_HEAP)
        with pytest.raises(StorageError, match="pinned"):
            pool.clear()
        pool.unpin(pid)
        pool.clear()


class _CountingLock:
    """A re-entrant lock that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.RLock()
        self.acquisitions = 0

    def acquire(self, *args):
        got = self._lock.acquire(*args)
        self.acquisitions += got
        return got

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


class TestReadGuard:
    """``pool.reading(pid)``: one pin plus the shared side of the frame's
    latch, for the block — the one way page content is read."""

    def make(self, capacity=4, pages=1):
        pool = BufferPool(DiskManager(device=hdd_model()), capacity=capacity)
        pids = []
        for i in range(pages):
            pid, _ = pool.new_page(KIND_HEAP)
            store(pool, pid, b"cell %d" % i)
            pool.unpin(pid)
            pids.append(pid)
        return pool, pids

    def test_pins_and_latches_for_the_block_only(self):
        pool, (pid,) = self.make()
        me = threading.get_ident()
        with pool.reading(pid) as page:
            assert page.read(0) == b"cell 0"
            assert pool.pin_count(pid) == 1
            assert pool.latch(pid).holders() == {"readers": {me: 1}, "writer": None}
        assert pool.pin_count(pid) == 0
        assert not pool.latch(pid).held()

    def test_releases_exactly_once_when_the_body_raises(self):
        pool, (pid,) = self.make()
        with pytest.raises(ZeroDivisionError):
            with pool.reading(pid):
                1 / 0
        assert pool.total_pins() == 0
        assert not pool.latch(pid).held()
        with pool.latch(pid).write():  # a leaked reader would block this
            pass

    def test_counts_one_access_and_reads_through_a_miss(self):
        pool, (pid,) = self.make()
        before = pool.stats.snapshot()
        with pool.reading(pid):
            pass
        assert pool.stats.delta(before).hits == 1
        pool.clear()
        with pool.reading(pid) as page:
            assert page.read(0) == b"cell 0"
        assert (pool.stats.hits, pool.stats.misses) == (0, 1)
        assert pool.thread_stats().misses == 1

    def test_on_a_held_pin_counts_no_second_access(self):
        pool, (pid,) = self.make()
        page = pool.pin(pid)
        before = pool.stats.snapshot()
        with pool.reading(pid, pinned=True) as same:
            assert same is page
            assert pool.pin_count(pid) == 2
        assert pool.pin_count(pid) == 1
        assert pool.stats.delta(before).accesses == 0
        pool.unpin(pid)

    def test_a_hot_touch_is_two_lock_acquisitions(self):
        # Frame table, pin counts and every frame latch's state change under
        # the pool's one lock, so the guard finds, pins and latches in one
        # hold and gives both back in a second.
        pool = BufferPool(DiskManager(device=hdd_model()), capacity=4)
        pool._lock = counting = _CountingLock()
        pid, _ = pool.new_page(KIND_HEAP)
        pool.unpin(pid)
        assert pool.latch(pid)._cond._lock is counting
        counting.acquisitions = 0
        with pool.reading(pid):
            assert counting.acquisitions == 1
        assert counting.acquisitions == 2
        assert pool.total_pins() == 0

    def test_upgrade_inside_the_guard_raises(self):
        pool, (pid,) = self.make()
        with pool.reading(pid):
            # SAND05 under SANITIZE=1, the latch's own StorageError without.
            with pytest.raises((StorageError, dynamic.SanitizerError)):
                with pool.latch(pid).write():
                    pass
        assert pool.total_pins() == 0 and not pool.latch(pid).held()

    def test_reading_under_own_write_latch_raises_and_leaves_no_pin(self):
        pool, (pid,) = self.make()
        with pool.writing(pid):
            with pytest.raises((StorageError, dynamic.SanitizerError)):
                with pool.reading(pid):
                    pass
            assert pool.pin_count(pid) == 1  # only the write guard's pin

    def test_blocks_behind_a_writer_then_proceeds(self):
        REGISTRY.reset()
        pool, (pid,) = self.make()
        entered, release = threading.Event(), threading.Event()
        seen = []

        def reader():
            entered.set()
            with pool.reading(pid) as page:  # the slow path: a writer holds it
                seen.append(page.read(0))

        with pool.writing(pid):
            thread = threading.Thread(target=reader)
            thread.start()
            assert entered.wait(5)
            deadline = time.monotonic() + 5
            while not pool.latch(pid).waiting():
                assert time.monotonic() < deadline
                time.sleep(0.001)
            # Blocked with its pin already taken: the frame cannot be
            # evicted from under the waiting reader.
            assert pool.pin_count(pid) == 2 and seen == []
        thread.join(5)
        assert not thread.is_alive() and seen == [b"cell 0"]
        assert REGISTRY.counter("latch.page.wait_count").value == 1
        assert pool.total_pins() == 0

    def test_a_thousand_guarded_reads_across_evictions_leave_no_pin(self):
        pool, pids = self.make(capacity=4, pages=12)
        for i in range(1000):
            with pool.reading(pids[i * 7 % len(pids)]) as page:
                assert page.read(0) == b"cell %d" % (i * 7 % len(pids))
        assert pool.stats.evictions > 100  # the 4-page pool kept turning over
        assert pool.total_pins() == 0
        assert len(pool) <= 4

    def test_a_guard_left_open_is_a_pin_leak_at_statement_end(self):
        was = dynamic.TRACKER
        tracker = dynamic.enable()
        try:
            pool, (pid,) = self.make()
            guard = pool.reading(pid)
            guard.__enter__()
            with pytest.raises(dynamic.SanitizerError) as leak:
                tracker.check_statement_end()
            assert leak.value.code == "SAND02"
            with pytest.raises(dynamic.SanitizerError) as upgrade:
                with pool.latch(pid).write():
                    pass
            assert upgrade.value.code == "SAND05"
        finally:
            dynamic.TRACKER = was


class TestIOAccounting:
    """Satellite fixes: write-breaks-sequential-run and allocate charging."""

    def test_write_between_reads_breaks_sequential_run(self):
        # Pre-fix, read(0) write(5) read(1) charged read(1) as sequential:
        # the head moved to page 5 in between, so it cannot be.
        disk = DiskManager(device=hdd_model())
        for _ in range(6):
            disk.allocate()
        disk.reset_stats()
        disk.reset_access_history()
        disk.read_page(0)
        disk.write_page(5, bytearray(PAGE_SIZE))
        disk.read_page(1)
        assert disk.stats.sequential_reads == 0

    def test_allocate_breaks_sequential_run(self):
        disk = DiskManager(device=hdd_model())
        disk.allocate()
        disk.allocate()
        disk.read_page(0)
        disk.allocate()
        disk.read_page(1)
        assert disk.stats.sequential_reads == 0

    def test_reset_access_history_is_public(self):
        disk = DiskManager(device=hdd_model())
        disk.allocate()
        disk.allocate()
        disk.read_page(0)
        disk.reset_access_history()
        disk.read_page(1)  # would be sequential without the reset
        assert disk.stats.sequential_reads == 0

    def test_allocate_charges_write_in_memory(self):
        disk = DiskManager(device=hdd_model())
        disk.allocate()
        assert disk.stats.writes == 1
        assert disk.stats.simulated_write_ms == pytest.approx(
            hdd_model().write_ms
        )

    def test_allocate_charges_identically_file_backed(self, tmp_path):
        # Pre-fix, only the file-backed path physically wrote the zero page
        # and neither path charged it: bulk-load write counts diverged from
        # what the device actually did.
        mem = DiskManager(device=hdd_model())
        filed = DiskManager(
            path=os.path.join(tmp_path, "db.pages"), device=hdd_model()
        )
        for disk in (mem, filed):
            for _ in range(3):
                disk.allocate()
        assert mem.stats.writes == filed.stats.writes == 3
        assert mem.stats.simulated_write_ms == pytest.approx(
            filed.stats.simulated_write_ms
        )
        filed.close()

    def test_clear_resets_io_stats_exactly(self):
        disk = DiskManager(device=hdd_model())
        pool = BufferPool(disk, capacity=2)
        pid, _ = pool.new_page(KIND_HEAP)
        store(pool, pid, b"x")
        pool.unpin(pid)
        pool.clear()
        # After the cold-cache restart every counter starts from zero...
        assert disk.stats.reads == 0
        assert disk.stats.writes == 0
        assert disk.stats.simulated_read_ms == 0.0
        assert disk.stats.simulated_write_ms == 0.0
        assert pool.stats.hits == pool.stats.misses == pool.stats.evictions == 0
        # ...so post-restart deltas are exact: one random read, nothing else.
        pool.get(pid)
        assert disk.stats.reads == 1
        assert disk.stats.writes == 0
        assert disk.stats.sequential_reads == 0
        assert disk.stats.simulated_read_ms == pytest.approx(
            hdd_model().random_read_ms
        )

    def test_thread_stats_match_global_single_threaded(self):
        disk = DiskManager(device=hdd_model())
        pool = BufferPool(disk, capacity=2)
        pid, _ = pool.new_page(KIND_HEAP)
        pool.unpin(pid)
        pool.get(pid)
        assert disk.thread_stats().reads == disk.stats.reads
        assert disk.thread_stats().writes == disk.stats.writes
        assert pool.thread_stats().hits == pool.stats.hits
        assert pool.thread_stats().misses == pool.stats.misses
