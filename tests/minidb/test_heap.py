"""Tests for heap files and overflow chains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, StorageError
from repro.minidb.buffer import BufferPool
from repro.minidb.disk import DiskManager
from repro.minidb.engine import Database
from repro.minidb.heap import _INLINE_LIMIT, HeapFile


def make_heap(capacity=64):
    pool = BufferPool(DiskManager(), capacity=capacity)
    return HeapFile(pool), pool


class TestSmallRecords:
    def test_roundtrip(self):
        heap, _ = make_heap()
        rid = heap.insert(b"hello")
        assert heap.read(rid) == b"hello"

    def test_rids_are_stable(self):
        heap, _ = make_heap()
        rids = [heap.insert(bytes([i]) * 10) for i in range(200)]
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i]) * 10

    def test_spills_to_new_pages(self):
        heap, _ = make_heap()
        for i in range(100):
            heap.insert(b"x" * 500)
        assert len(heap.page_ids()) > 1

    def test_scan_in_insert_order(self):
        heap, _ = make_heap()
        payloads = [bytes([i % 256]) * (i % 300 + 1) for i in range(150)]
        for payload in payloads:
            heap.insert(payload)
        assert [rec for _, rec in heap.scan()] == payloads


class TestOverflow:
    def test_large_record_roundtrip(self):
        heap, _ = make_heap()
        big = bytes(range(256)) * 200  # 51200 bytes, ~7 overflow pages
        rid = heap.insert(big)
        assert heap.read(rid) == big

    def test_boundary_record(self):
        heap, _ = make_heap()
        # exactly at the inline limit and one past it
        at_limit = b"a" * (_INLINE_LIMIT - 1)
        past_limit = b"b" * _INLINE_LIMIT
        r1 = heap.insert(at_limit)
        r2 = heap.insert(past_limit)
        assert heap.read(r1) == at_limit
        assert heap.read(r2) == past_limit

    def test_mixed_scan(self):
        heap, _ = make_heap()
        payloads = [b"small", b"L" * 30_000, b"tiny", b"M" * 9_000]
        for payload in payloads:
            heap.insert(payload)
        assert [rec for _, rec in heap.scan()] == payloads

    def test_overflow_survives_tiny_pool(self):
        heap, pool = make_heap(capacity=3)
        big = b"Z" * 40_000
        rid = heap.insert(big)
        pool.clear()
        assert heap.read(rid) == big


class TestTinyPool:
    """Regression tests for eviction-while-referenced (fixed via pins).

    Pre-fix, extending the heap chain on a capacity-1 pool evicted the old
    tail while it was still being mutated and ``mark_dirty`` crashed with
    "not resident"; overflow writes had the same hazard.
    """

    def test_two_page_insert_on_capacity_one_pool(self):
        heap, pool = make_heap(capacity=1)
        payloads = [bytes([i]) * 500 for i in range(40)]  # forces a 2nd page
        rids = [heap.insert(p) for p in payloads]
        assert len(heap.page_ids()) > 1
        for rid, payload in zip(rids, payloads):
            assert heap.read(rid) == payload

    def test_overflow_chain_on_capacity_one_pool(self):
        heap, pool = make_heap(capacity=1)
        big = b"Q" * 40_000  # ~5 overflow pages
        rid = heap.insert(big)
        assert heap.read(rid) == big

    def test_no_pins_leak(self):
        heap, pool = make_heap(capacity=1)
        heap.insert(b"y" * 30_000)
        for i in range(30):
            heap.insert(bytes([i]) * 400)
        list(heap.scan())
        # clear() raises if any operation forgot to unpin.
        pool.clear()

    def test_scan_interleaved_with_reads(self):
        # The scan's current page stays pinned while overflow chains are
        # followed in between; pre-fix it could be evicted mid-scan.
        heap, pool = make_heap(capacity=2)
        payloads = [b"s1", b"B" * 20_000, b"s2", b"C" * 20_000, b"s3"]
        for p in payloads:
            heap.insert(p)
        assert [rec for _, rec in heap.scan()] == payloads


class TestDelete:
    def test_deleted_records_skipped_by_scan(self):
        heap, _ = make_heap()
        keep = heap.insert(b"keep")
        kill = heap.insert(b"kill")
        heap.delete(kill)
        assert [rec for _, rec in heap.scan()] == [b"keep"]
        assert heap.read(keep) == b"keep"


class TestProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(min_size=0, max_size=20_000), min_size=1, max_size=15
        )
    )
    def test_roundtrip_many(self, payloads):
        heap, pool = make_heap(capacity=8)
        rids = [heap.insert(p) for p in payloads]
        pool.clear()  # force re-reads from "disk"
        for rid, payload in zip(rids, payloads):
            assert heap.read(rid) == payload
        assert [rec for _, rec in heap.scan()] == payloads

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_read_many_is_read_per_rid(self, data):
        # Inline and overflow cells, rids spanning pages, any order, repeats.
        payloads = data.draw(
            st.lists(
                st.binary(min_size=0, max_size=12_000), min_size=1, max_size=15
            )
        )
        heap, pool = make_heap(capacity=data.draw(st.sampled_from([1, 3, 64])))
        rids = [heap.insert(p) for p in payloads]
        picks = data.draw(st.lists(st.sampled_from(rids)))
        pool.clear()
        assert heap.read_many(picks) == [heap.read(rid) for rid in picks]
        assert pool.total_pins() == 0


class TestReadMany:
    def test_one_access_per_run_of_same_page_rids(self):
        heap, pool = make_heap()
        rids = [heap.insert(bytes([i]) * 500) for i in range(40)]
        pages = heap.page_ids()
        assert len(pages) > 2
        before = pool.stats.snapshot()
        assert heap.read_many(rids) == [bytes([i]) * 500 for i in range(40)]
        assert pool.stats.delta(before).accesses == len(pages)
        assert heap.read_many([]) == []

    def test_overflow_chains_read_with_no_heap_page_held(self):
        heap, pool = make_heap(capacity=1)
        payloads = [b"s1", b"B" * 20_000, b"s2", b"C" * 20_000]
        rids = [heap.insert(p) for p in payloads]
        read_overflow = heap._read_overflow
        held = []

        def watched(first_page, total):
            held.append(pool.total_pins())
            return read_overflow(first_page, total)

        heap._read_overflow = watched
        assert heap.read_many(rids) == payloads
        assert held == [0, 0]  # at most one page pinned at any time
        pool.clear()

    def test_tombstoned_slot_raises_what_read_raises(self):
        heap, pool = make_heap()
        keep = heap.insert(b"keep")
        kill = heap.insert(b"kill")
        heap.delete(kill)
        with pytest.raises(StorageError) as single:
            heap.read(kill)
        with pytest.raises(StorageError) as many:
            heap.read_many([keep, kill])
        assert str(many.value) == str(single.value)
        assert pool.total_pins() == 0

    def test_rid_off_the_heap_is_a_storage_error(self):
        heap, pool = make_heap()
        big = heap.insert(b"L" * 30_000)
        (overflow_page,) = [
            p for p in range(pool.disk.num_pages) if p not in heap.page_ids()
        ][:1]
        with pytest.raises(StorageError, match="heap page"):
            heap.read_many([big, (overflow_page, 0)])
        assert pool.total_pins() == 0


class TestPageIds:
    @staticmethod
    def chain_walk(heap) -> list[int]:
        """The chain as the pages link it: one pool access per page."""
        out, page_id = [], heap.first_page
        while page_id != -1:
            out.append(page_id)
            page_id = heap.pool.get(page_id).next_page
        return out

    def test_read_from_memory_after_restart(self, tmp_path):
        db = Database(path=str(tmp_path / "ids.minidb"))
        db.execute("CREATE TABLE t (a BIGINT, xs BIGINT[], PRIMARY KEY (a))")
        db.executemany(
            "INSERT INTO t VALUES ($1, $2)",
            [(i, list(range(i % 3 * 900))) for i in range(300)],
        )
        # A statement that grows the chain, then fails on a duplicate key:
        # its pages and its chain length roll back.
        with pytest.raises(CatalogError):
            db.executemany(
                "INSERT INTO t VALUES ($1, $2)",
                [(1000 + i, [i] * 400) for i in range(60)] + [(5, [])],
            )
        heap = db.catalog.get("t").heap
        db.restart()
        before = db.pool.stats.snapshot()
        ids = heap.page_ids()
        assert db.pool.stats.delta(before).accesses == 0
        assert len(ids) > 2
        assert ids == self.chain_walk(heap)
        db.close()
