"""A B+Tree leaf decoded once per residency of its frame.

``BTree.search_many`` keeps a leaf's cells on its buffer frame as a key ->
rid map. Whatever changes the page or drops the frame — an insert that
splits the leaf, a ``remove``, a statement rollback, eviction,
``BufferPool.clear`` — must drop the map, and the next ``search_many`` must
answer from the page's new content, also for readers that share the maps
while a writer runs between their statements. The cache moves no page
I/O: the pool's hits and misses and the device's reads are pinned on a
tiny pool.
"""

import struct
import sys
import threading

import pytest

from repro.minidb.btree import BTree
from repro.minidb.buffer import BufferPool
from repro.minidb.disk import DiskManager
from repro.minidb.engine import Database
from tests.minidb.reference import run_engine, run_reference

KEYS = [(k,) for k in range(0, 3000, 3)]

#: Every (hub, hour) of 60 hubs x 8 hours, probed through an index nested
#: loop whose probe side is a column batch: the kNN/OTM shape.
PROBE_ALL = """
WITH p AS (SELECT UNNEST(hubs) AS hub, UNNEST(hours) AS hour FROM q WHERE id = 1)
SELECT a.hub, a.hour, a.vs FROM aux a, p WHERE a.hub = p.hub AND a.hour = p.hour
"""


def tree_on(pool):
    tree = BTree(pool, key_len=1)
    for i, key in enumerate(KEYS):
        tree.insert(key, (1000 + i, i % 7))
    return tree


def leaf_of(tree, key):
    with tree._leaf(key) as (page_id, _, _):
        return page_id


def cached(pool, page_id):
    """The frame's key -> rid map of a resident leaf (None: not decoded)."""
    frame = pool._frames.get(page_id)
    return None if frame is None else frame.rows


def rid_bytes(tree, pool, key):
    """The offset of *key*'s rid in its leaf's page image."""
    page_id = leaf_of(tree, key)
    with pool.reading(page_id) as page:
        _, offset, found = tree._locate(page, tree._leaf_cell, key)
    assert found
    return page_id, offset + tree._key.size


@pytest.fixture()
def pool():
    return BufferPool(DiskManager(), capacity=64)


class TestInvalidation:
    def test_search_many_leaves_the_map_on_the_frame(self, pool):
        tree = tree_on(pool)
        keys = [(3,), (4,), (6,)]
        rids, descents = tree.search_many(keys)
        assert rids == [(1001, 1), None, (1002, 2)] and descents == 1
        page_id = leaf_of(tree, keys[0])
        assert cached(pool, page_id)[(6,)] == (1002, 2)
        assert tree.search_many(keys) == (rids, 1)  # answered from the map

    def test_a_splitting_insert_drops_the_map(self, pool):
        tree = tree_on(pool)
        page_id = leaf_of(tree, (3,))
        tree.search_many([(3,)])
        last = max(cached(pool, page_id))
        new = [(-k,) for k in range(1, tree._leaf_cap)]  # overfill the leftmost leaf
        for key in new:
            tree.insert(key, (7, key[0]))
        assert leaf_of(tree, last) != page_id  # the upper half moved right
        assert cached(pool, page_id) is None
        keys = sorted(new + [(3,), last])
        rids, _ = tree.search_many(keys)
        assert rids == [(7, k[0]) if k[0] < 0 else tree.search(k) for k in keys]
        assert rids[-2:] == [(1001, 1), (1000 + last[0] // 3, last[0] // 3 % 7)]

    def test_remove_drops_the_map(self, pool):
        tree = tree_on(pool)
        page_id = leaf_of(tree, (6,))
        tree.search_many([(6,)])
        assert tree.remove((6,))
        assert cached(pool, page_id) is None
        assert tree.search_many([(3,), (6,), (9,)])[0] == [(1001, 1), None, (1003, 3)]

    @pytest.mark.parametrize("file_backed", [False, True], ids=["memory", "file"])
    def test_a_statement_rollback_drops_the_map(self, tmp_path, file_backed):
        db = Database(path=str(tmp_path / "t.db")) if file_backed else Database()
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))")
        db.executemany("INSERT INTO t VALUES ($1, $2)", [(k, k) for k in range(0, 900, 3)])
        index, pool = db.catalog.get("t").index, db.pool
        page_id = leaf_of(index, (3,))
        committed = index.search_many([(3,), (4,)])
        pool.begin()  # the open statement inserts (4,) and reads it back
        index.insert((4,), (99, 1))
        assert index.search_many([(3,), (4,)])[0][1] == (99, 1)
        assert cached(pool, page_id)
        assert pool.rollback()
        assert cached(pool, page_id) is None
        assert index.search_many([(3,), (4,)]) == committed
        assert db.execute("SELECT a FROM t WHERE a = 4").rows == []
        db.close()

    def test_eviction_drops_the_map(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        tree = tree_on(pool)
        pool.flush()
        page_id, at = rid_bytes(tree, pool, (300,))
        tree.search_many([(300,)])
        assert cached(pool, page_id)
        tree.search_many([(2997,)])  # another leaf: the 2-page pool evicts
        assert not pool.resident(page_id)
        image = bytearray(disk.read_page(page_id))
        image[at : at + 12] = bytes(range(12))  # a new rid behind the pool
        disk.write_page(page_id, bytes(image))
        (rid,), _ = tree.search_many([(300,)])
        assert rid == struct.unpack("<qi", bytes(range(12)))
        assert rid == tree.search((300,))

    def test_clear_drops_the_map(self, pool):
        tree = tree_on(pool)
        pool.flush()
        page_id, at = rid_bytes(tree, pool, (300,))
        tree.search_many([(300,)])
        pool.clear()
        assert cached(pool, page_id) is None
        image = bytearray(pool.disk.read_page(page_id))
        image[at : at + 12] = bytes(12)
        pool.disk.write_page(page_id, bytes(image))
        assert tree.search_many([(300,)])[0] == [(0, 0)] == [tree.search((300,))]


class TestPageIoUnchanged:
    def test_tiny_pool_accesses_equal_the_undecoded_tree(self):
        """Pinned figures of the tree before leaves were kept decoded: two
        passes of one key sample on a 3-page pool, the second with every
        leaf the first left resident."""
        disk = DiskManager()
        pool = BufferPool(disk, capacity=3)
        tree = tree_on(pool)
        pool.clear()
        sample = sorted({(k,) for k in range(0, 3000, 41)} | {(1,), (2998,)})
        figures = []
        for _ in range(2):
            before, reads = pool.stats.snapshot(), disk.stats.reads
            rids, descents = tree.search_many(sample)
            delta = pool.stats.delta(before)
            figures.append((delta.hits, delta.misses, disk.stats.reads - reads, descents))
            assert rids == [tree.search(key) for key in sample]
        assert figures == [(5, 5, 5, 5), (6, 4, 4, 5)]  # (hits, misses, reads, descents)
        assert pool.total_pins() == 0


class TestConcurrentReaders:
    def test_readers_sharing_leaf_maps_see_each_write(self):
        """Readers (more threads than cores, a short switch interval) fill
        and share the leaf maps of one table while a writer, between their
        statements, inserts a round of rows between the stable keys
        (splitting leaves) and deletes it again, until the readers finish.
        Each answer holds every stable row and no writer row or one whole
        round, one the writer had committed while the statement ran: a map
        that outlived its page would answer with a deleted round."""
        db = Database()
        db.execute(
            "CREATE TABLE aux (hub BIGINT, hour BIGINT, vs BIGINT[], PRIMARY KEY (hub, hour))"
        )
        db.execute("CREATE TABLE q (id BIGINT, hubs BIGINT[], hours BIGINT[], PRIMARY KEY (id))")
        stable = {(hub, hour, (hub, hour)) for hub in range(60) for hour in range(0, 8, 2)}
        db.executemany("INSERT INTO aux VALUES ($1, $2, $3)", [(h, t, list(v)) for h, t, v in stable])
        keys = [(hub, hour) for hub in range(60) for hour in range(8)]
        db.execute("INSERT INTO q VALUES (1, $1, $2)", tuple(map(list, zip(*keys))))
        assert "Index Nested Loop" in str(db.execute("EXPLAIN " + PROBE_ALL).rows)
        # state[0]: the writer's statement in flight or last committed
        # (2r + 1 inserts round r, 2r + 2 deletes it).
        state, done, failures, seen = [0], threading.Event(), [], set()

        def writer():
            session = db.session(tracing=False)
            for r in range(500):
                if done.is_set():
                    return
                state[0] = 2 * r + 1
                session.executemany(
                    "INSERT INTO aux VALUES ($1, $2, $3)",
                    [(hub, hour, [hub, -hour, r]) for hub in range(60) for hour in (1, 3, 5, 7)],
                )
                state[0] = 2 * r + 2
                session.execute("DELETE FROM aux WHERE hour IN (1, 3, 5, 7)")

        def reader():
            session = db.session(tracing=False)
            for _ in range(20):
                before = state[0]
                rows = {(h, t, tuple(v)) for h, t, v in session.execute(PROBE_ALL).rows}
                states = range(max(before - 1, 0), state[0] + 1)
                written = rows - stable
                rounds = {v[2] for _, _, v in written}
                seen.update(rounds)
                whole = len(rounds) == 1 and len(written) == 240
                if not stable <= rows or not (
                    whole and 2 * min(rounds) + 1 in states
                    if written
                    else any(s % 2 == 0 for s in states)
                ):
                    failures.append((before, states.stop - 1, sorted(rounds)))

        def guarded(fn):
            def run():
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=guarded(reader)) for _ in range(5)]
            write = threading.Thread(target=guarded(writer))
            for thread in [write, *readers]:
                thread.start()
            for thread in readers:
                thread.join(timeout=120)
            done.set()
            write.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [write, *readers])
        assert failures == []
        assert seen  # the readers did overlap the writer
        assert {(h, t, tuple(v)) for h, t, v in db.execute(PROBE_ALL).rows} == stable
        assert run_engine(db, PROBE_ALL) == run_reference(db, PROBE_ALL)
        assert db.pool.total_pins() == 0
