"""Tests for the paged B+Tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.minidb.btree import BTree
from repro.minidb.buffer import BufferPool
from repro.minidb.disk import DiskManager

from .btree_model import (
    _RID,
    ModelBTree,
    check_invariants,
    check_search_many,
    page_images,
)


def make_tree(key_len=1, capacity=256):
    pool = BufferPool(DiskManager(), capacity=capacity)
    return BTree(pool, key_len=key_len), pool


class TestBasics:
    def test_empty_search(self):
        tree, _ = make_tree()
        assert tree.search((5,)) is None
        assert len(tree) == 0
        assert tree.height() == 1

    def test_insert_and_search(self):
        tree, _ = make_tree()
        tree.insert((5,), (1, 2))
        assert tree.search((5,)) == (1, 2)
        assert tree.search((6,)) is None

    def test_replace_existing_key(self):
        tree, _ = make_tree()
        tree.insert((5,), (1, 2))
        tree.insert((5,), (9, 9))
        assert tree.search((5,)) == (9, 9)
        assert len(tree) == 1

    def test_key_arity_enforced(self):
        tree, _ = make_tree(key_len=2)
        with pytest.raises(StorageError):
            tree.insert((1,), (0, 0))
        with pytest.raises(StorageError):
            tree.search((1, 2, 3))

    def test_key_len_bounds(self):
        pool = BufferPool(DiskManager(), capacity=16)
        with pytest.raises(StorageError):
            BTree(pool, key_len=0)
        with pytest.raises(StorageError):
            BTree(pool, key_len=5)


class TestSplits:
    def test_grows_in_height(self):
        tree, _ = make_tree()
        for i in range(2000):
            tree.insert((i,), (i, 0))
        assert tree.height() >= 2
        for i in range(2000):
            assert tree.search((i,)) == (i, 0)

    def test_reverse_insertion_order(self):
        tree, _ = make_tree()
        for i in reversed(range(1500)):
            tree.insert((i,), (i, 1))
        assert [k[0] for k, _ in tree.scan()] == list(range(1500))

    def test_random_insertion_matches_dict(self):
        tree, _ = make_tree(key_len=2)
        rng = random.Random(9)
        expected = {}
        for _ in range(3000):
            key = (rng.randrange(500), rng.randrange(500))
            value = (rng.randrange(10_000), rng.randrange(100))
            expected[key] = value
            tree.insert(key, value)
        for key, value in expected.items():
            assert tree.search(key) == value
        assert [k for k, _ in tree.scan()] == sorted(expected)

    def test_survives_tiny_pool(self):
        tree, pool = make_tree(capacity=4)
        for i in range(1200):
            tree.insert((i,), (i, 0))
        pool.clear()
        for i in range(0, 1200, 37):
            assert tree.search((i,)) == (i, 0)

    def test_split_cascade_on_capacity_one_pool(self):
        # Regression: a split allocates the right sibling while the node
        # being split (and its whole ancestor path) must stay resident.
        # Pre-fix a capacity-1 pool evicted the parent mid-split; the pin
        # stack now keeps the root-to-leaf path over capacity instead.
        tree, pool = make_tree(capacity=1)
        for i in range(2500):
            tree.insert((i,), (i, 0))
        assert tree.height() >= 2
        pool.clear()  # also proves no operation leaked a pin
        for i in range(0, 2500, 53):
            assert tree.search((i,)) == (i, 0)

    def test_remove_and_scan_on_capacity_one_pool(self):
        tree, pool = make_tree(capacity=1)
        for i in range(800):
            tree.insert((i,), (i, 0))
        for i in range(0, 800, 2):
            assert tree.remove((i,))
        assert [k[0] for k, _ in tree.scan()] == list(range(1, 800, 2))
        pool.clear()


class TestScan:
    def test_range_scan(self):
        tree, _ = make_tree()
        for i in range(0, 100, 2):
            tree.insert((i,), (i, 0))
        got = [k[0] for k, _ in tree.scan(low=(10,), high=(20,))]
        assert got == [10, 12, 14, 16, 18, 20]

    def test_range_scan_between_keys(self):
        tree, _ = make_tree()
        for i in range(0, 100, 10):
            tree.insert((i,), (i, 0))
        got = [k[0] for k, _ in tree.scan(low=(11,), high=(39,))]
        assert got == [20, 30]

    def test_full_scan_sorted(self):
        tree, _ = make_tree(key_len=2)
        keys = [(3, 1), (1, 9), (2, 2), (1, 1), (3, 0)]
        for i, key in enumerate(keys):
            tree.insert(key, (i, 0))
        assert [k for k, _ in tree.scan()] == sorted(keys)


class TestProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.integers(min_value=-(2**40), max_value=2**40),
            ),
            max_size=400,
        )
    )
    def test_matches_reference_dict(self, keys):
        tree, _ = make_tree(key_len=2, capacity=512)
        expected = {}
        for i, key in enumerate(keys):
            tree.insert(key, (i, i % 7))
            expected[key] = (i, i % 7)
        for key, value in expected.items():
            assert tree.search(key) == value
        assert [k for k, _ in tree.scan()] == sorted(expected)


def make_pair(key_len, capacity, leaf_cap=None, int_cap=None):
    """A real tree and the definitional model, each over its own pool.

    Optional tiny capacities (set on both) make a few dozen operations
    build a deep tree with internal splits."""
    tree, _ = make_tree(key_len=key_len, capacity=capacity)
    if leaf_cap is not None:
        tree._leaf_cap, tree._int_cap = leaf_cap, int_cap
    model = ModelBTree(
        BufferPool(DiskManager(), capacity=capacity),
        key_len,
        tree._leaf_cap,
        tree._int_cap,
    )
    return tree, model


def spread(n, key_len):
    """Order-preserving bijection from ints onto *key_len*-component keys."""
    parts = []
    for _ in range(key_len - 1):
        parts.append(n % 7)
        n //= 7
    return tuple(reversed(parts + [n]))


def apply(target, op, key, rid):
    return target.insert(key, rid) if op == "put" else target.remove(key)


class TestPoolAccounting:
    @staticmethod
    def key(i):
        return (i // 7, i % 7, 0, i)

    def three_level_tree(self, capacity):
        tree, pool = make_tree(key_len=4, capacity=capacity)
        n = 0
        while tree.height() < 3:
            for _ in range(2000):
                tree.insert(self.key(n), (n, 0))
                n += 1
        return tree, pool, n

    def test_height_costs_one_access_per_level(self):
        tree, pool, _ = self.three_level_tree(capacity=4096)
        before = pool.stats.snapshot()
        assert tree.height() == 3
        assert pool.stats.delta(before).accesses == 3
        assert pool.total_pins() == 0

    def test_search_costs_one_access_per_level(self):
        tree, pool, n = self.three_level_tree(capacity=4096)
        before = pool.stats.snapshot()
        assert tree.search(self.key(n - 1)) == (n - 1, 0)
        assert pool.stats.delta(before).accesses == 3

    def test_low_bounded_scan_on_capacity_one_pool(self):
        tree, pool, n = self.three_level_tree(capacity=1)
        low = (n // 14, 0, 0, 0)
        got = [k for k, _ in tree.scan(low=low)]
        assert got == [self.key(i) for i in range(n) if self.key(i) >= low]
        assert pool.total_pins() == 0
        pool.clear()


class TestAgainstModel:
    """The in-place tree must be the decode/edit/encode tree, byte for byte."""

    @pytest.mark.parametrize("capacity", [1, 3, 256])
    @pytest.mark.parametrize("key_len", [1, 2, 3, 4])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_any_sequence_matches_the_model(self, key_len, capacity, data):
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["put", "put", "put", "remove"]),
                    st.integers(-40, 40).map(lambda n: spread(n, key_len)),
                    st.tuples(st.integers(0, 2**40), st.integers(0, 2**20)),
                ),
                max_size=60,
            )
        )
        tree, model = make_pair(key_len, capacity, leaf_cap=4, int_cap=3)
        expected = {}
        for op, key, rid in steps:
            assert apply(tree, op, key, rid) == apply(model, op, key, rid)
            if op == "put":
                expected[key] = rid
            else:
                expected.pop(key, None)
            assert list(tree.scan()) == sorted(expected.items())
            assert check_invariants(tree) == check_invariants(model)
        assert page_images(tree) == page_images(model)
        for key, rid in expected.items():
            assert tree.search(key) == rid
        # Present keys, absent keys between and beyond the leaves, repeats,
        # and (when hypothesis shrinks that far) the empty list.
        sample = data.draw(
            st.lists(st.integers(-45, 45).map(lambda n: spread(n, key_len)))
        )
        check_search_many(tree, sample)
        check_search_many(tree, list(expected) + sample)

    @pytest.mark.parametrize("key_len", [1, 2, 3, 4])
    def test_real_capacities_match_the_model(self, key_len):
        tree, model = make_pair(key_len, capacity=256)
        rng = random.Random(key_len)
        expected = {}
        for _ in range(4000):
            key = spread(rng.randrange(-900, 900), key_len)
            if rng.random() < 0.2:
                assert tree.remove(key) == model.remove(key) == (key in expected)
                expected.pop(key, None)
            else:
                rid = (rng.randrange(2**40), rng.randrange(2**20))
                tree.insert(key, rid)
                model.insert(key, rid)
                expected[key] = rid
        shape = check_invariants(tree)
        assert shape == check_invariants(model)
        assert shape["height"] >= 2
        assert page_images(tree) == page_images(model)
        assert list(tree.scan()) == sorted(expected.items())

    def test_removing_every_key_leaves_a_searchable_empty_tree(self):
        tree, model = make_pair(2, capacity=3, leaf_cap=4, int_cap=3)
        keys = [(i // 9, i % 9) for i in range(200)]
        for i, key in enumerate(keys):
            tree.insert(key, (i, 0))
            model.insert(key, (i, 0))
        height = tree.height()
        assert height >= 3
        random.Random(4).shuffle(keys)
        for key in keys:
            assert tree.remove(key) and model.remove(key)
            assert tree.search(key) is None
        assert not tree.remove(keys[0])
        assert list(tree.scan()) == [] and len(tree) == 0
        assert tree.height() == height  # no rebalancing: the skeleton stays
        assert check_invariants(tree) == check_invariants(model)
        tree.insert((3, 3), (7, 7))
        assert tree.search((3, 3)) == (7, 7)
        assert list(tree.scan(low=(3, 0), high=(3, 8))) == [((3, 3), (7, 7))]


class TestSearchMany:
    """``search_many`` is ``search`` per key at one descent per leaf."""

    @staticmethod
    def small_leaves(n=40):
        tree, _ = make_tree(key_len=2, capacity=8)
        tree._leaf_cap, tree._int_cap = 4, 3
        keys = [(i // 5, 2 * (i % 5)) for i in range(n)]
        for i, key in enumerate(keys):
            tree.insert(key, (i, i % 3))
        return tree, keys

    def test_one_descent_per_leaf_visited(self):
        tree, keys = self.small_leaves()
        leaves = check_invariants(tree)["leaf_counts"]
        assert len(leaves) > 4
        assert check_search_many(tree, keys) == len(leaves)
        # Two keys of one leaf, one descent; a repeat costs nothing more.
        assert check_search_many(tree, [keys[0], keys[0], keys[1]]) == 1

    def test_misses_between_and_beyond_leaves(self):
        tree, keys = self.small_leaves()
        absent = [(a, b + 1) for a, b in keys] + [(-1, 0), (99, 0)]
        rids, _ = tree.search_many(sorted(absent))
        assert rids == [None] * len(absent)
        check_search_many(tree, keys + absent)

    def test_empty_input_and_empty_tree(self):
        tree, pool = make_tree()
        before = pool.stats.snapshot()
        assert tree.search_many([]) == ([], 0)
        assert pool.stats.delta(before).accesses == 0
        assert tree.search_many([(1,), (2,)]) == ([None, None], 2)

    def test_survives_capacity_one_pool(self):
        tree, pool = make_tree(capacity=1)
        for i in range(2500):
            tree.insert((i,), (i, 0))
        pool.clear()
        check_search_many(tree, [(i,) for i in range(-5, 2600, 7)])
        pool.clear()  # raises if a pin leaked

    def test_descending_input_is_a_storage_error(self):
        tree, keys = self.small_leaves()
        with pytest.raises(StorageError, match="ascending"):
            tree.search_many([keys[3], keys[2]])
        assert tree.pool.total_pins() == 0

    def test_key_arity_enforced(self):
        tree, keys = self.small_leaves()
        with pytest.raises(StorageError, match="arity"):
            tree.search_many([keys[0], (1, 2, 3)])

    def test_reading_past_the_leaf_end_is_caught(self):
        """The seeded mutation: a multi-key read that keeps resolving keys
        on the leaf it holds after passing that leaf's last cell reports
        every key of the later leaves absent."""
        tree, keys = self.small_leaves()

        def past_the_leaf_end(sorted_keys):
            rids = []
            with tree._leaf(sorted_keys[0]) as (page_id, page, _):
                with tree.pool.latch(page_id).read():
                    for key in sorted_keys:
                        _, offset, found = tree._locate(
                            page, tree._leaf_cell, key
                        )
                        rids.append(
                            _RID.unpack_from(page.buf, offset + tree._key.size)
                            if found
                            else None
                        )
            return rids, 1

        # Sound on one leaf, so the check below fails for the right reason.
        check_search_many(tree, keys[:2], search_many=past_the_leaf_end)
        with pytest.raises(AssertionError):
            check_search_many(tree, keys, search_many=past_the_leaf_end)
