"""Test-side reference for the B+Tree: a definitional model and a checker.

``ModelBTree`` is the algorithm ``repro.minidb.btree`` replaced, kept as the
definition the in-place implementation must reproduce: every edit decodes
all cells of the node into a list, edits the list and encodes all cells
back; a split cuts the list at ``len // 2``. It runs over its own buffer
pool, so a real tree fed the same operations allocates the same page ids
and must end up with the same pages.

``check_invariants`` walks a tree (real or model — it reads only the page
format) and returns its shape for comparison. ``check_search_many`` holds
the multi-key read to its definition: one ``search`` per key.
"""

from __future__ import annotations

import struct

from repro.minidb.btree import BTree
from repro.minidb.page import (
    HEADER_SIZE,
    KIND_BTREE_INTERNAL,
    KIND_BTREE_LEAF,
)

_RID = struct.Struct("<qi")
_CHILD = struct.Struct("<q")
_COUNT = struct.Struct("<H")


def _decode(tree, page) -> list[tuple[tuple, tuple]]:
    """All ``(key, value)`` cells of a node; the value is a rid tuple on
    leaves and a 1-tuple child id on internal nodes."""
    value = _RID if page.kind == KIND_BTREE_LEAF else _CHILD
    key = struct.Struct("<" + "q" * tree.key_len)
    (count,) = _COUNT.unpack_from(page.buf, 2)
    cells = []
    pos = HEADER_SIZE
    for _ in range(count):
        cells.append(
            (key.unpack_from(page.buf, pos), value.unpack_from(page.buf, pos + key.size))
        )
        pos += key.size + value.size
    return cells


def _encode(tree, page, cells) -> None:
    value = _RID if page.kind == KIND_BTREE_LEAF else _CHILD
    key = struct.Struct("<" + "q" * tree.key_len)
    pos = HEADER_SIZE
    for k, v in cells:
        key.pack_into(page.buf, pos, *k)
        value.pack_into(page.buf, pos + key.size, *v)
        pos += key.size + value.size
    _COUNT.pack_into(page.buf, 2, len(cells))


def _position(cells, key) -> int:
    """Index of the first cell whose key is ``>= key``."""
    return sum(1 for k, _ in cells if k < key)


class ModelBTree:
    """Decode → edit the list → encode, one node at a time."""

    def __init__(self, pool, key_len: int, leaf_cap: int, int_cap: int):
        self.pool = pool
        self.key_len = key_len
        self._leaf_cap = leaf_cap
        self._int_cap = int_cap
        self.root_page, page = pool.new_page(KIND_BTREE_LEAF)
        _encode(self, page, [])
        pool.unpin(self.root_page)

    def insert(self, key: tuple, rid: tuple[int, int]) -> None:
        split = self._insert(self.root_page, key, rid)
        if split is not None:
            sep_key, right_page = split
            new_root_id, new_root = self.pool.new_page(KIND_BTREE_INTERNAL)
            new_root.next_page = self.root_page
            _encode(self, new_root, [(sep_key, (right_page,))])
            self.pool.unpin(new_root_id)
            self.root_page = new_root_id

    def remove(self, key: tuple) -> bool:
        page_id = self.root_page
        while True:
            held = page_id
            page = self.pool.pin(held)
            try:
                if page.kind == KIND_BTREE_LEAF:
                    cells = _decode(self, page)
                    pos = _position(cells, key)
                    if pos == len(cells) or cells[pos][0] != key:
                        return False
                    del cells[pos]
                    self._write(page_id, page, cells)
                    return True
                page_id = self._child(page, key)
            finally:
                self.pool.unpin(held)

    def _write(self, page_id, page, cells) -> None:
        with self.pool.latch(page_id).write():
            _encode(self, page, cells)
            self.pool.mark_dirty(page_id)

    def _child(self, page, key) -> int:
        child = page.next_page
        for sep, (covers,) in _decode(self, page):
            if sep <= key:
                child = covers
        return child

    def _insert(self, page_id, key, rid):
        page = self.pool.pin(page_id)
        try:
            if page.kind == KIND_BTREE_LEAF:
                cells = _decode(self, page)
                pos = _position(cells, key)
                if pos < len(cells) and cells[pos][0] == key:
                    cells[pos] = (key, rid)
                else:
                    cells.insert(pos, (key, rid))
                if len(cells) <= self._leaf_cap:
                    self._write(page_id, page, cells)
                    return None
                mid = len(cells) // 2
                right_id, right = self.pool.new_page(KIND_BTREE_LEAF)
                right.next_page = page.next_page
                self._write(right_id, right, cells[mid:])
                page.next_page = right_id
                self._write(page_id, page, cells[:mid])
                self.pool.unpin(right_id)
                return cells[mid][0], right_id
            split = self._insert(self._child(page, key), key, rid)
            if split is None:
                return None
            sep_key, right_child = split
            cells = _decode(self, page)
            cells.insert(_position(cells, sep_key), (sep_key, (right_child,)))
            if len(cells) <= self._int_cap:
                self._write(page_id, page, cells)
                return None
            mid = len(cells) // 2
            up_key, (up_child,) = cells[mid]
            right_id, right = self.pool.new_page(KIND_BTREE_INTERNAL)
            right.next_page = up_child
            self._write(right_id, right, cells[mid + 1 :])
            self._write(page_id, page, cells[:mid])
            self.pool.unpin(right_id)
            return up_key, right_id
        finally:
            self.pool.unpin(page_id)


def check_invariants(tree: BTree | ModelBTree) -> dict:
    """Assert the structural invariants of *tree* and return its shape.

    Per node: count within capacity, keys strictly increasing and inside the
    bounds its parent's separators promise. All leaves at one depth. The
    leaf chain visits the leaves in key order. No pin outlives the walk.
    The shape — height, page count, per-leaf cell counts and per-internal
    separators, both in key order — is what two trees built by the same
    operations must share.
    """
    pool = tree.pool
    leaves: list[tuple[int, list, int]] = []  # (page_id, keys, next_page)
    separators: list[list[tuple]] = []
    depths: set[int] = set()

    def walk(page_id: int, low, high, depth: int) -> None:
        with pool.reading(page_id) as page:
            kind, next_page = page.kind, page.next_page
            cells = _decode(tree, page)
        assert kind in (KIND_BTREE_LEAF, KIND_BTREE_INTERNAL), (page_id, kind)
        keys = [k for k, _ in cells]
        assert all(a < b for a, b in zip(keys, keys[1:])), (page_id, keys)
        assert all(low is None or k >= low for k in keys), (page_id, low, keys)
        assert all(high is None or k < high for k in keys), (page_id, high, keys)
        if kind == KIND_BTREE_LEAF:
            assert len(cells) <= tree._leaf_cap, page_id
            depths.add(depth)
            leaves.append((page_id, keys, next_page))
            return
        assert 1 <= len(cells) <= tree._int_cap, page_id
        separators.append(keys)
        children = [next_page] + [child for _, (child,) in cells]
        bounds = [low] + keys + [high]
        for child, lo, hi in zip(children, bounds, bounds[1:]):
            walk(child, lo, hi, depth + 1)

    walk(tree.root_page, None, None, 1)
    assert len(depths) == 1, depths
    chain = [page_id for page_id, _, _ in leaves]
    assert [nxt for _, _, nxt in leaves] == chain[1:] + [-1]
    flat = [k for _, keys, _ in leaves for k in keys]
    assert all(a < b for a, b in zip(flat, flat[1:]))
    assert pool.total_pins() == 0
    return {
        "height": depths.pop(),
        "pages": pool.disk.num_pages,
        "leaf_counts": [len(keys) for _, keys, _ in leaves],
        "separators": separators,
    }


def page_images(tree: BTree | ModelBTree) -> list[bytes]:
    """Every allocated page of the tree's pool, by page id."""
    pool = tree.pool
    images = []
    for page_id in range(pool.disk.num_pages):
        with pool.reading(page_id):
            images.append(pool.page_image(page_id))
    return images


def check_search_many(tree: BTree, sample, search_many=None) -> int:
    """Assert ``search_many`` over the sorted *sample* is one ``search`` per
    key — at one pool access per level per descent, at least one key per
    descent, no pin left behind — and return the number of descents.

    *search_many* substitutes an implementation under test (a mutant)."""
    keys = sorted(sample)
    expected = [tree.search(key) for key in keys]
    height = tree.height()
    before = tree.pool.stats.snapshot()
    rids, descents = (search_many or tree.search_many)(keys)
    assert rids == expected, (keys, rids, expected)
    assert tree.pool.stats.delta(before).accesses == descents * height
    assert descents <= len(keys) and (descents > 0) == bool(keys)
    assert tree.pool.total_pins() == 0
    return descents
