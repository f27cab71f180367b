"""A paged B+Tree index over fixed-width integer keys.

PTLDB's tables are keyed by small integer tuples — ``(v)`` for *lout*/*lin*,
``(hub, td)`` for the naive kNN table, ``(hub, dephour)`` for the optimized
tables — so the index stores composite keys of ``key_len`` int64 components.
Leaf entries map a key to a heap rid ``(page_id, slot)``; leaves are chained
left-to-right for range scans. All node accesses go through the buffer pool,
so index descent costs real (simulated) page reads exactly like PostgreSQL's
primary-key lookups do in the paper.

Node layout (within the generic 16-byte page header; docs/STORAGE.md,
"B+Tree nodes"): fixed-width cells packed back to back in key order, counted
by the header's slot-count field.
    * leaf: cells ``key || rid``; ``next_page`` chains to the right sibling.
    * internal: cells ``key || child`` where *child* covers keys ``>= key``;
      ``next_page`` holds the leftmost child (keys below the first
      separator).

Nodes are never decoded to edit them. Every operation binary-searches the
packed buffer (``_locate``); an insert shifts the cells behind the position
up by one cell with a single slice assignment and packs the new cell into
the gap, a remove shifts them down, a replace rewrites the rid. A full node
splits at the middle of its ``capacity + 1`` cells: the upper half moves to
a fresh right page as one byte slice and the separator goes to the parent
(a leaf keeps it as the right page's first key; an internal node hands it
up, its child becoming the right page's leftmost child). Only ``scan``
and ``search_many`` decode a whole leaf, the latter once per residency.

Concurrency: descents pin each node while its cells are examined (so a
lookup's node can't be evicted mid-binary-search even on a tiny pool; a
multi-key lookup keeps its leaf for every key the leaf covers), and
insertion pins the whole root-to-leaf path while splits propagate — the
structural reason a capacity-1 pool survives arbitrary split cascades.
Content access goes through the frame latch, one page at a time: the search
and the edit of one node happen under one hold of its write latch. The pin
and latch disciplines are enforced by the concurrency sanitizer
(``SANITIZE=1`` dynamically, ``repro sanitize`` statically — see
docs/SANITIZER.md).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from contextlib import contextmanager
from itertools import chain

from repro.errors import StorageError
from repro.minidb.buffer import BufferPool
from repro.minidb.page import (
    HEADER_SIZE,
    KIND_BTREE_INTERNAL,
    KIND_BTREE_LEAF,
    PAGE_SIZE,
    Page,
)

_RID = struct.Struct("<qi")
_CHILD = struct.Struct("<q")
_COUNT_OFFSET = 2  # reuse the generic header's u16 slot-count field


def _set_count(page: Page, count: int) -> None:
    struct.pack_into("<H", page.buf, _COUNT_OFFSET, count)


def _get_count(page: Page) -> int:
    return struct.unpack_from("<H", page.buf, _COUNT_OFFSET)[0]


class DuplicateKey(StorageError):
    """A store-path insert found its key present; nothing was written."""


def _fill(page: Page, cells: bytes, cell: int) -> None:
    """Make *cells* (whole packed cells of width *cell*) the node's content."""
    page.buf[HEADER_SIZE : HEADER_SIZE + len(cells)] = cells
    _set_count(page, len(cells) // cell)


class BTree:
    """A unique-key B+Tree. Keys are tuples of ``key_len`` ints."""

    def __init__(self, pool: BufferPool, key_len: int, root_page: int | None = None):
        if not 1 <= key_len <= 4:
            raise StorageError("B+Tree supports 1..4 key components")
        self.pool = pool
        self.key_len = key_len
        self._key = struct.Struct("<" + "q" * key_len)
        self._cells = struct.Struct(self._key.format + _RID.format[1:])  # key, rid
        self._leaf_cell = self._cells.size
        self._int_cell = self._key.size + _CHILD.size
        body = PAGE_SIZE - HEADER_SIZE
        self._leaf_cap = body // self._leaf_cell
        self._int_cap = body // self._int_cell
        if root_page is None:
            # The fresh root is admitted dirty and is unreachable by other
            # threads until self.root_page is published, so the count write
            # needs no write guard.
            root_page, page = pool.new_page(KIND_BTREE_LEAF)
            _set_count(page, 0)
            pool.unpin(root_page)
        self.root_page = root_page

    # -- public API ----------------------------------------------------
    def insert(self, key: tuple, rid) -> None:
        """Insert *key* -> *rid*; replaces the rid if the key exists.

        A callable *rid* is the store path's (``Table.insert_many``): the
        leaf is searched first, under a read guard, and a present key
        raises :class:`DuplicateKey` with ``rid`` never called and nothing
        written; else ``rid()`` stores the row and returns its rid, with the
        root-to-leaf path pinned and no node latched. One descent."""
        split = self._insert(self.root_page, self._check_key(key), rid)
        if split is not None:
            sep_key, right_page = split
            new_root_id, _ = self.pool.new_page(KIND_BTREE_INTERNAL)
            with self.pool.writing(new_root_id, pinned=True) as new_root:
                new_root.next_page = self.root_page
                cell = self._key.pack(*sep_key) + _CHILD.pack(right_page)
                _fill(new_root, cell, self._int_cell)
            self.pool.unpin(new_root_id)
            self.root_page = new_root_id

    def search(self, key: tuple) -> tuple[int, int] | None:
        """Exact lookup; returns the rid or ``None``."""
        key = self._check_key(key)
        page_id = self.root_page
        while True:  # the descent of _leaf, one read guard per node
            with self.pool.reading(page_id) as page:
                if page.kind != KIND_BTREE_LEAF:
                    page_id = self._descend(page, key)
                    continue
                _, offset, found = self._locate(page, self._leaf_cell, key)
                if found:
                    return _RID.unpack_from(page.buf, offset + self._key.size)
                return None

    def search_many(
        self, keys: list[tuple]
    ) -> tuple[list[tuple[int, int] | None], int]:
        """Exact lookups of ascending *keys* (repeats allowed): their rids,
        ``None`` for absent keys, and the number of descents it took.

        One descent per leaf visited: under its pin and read guard the
        leaf's cells are its frame's key -> rid map (unpacked once per
        residency), where every following key ``<=`` its last cell is looked
        up. A key beyond the last cell starts the next descent, so each
        descent consumes at least one key and a key between two leaves is a
        miss. The keys are checked per batch.
        """
        if set(map(len, keys)) - {self.key_len} or not set(map(type, chain(*keys))) <= {int}:
            keys = [self._check_key(key) for key in keys]
        if keys != sorted(keys):
            raise StorageError("search_many needs keys in ascending order")
        rids: list[tuple[int, int] | None] = []
        i, descents = 0, 0
        while i < len(keys):
            descents += 1
            with self._leaf(keys[i]) as (page_id, page, _):
                guard = self.pool.reading(page_id, pinned=True)
                with guard as page:
                    cells = guard.decoded_rows()
                    if not cells:  # key -> rid, in key order
                        cells.update(self._read_leaf_cells(page))
            last = next(reversed(cells), None)  # the run of keys <= last: this leaf's
            end = i + 1 if last is None else max(i + 1, bisect_right(keys, last, i))
            rids += map(cells.get, keys[i:end])
            i = end
        return rids, descents

    def remove(self, key: tuple) -> bool:
        """Delete *key* from its leaf (no rebalancing — underfull leaves are
        tolerated, like PostgreSQL's lazily-cleaned B-Trees). Returns whether
        the key was present."""
        key = self._check_key(key)
        cell = self._leaf_cell
        with self._leaf(key) as (page_id, page, _):
            with self.pool.reading(page_id, pinned=True):
                end, offset, found = self._locate(page, cell, key)
            if found:  # the exclusive statement latch keeps the leaf as read
                with self.pool.writing(page_id, pinned=True):
                    page.buf[offset : end - cell] = page.buf[offset + cell : end]
                    _set_count(page, (end - HEADER_SIZE) // cell - 1)
            return found

    def scan(self, low: tuple | None = None, high: tuple | None = None):
        """Yield ``(key, rid)`` for keys in ``[low, high]``, in key order."""
        if low is not None:
            low = self._check_key(low)
        if high is not None:
            high = self._check_key(high)
        page_id = self._leftmost_leaf(low)
        while page_id != -1:
            # Copy the leaf's cells under pin+latch, then yield latch-free so
            # consumers may issue their own page operations.
            with self.pool.reading(page_id) as page:
                next_page = page.next_page
                cells = self._read_leaf_cells(page)
            for key, rid in cells:
                if low is not None and key < low:
                    continue
                if high is not None and key > high:
                    return
                yield key, rid
            page_id = next_page

    def height(self) -> int:
        """Tree height (1 = a single leaf)."""
        with self._leaf(None) as (_, _, depth):
            return depth

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    def __bool__(self) -> bool:
        # An empty index is still an index; never let ``if table.index``
        # silently treat it as absent.
        return True

    # -- node access -----------------------------------------------------
    def _check_key(self, key: tuple) -> tuple:
        if len(key) != self.key_len:
            raise StorageError(
                f"key arity {len(key)} does not match index arity {self.key_len}"
            )
        return tuple(map(int, key))

    def _read_leaf_cells(self, page: Page) -> list[tuple[tuple, tuple[int, int]]]:
        width = self.key_len
        end = HEADER_SIZE + _get_count(page) * self._leaf_cell
        return [
            (cell[:width], cell[width:])
            for cell in self._cells.iter_unpack(page.buf[HEADER_SIZE:end])
        ]

    def _locate(self, page: Page, cell: int, key: tuple) -> tuple[int, int, bool]:
        """Binary-search the packed cells (of width *cell*) of a latched node.

        Returns ``(end, offset, found)``: the byte offset past the last
        cell, the offset of the first cell whose key is ``>= key`` (``end``
        when there is none), and whether that cell's key equals *key*.
        """
        buf = page.buf
        unpack = self._key.unpack_from
        lo, hi = 0, _get_count(page)
        end = HEADER_SIZE + hi * cell
        while lo < hi:
            mid = (lo + hi) // 2
            if unpack(buf, HEADER_SIZE + mid * cell) < key:
                lo = mid + 1
            else:
                hi = mid
        offset = HEADER_SIZE + lo * cell
        return end, offset, offset < end and unpack(buf, offset) == key

    # -- traversal -------------------------------------------------------
    def _descend(self, page: Page, key: tuple | None) -> int:
        """The child of the latched internal node covering *key* — the one
        behind the rightmost separator ``<= key`` — or, for ``None`` and for
        keys below every separator, the leftmost child."""
        if key is not None:
            _, offset, found = self._locate(page, self._int_cell, key)
            if found:
                offset += self._int_cell
            if offset > HEADER_SIZE:
                return _CHILD.unpack_from(page.buf, offset - _CHILD.size)[0]
        return page.next_page

    @contextmanager
    def _leaf(self, key: tuple | None):
        """Descend to the leaf covering *key* (the leftmost leaf for
        ``None``) and yield ``(page_id, page, depth)`` with the leaf pinned.

        The one root-to-leaf walk: each node costs one pool access and stays
        pinned and read-latched while its separators are searched.
        """
        page_id, depth = self.root_page, 1
        while True:
            page = self.pool.pin(page_id)
            try:
                if page.kind == KIND_BTREE_LEAF:
                    yield page_id, page, depth
                    return
                with self.pool.reading(page_id, pinned=True):
                    child_id = self._descend(page, key)
            finally:
                self.pool.unpin(page_id)
            page_id, depth = child_id, depth + 1

    def _leftmost_leaf(self, low: tuple | None) -> int:
        with self._leaf(low) as (page_id, _, _):
            return page_id

    # -- insertion -------------------------------------------------------
    def _insert(self, page_id: int, key: tuple, rid) -> tuple[tuple, int] | None:
        """Insert into the subtree at *page_id*.

        Returns ``(separator_key, new_right_page)`` if the node split,
        else ``None``.
        """
        # The node stays pinned for the whole call — including the recursive
        # descent — so a split propagating back up always finds its parent
        # resident, no matter how small the pool is.
        page = self.pool.pin(page_id)
        try:
            if page.kind == KIND_BTREE_LEAF:
                if callable(rid):  # the store path: refuse a present key
                    with self.pool.reading(page_id, pinned=True):
                        if self._locate(page, self._leaf_cell, key)[2]:
                            raise DuplicateKey(key)
                    rid = rid()
                return self._put(page_id, page, key, _RID.pack(*rid), self._leaf_cap)
            with self.pool.reading(page_id, pinned=True):
                child_id = self._descend(page, key)
            split = self._insert(child_id, key, rid)
            if split is None:
                return None
            sep_key, right_child = split
            return self._put(
                page_id, page, sep_key, _CHILD.pack(right_child), self._int_cap
            )
        finally:
            self.pool.unpin(page_id)

    def _put(
        self, page_id: int, page: Page, key: tuple, value: bytes, capacity: int
    ) -> tuple[tuple, int] | None:
        """Put the cell ``key || value`` at its sorted position on the pinned
        node, in place; an existing key only has its value rewritten (leaves
        only: separators never repeat). Splits a full node and returns
        ``(separator_key, new_right_page)``, else ``None``.
        """
        buf = page.buf
        key_size = self._key.size
        cell = key_size + len(value)
        with self.pool.writing(page_id, pinned=True):
            end, offset, found = self._locate(page, cell, key)
            if found or end < HEADER_SIZE + capacity * cell:
                if found:
                    buf[offset + key_size : offset + cell] = value
                else:
                    buf[offset + cell : end + cell] = buf[offset:end]
                    buf[offset : offset + cell] = self._key.pack(*key) + value
                    _set_count(page, (end - HEADER_SIZE) // cell + 1)
                return None
            cells = b"".join(
                (buf[HEADER_SIZE:offset], self._key.pack(*key), value, buf[offset:end])
            )
            sibling = page.next_page
        # Split at the middle of the capacity + 1 cells: the lower half
        # stays, the upper half moves to a fresh right page as one slice.
        leaf = page.kind == KIND_BTREE_LEAF
        cut = (capacity + 1) // 2 * cell
        right_id, _ = self.pool.new_page(page.kind)
        with self.pool.writing(right_id, pinned=True) as right:
            if leaf:
                right.next_page = sibling
                _fill(right, cells[cut:], cell)
            else:
                # The middle separator moves up; its child becomes the right
                # node's leftmost child.
                (right.next_page,) = _CHILD.unpack_from(cells, cut + key_size)
                _fill(right, cells[cut + cell :], cell)
        with self.pool.writing(page_id, pinned=True):
            if leaf:
                page.next_page = right_id
            _fill(page, cells[:cut], cell)
        self.pool.unpin(right_id)
        return self._key.unpack_from(cells, cut), right_id
