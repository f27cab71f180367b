"""Slotted 8 KiB pages.

Layout (little-endian):

    offset 0   u8   page kind (HEAP / OVERFLOW / BTREE)
    offset 1   u8   flags (unused)
    offset 2   u16  slot count
    offset 4   u16  free-space lower bound (end of slot directory)
    offset 6   u16  free-space upper bound (start of cell area)
    offset 8   i64  auxiliary page pointer (next page in chain, -1 if none)
    offset 16+ slot directory: per slot u16 offset, u16 length
                (offset == 0 means the slot is a tombstone)

Cells grow downward from the end of the page, the slot directory grows
upward — the classic PostgreSQL/SQLite arrangement.
"""

from __future__ import annotations

import struct

from repro.errors import StorageError

PAGE_SIZE = 8192

KIND_FREE = 0
KIND_HEAP = 1
KIND_OVERFLOW = 2
KIND_BTREE_LEAF = 3
KIND_BTREE_INTERNAL = 4
#: Page 0 of files from before the catalog heap: their catalog as JSON.
#: No page is written with it; opening such a file is refused.
KIND_META = 5

_HEADER = struct.Struct("<BBHHHq")
HEADER_SIZE = _HEADER.size  # 16
_SLOT = struct.Struct("<HH")
SLOT_SIZE = _SLOT.size  # 4

# The largest cell a fresh page can hold.
MAX_CELL = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE


class Page:
    """A mutable slotted page over a ``bytearray`` buffer."""

    __slots__ = ("buf",)

    def __init__(self, buf: bytearray | None = None):
        if buf is None:
            buf = bytearray(PAGE_SIZE)
        if len(buf) != PAGE_SIZE:
            raise StorageError(f"page buffer must be {PAGE_SIZE} bytes")
        self.buf = buf

    # -- header access ------------------------------------------------------
    def _read_header(self) -> tuple[int, int, int, int, int, int]:
        return _HEADER.unpack_from(self.buf, 0)

    def _write_header(
        self, kind: int, flags: int, nslots: int, lower: int, upper: int, aux: int
    ) -> None:
        _HEADER.pack_into(self.buf, 0, kind, flags, nslots, lower, upper, aux)

    def format(self, kind: int) -> None:
        """Initialize an empty page of the given kind."""
        self._write_header(kind, 0, 0, HEADER_SIZE, PAGE_SIZE, -1)

    @property
    def kind(self) -> int:
        return self.buf[0]

    @property
    def slot_count(self) -> int:
        return _HEADER.unpack_from(self.buf, 0)[2]

    @property
    def next_page(self) -> int:
        """Auxiliary page pointer (chain link); -1 when absent."""
        return _HEADER.unpack_from(self.buf, 0)[5]

    @next_page.setter
    def next_page(self, page_id: int) -> None:
        kind, flags, nslots, lower, upper, _ = self._read_header()
        self._write_header(kind, flags, nslots, lower, upper, page_id)

    @property
    def free_space(self) -> int:
        """Bytes available for one more cell (including its slot entry)."""
        _, _, _, lower, upper, _ = self._read_header()
        gap = upper - lower
        return max(0, gap - SLOT_SIZE)

    # -- slot operations -----------------------------------------------------
    def insert(self, cell: bytes) -> int:
        """Insert *cell*, returning its slot index."""
        kind, flags, nslots, lower, upper, aux = self._read_header()
        need = len(cell) + SLOT_SIZE
        if upper - lower < need:
            raise StorageError(
                f"page full: need {need} bytes, have {upper - lower}"
            )
        if len(cell) > MAX_CELL:
            raise StorageError(f"cell of {len(cell)} bytes exceeds page capacity")
        upper -= len(cell)
        self.buf[upper : upper + len(cell)] = cell
        _SLOT.pack_into(self.buf, lower, upper, len(cell))
        slot = nslots
        self._write_header(kind, flags, nslots + 1, lower + SLOT_SIZE, upper, aux)
        return slot

    def view(self, slot: int) -> memoryview:
        """The cell at *slot*, uncopied: valid under the page's latch only."""
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise StorageError(f"slot {slot} is deleted")
        return memoryview(self.buf)[offset : offset + length]

    def read(self, slot: int) -> bytes:
        """Return the cell stored at *slot* (raises on tombstones)."""
        return bytes(self.view(slot))

    def delete(self, slot: int) -> None:
        """Tombstone *slot* (space is reclaimed only by rebuilding the page)."""
        self._slot_entry(slot)  # bounds check
        _SLOT.pack_into(self.buf, HEADER_SIZE + slot * SLOT_SIZE, 0, 0)

    def is_deleted(self, slot: int) -> bool:
        offset, _ = self._slot_entry(slot)
        return offset == 0

    def cells(self):
        """Yield ``(slot, cell_bytes)`` for every live slot."""
        for slot in range(self.slot_count):
            offset, length = self._slot_entry(slot)
            if offset != 0:
                yield slot, bytes(self.buf[offset : offset + length])

    def _slot_entry(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise StorageError(f"slot {slot} out of range (have {self.slot_count})")
        return _SLOT.unpack_from(self.buf, HEADER_SIZE + slot * SLOT_SIZE)
