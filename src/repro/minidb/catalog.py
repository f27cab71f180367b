"""Table catalog: schemas, heap files and primary-key indexes.

The catalog is itself a heap: page 0 starts a chain of ordinary heap pages
holding one record per table (docs/STORAGE.md, "The catalog heap"), so the
WAL protects it like every other page.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CatalogError, SQLTypeError
from repro.minidb.btree import BTree, DuplicateKey
from repro.minidb.buffer import BufferPool
from repro.minidb.heap import _INLINE_LIMIT, HeapFile
from repro.minidb.values import (
    T_BIGINT,
    T_BIGINT_ARRAY,
    T_TEXT,
    Column,
    check_column,
    check_value,
    decode_record,
    encode_record,
)

#: A catalog row: the four fixed-width fields a write statement moves —
#: heap first page, index root (-1 for none), ``row_count``, ``data_bytes``
#: — ahead of the schema, which never changes: the name, the column names
#: joined by NUL, the column type tags and the primary key's column
#: positions. So an update rewrites a row in place at the same length.
_ROW_TYPES = (T_BIGINT,) * 4 + (T_TEXT, T_TEXT, T_BIGINT_ARRAY, T_BIGINT_ARRAY)


@dataclass
class TableSchema:
    """Logical description of a table."""

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in {self.name}: {names}")
        for pk_col in self.primary_key:
            if pk_col not in names:
                raise CatalogError(
                    f"primary key column {pk_col!r} not in table {self.name}"
                )
        for name in (self.name, *names):  # catalog rows: UTF-8, NUL-joined
            if "\x00" in name or name.encode("utf-8", "replace").decode() != name:
                raise CatalogError(f"{name!r} cannot name a table or column")

    @property
    def types(self) -> tuple[int, ...]:
        return tuple(c.type_tag for c in self.columns)

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise CatalogError(f"no column {name!r} in table {self.name}")

    @property
    def pk_indexes(self) -> tuple[int, ...]:
        return tuple(self.column_index(c) for c in self.primary_key)


class Table:
    """A stored table: heap file plus (optional) primary-key B+Tree."""

    def __init__(self, schema: TableSchema, pool: BufferPool, fields=None):
        """A new empty table or, given its catalog row's *fields*
        (:meth:`fields`), one persisted in the database file."""
        self.schema = schema
        self.pool = pool
        self._types = schema.types
        if fields is not None:
            self.load(fields, HeapFile(pool, first_page=fields[0]))
            return
        self.heap = HeapFile(pool)
        self.row_count = 0
        #: Total encoded record bytes currently live (inline or overflow);
        #: the numerator of the storage-footprint benchmarks.
        self.data_bytes = 0
        self.index: BTree | None = None
        if schema.primary_key:
            self.index = BTree(pool, key_len=len(schema.primary_key))

    def fields(self) -> tuple[int, int, int, int]:
        """The fixed-width fields of this table's catalog row: heap first
        page, index root page (-1 for none), ``row_count``, ``data_bytes``."""
        index = self.index
        return (
            self.heap.first_page,
            -1 if index is None else index.root_page,
            self.row_count,
            self.data_bytes,
        )

    def load(self, fields: tuple, heap: HeapFile) -> None:
        """Point this descriptor at what a catalog row's *fields* name:
        *heap* (the chain from the row's first page, with its tail in
        memory) and the index at the row's root."""
        _, root, self.row_count, self.data_bytes = fields
        self.heap = heap
        self.index = None
        if self.schema.primary_key:
            if root < 0:
                raise CatalogError(
                    f"{self.schema.name}: missing index root for keyed table"
                )
            self.index = BTree(
                self.pool, key_len=len(self.schema.primary_key), root_page=root
            )

    # -- record codec ----------------------------------------------------
    def encode(self, row: tuple) -> bytes:
        """Serialize *row* as one stored record."""
        return encode_record(self._types, row)

    def decode(self, raw: bytes | memoryview) -> tuple:
        """Deserialize one stored record (a long BIGINT[] cell is an int64
        ndarray; see :func:`~repro.minidb.values.decode_record`)."""
        return decode_record(self._types, raw)

    # ------------------------------------------------------------------
    def insert_many(self, rows: list) -> list[tuple[int, int]]:
        """Validate, store and index *rows* in order; returns their rids.

        The one store path: the chunk is checked a column at a time
        (:func:`check_column`), the heap takes its records one latch hold
        per page, and each key goes in through the index descent that
        refuses a duplicate. The first offending row raises what it would
        raise alone, with the rows before it stored.
        """
        width = len(self.schema.columns)
        good = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
        checked = list(zip(*map(check_column, self._types, zip(*rows[:good]))))
        records = list(map(self.encode, checked))

        def claim(i, store):
            if self.index is None:
                store()
            else:
                key = self._pk_of(checked[i])
                try:
                    self.index.insert(key, store)
                except DuplicateKey:
                    raise CatalogError(
                        f"{self.schema.name}: duplicate primary key {key}"
                    ) from None
            self.row_count += 1
            self.data_bytes += len(records[i])

        rids = self.heap.insert_many(records, claim)
        if len(checked) < len(rows):
            self._checked(rows[len(checked)])  # raises that row's error
        return rids

    def _checked(self, values: tuple | list) -> tuple:
        """*values* validated against the schema (:func:`check_value`)."""
        schema = self.schema
        if len(values) != len(schema.columns):
            raise CatalogError(
                f"{schema.name}: expected {len(schema.columns)} values, "
                f"got {len(values)}"
            )
        return tuple(
            check_value(col.type_tag, value)
            for col, value in zip(schema.columns, values)
        )

    def lookup(self, key: tuple) -> tuple | None:
        """Primary-key point lookup. Returns the decoded row or ``None``."""
        if self.index is None:
            raise CatalogError(f"{self.schema.name} has no primary key index")
        rid = self.index.search(tuple(key))
        if rid is None:
            return None
        return _owned(self.heap.read_rows([rid], self._shared_row)[0])

    def lookup_many(self, keys: list[tuple]) -> tuple[list[tuple | None], int]:
        """:meth:`lookup` for ascending *keys* in one pass — every index
        leaf, then every heap page, visited once per run of keys on it.
        Returns the decoded rows (``None`` per absent key) and the number
        of index descents (see :meth:`BTree.search_many`)."""
        if self.index is None:
            raise CatalogError(f"{self.schema.name} has no primary key index")
        rids, descents = self.index.search_many(keys)
        found = [rid for rid in rids if rid is not None]
        rows = map(_owned, self.heap.read_rows(found, self._shared_row))
        return [None if rid is None else next(rows) for rid in rids], descents

    def _shared_row(self, raw: bytes) -> tuple:
        """What a heap frame keeps of one record for every later lookup
        (:meth:`HeapFile.read_rows`): the decoded row with its ndarray
        cells read-only, and the positions of its list cells, which each
        reader gets a copy of (:func:`_owned`)."""
        row = self.decode(raw)
        lists = []
        for i, cell in enumerate(row):
            if type(cell) is list:
                lists.append(i)
            elif type(cell) is np.ndarray:
                cell.setflags(write=False)
        return row, tuple(lists)

    def scan(self, readahead: int = 0):
        """Yield every row (decoded tuples) in heap order.

        ``readahead`` batches heap-chain page fetches into sequential
        device runs (see :meth:`HeapFile.scan`)."""
        for _, raw in self.heap.scan(readahead=readahead):
            yield self.decode(raw)

    def delete_row(self, rid: tuple[int, int], row: tuple) -> None:
        """Remove one row: heap tombstone plus index-entry removal."""
        self.data_bytes -= self.heap.delete(rid)
        if self.index is not None:
            self.index.remove(self._pk_of(row))
        self.row_count -= 1

    def update_row(self, rid: tuple[int, int], old: tuple, new: tuple) -> None:
        """Replace one row (delete + reinsert; rids are not stable across
        updates, as in any tombstoning heap). *new* is validated before
        the delete, so a value no column can store leaves *old* in place."""
        row = self._checked(new)
        self.delete_row(rid, old)
        self.insert_many([row])

    def vacuum(self) -> int:
        """Rewrite the heap without tombstones and rebuild the index.

        Returns the number of live rows. Old pages are abandoned (no
        free-space map); the table's footprint is what the fresh heap uses.
        """
        live = [self.decode(raw) for _, raw in self.heap.scan()]
        self.heap = HeapFile(self.pool)
        if self.index is not None:
            self.index = BTree(self.pool, key_len=len(self.schema.primary_key))
        self.row_count = 0
        self.data_bytes = 0
        self.insert_many(live)
        return self.row_count

    def describe(self) -> dict:
        """This table's catalog row, as a dict (introspection)."""
        return {
            "name": self.schema.name,
            "columns": [[c.name, c.type_tag] for c in self.schema.columns],
            "primary_key": list(self.schema.primary_key),
            "heap_first_page": self.heap.first_page,
            "index_root_page": (
                self.index.root_page if self.index is not None else None
            ),
            "row_count": self.row_count,
            "data_bytes": self.data_bytes,
        }

    def _pk_of(self, row: tuple) -> tuple:
        key = tuple(row[i] for i in self.schema.pk_indexes)
        for part in key:
            if not isinstance(part, int):
                raise SQLTypeError(
                    f"{self.schema.name}: primary key parts must be integers, "
                    f"got {part!r}"
                )
        return key


def _owned(shared: tuple) -> tuple:
    """A :meth:`Table._shared_row` entry as one reader's row: the list
    cells copied, so appending to one cannot change what the next lookup
    returns (an ndarray cell is shared read-only)."""
    row, lists = shared
    if not lists:
        return row
    row = list(row)
    for i in lists:
        row[i] = row[i].copy()
    return tuple(row)


class Catalog:
    """Name -> Table registry for one database, kept in the catalog heap
    from page 0: on an existing file (after WAL replay) every live row of
    that heap is a table."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._tables: dict[str, Table] = {}
        #: Per table, its catalog row's rid and the fixed fields last
        #: written there (:meth:`sync`).
        self._rows: dict[str, tuple] = {}
        #: Bumped on every schema change; cached statement analyses are
        #: keyed on it so they never outlive the catalog they were bound to.
        self.version = 0
        if pool.disk.num_pages == 0:
            self.heap = HeapFile(pool)  # page 0
            return
        self.heap = HeapFile(pool, first_page=0)
        for rid, raw in self.heap.scan():
            fields, (name, names, tags, pk) = _split(raw)
            columns = [
                Column(col, int(tag)) for col, tag in zip(names.split("\x00"), tags)
            ]
            schema = TableSchema(name, columns, tuple(columns[i].name for i in pk))
            self._tables[name.lower()] = Table(schema, pool, fields)
            self._rows[name.lower()] = rid, fields

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {schema.name!r} already exists")
        if len(_record(schema, (0, 0, 0, 0))) + 1 > _INLINE_LIMIT:
            raise CatalogError(
                f"table {schema.name!r}: its catalog row does not fit a page"
            )
        table = Table(schema, self.pool)
        fields = table.fields()
        self._rows[key] = self.heap.insert(_record(schema, fields)), fields
        self._tables[key] = table
        self.version += 1
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no table {name!r}")
        # Pages are not reclaimed (no vacuum); the table's catalog row is
        # tombstoned, like a dropped-but-unvacuumed relation.
        self.heap.delete(self._rows.pop(key)[0])
        del self._tables[key]
        self.version += 1

    def get(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def has(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(t.schema.name for t in self._tables.values())

    def sync(self, table: str | None = None) -> None:
        """Overwrite, in place, the catalog row of each table whose fixed
        fields moved (the end of each write statement): its page is then
        logged like any other the statement dirtied. A DML or VACUUM
        statement moves only its target's, *table*; after DDL (no such
        table, or ``None``) every row is compared."""
        rows, target = self._rows, (table or "").lower()
        for key in (target,) if target in self._tables else self._tables:
            rid, stored = rows[key]
            fields = self._tables[key].fields()
            if fields != stored:
                self.heap.overwrite(rid, _record(self._tables[key].schema, fields))
                rows[key] = rid, fields

    # -- statement rollback ------------------------------------------------
    def snapshot(self, table: str | None) -> tuple:
        """What one write statement can change that no page holds, taken at
        its start under the exclusive statement latch: the table map and
        the in-memory chain tails of the catalog heap and of *table*, the
        statement's target (VACUUM replaces its heap object)."""
        target = None if table is None else self._tables.get(table.lower())
        heap = None if target is None else target.heap
        return (dict(self._tables), dict(self._rows), self.heap.snapshot(),
                target, heap, None if heap is None else heap.snapshot())

    def rollback(self, snapshot: tuple) -> None:
        """Back to :meth:`snapshot`, once the pages are at their
        before-images: the target's descriptor is loaded again from its
        restored catalog row. ``version`` never goes backwards: a plan
        another session cached meanwhile must not match a later catalog."""
        tables, self._rows, tail, target, heap, heap_tail = snapshot
        self.heap.rollback(tail)
        if tables != self._tables:
            self._tables = tables
            self.version += 1
        if target is not None:
            heap.rollback(heap_tail)
            rid, _ = self._rows[target.schema.name.lower()]
            fields, _ = _split(self.heap.read(rid))
            target.load(fields, heap)

    def describe(self) -> list[dict]:
        """Every table's :meth:`Table.describe`, by name (introspection)."""
        return [
            self._tables[key].describe() for key in sorted(self._tables)
        ]


def _record(schema: TableSchema, fields: tuple) -> bytes:
    """The catalog row of the table *schema* with fixed *fields*."""
    return encode_record(
        _ROW_TYPES,
        fields + (
            schema.name,
            "\x00".join(c.name for c in schema.columns),
            list(schema.types),
            list(schema.pk_indexes),
        ),
    )


def _split(raw: bytes) -> tuple[tuple, tuple]:
    """A catalog row as its fixed fields and its schema part."""
    row = decode_record(_ROW_TYPES, raw)
    return row[:4], row[4:]
