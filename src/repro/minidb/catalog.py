"""Table catalog: schemas, heap files and primary-key indexes."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.errors import CatalogError, SQLTypeError
from repro.minidb.btree import BTree, DuplicateKey
from repro.minidb.buffer import BufferPool
from repro.minidb.heap import HeapFile
from repro.minidb.values import (
    Column,
    check_column,
    check_value,
    decode_record,
    encode_record,
)


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

    def __init__(self, schema: TableSchema, pool: BufferPool):
        self.schema = schema
        self.pool = pool
        self._types = schema.types
        self.heap = HeapFile(pool)
        self.row_count = 0
        #: Total encoded record bytes currently live (inline or overflow);
        #: the numerator of the storage-footprint benchmarks.
        self.data_bytes = 0
        self.index: BTree | None = None
        if schema.primary_key:
            self.index = BTree(pool, key_len=len(schema.primary_key))

    @classmethod
    def attach(
        cls,
        schema: TableSchema,
        pool: BufferPool,
        heap_first_page: int,
        index_root_page: int | None,
        row_count: int,
        data_bytes: int,
    ) -> "Table":
        """Reattach a table persisted in an existing database file."""
        table = cls.__new__(cls)
        table.schema = schema
        table.pool = pool
        table._types = schema.types
        table.heap = HeapFile(pool, first_page=heap_first_page)
        table.row_count = row_count
        table.data_bytes = data_bytes
        table.index = None
        if schema.primary_key:
            if index_root_page is None:
                raise CatalogError(
                    f"{schema.name}: missing index root for keyed table"
                )
            table.index = BTree(
                pool, key_len=len(schema.primary_key), root_page=index_root_page
            )
        return table

    # -- record codec ----------------------------------------------------
    def encode(self, row: tuple) -> bytes:
        """Serialize *row* as one stored record."""
        return encode_record(self._types, row)

    def decode(self, raw: bytes | memoryview) -> tuple:
        """Deserialize one stored record (a long BIGINT[] cell is an int64
        ndarray; see :func:`~repro.minidb.values.decode_record`)."""
        return decode_record(self._types, raw)

    # ------------------------------------------------------------------
    def insert(self, values: tuple | list) -> tuple[int, int]:
        """Validate, store and index one row; returns its rid."""
        return self.insert_many([values])[0]

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

    def snapshot(self) -> tuple:
        """The descriptor a write statement can change — heap and index
        (VACUUM replaces both objects), root page, heap tail, counters — for
        :meth:`rollback` after the statement's pages were rolled back."""
        heap, index = self.heap, self.index
        root_page = None if index is None else index.root_page
        return (
            heap, heap.snapshot(), index, root_page, self.row_count, self.data_bytes
        )

    def rollback(self, snapshot: tuple) -> None:
        (
            self.heap, heap_state, self.index, root_page,
            self.row_count, self.data_bytes,
        ) = snapshot
        self.heap.rollback(heap_state)
        if self.index is not None:
            self.index.root_page = root_page

    def describe(self) -> dict:
        """Catalog metadata for persistence."""
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
    """Name -> Table registry for one database."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._tables: dict[str, Table] = {}
        #: Bumped on every schema change; cached statement analyses are
        #: keyed on it so they never outlive the catalog they were bound to.
        self.version = 0
        #: ``json.dumps(table.describe())`` by the descriptor's state: the
        #: table object (its schema never changes) and the four fields a
        #: statement can move (:meth:`describe_json`).
        self._fragments: dict[tuple, str] = {}

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema, self.pool)
        self._tables[key] = table
        self.version += 1
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no table {name!r}")
        # Pages are not reclaimed (no vacuum); the table simply vanishes
        # from the catalog, like a dropped-but-unvacuumed relation.
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

    # -- statement rollback ------------------------------------------------
    def snapshot(self, table: str | None) -> tuple:
        """What one write statement can change in memory, taken at its start
        under the exclusive statement latch: the table map (DDL) and the
        descriptor of *table*, the statement's target."""
        target = None if table is None else self._tables.get(table.lower())
        state = None if target is None else target.snapshot()
        return dict(self._tables), target, state

    def rollback(self, snapshot: tuple) -> None:
        """Back to :meth:`snapshot`, once the pages are at their
        before-images. ``version`` never goes backwards: a plan another
        session cached meanwhile must not match a later catalog."""
        tables, target, state = snapshot
        if tables != self._tables:
            self._tables = tables
            self.version += 1
        if target is not None:
            target.rollback(state)

    # -- persistence -----------------------------------------------------
    def describe(self) -> list[dict]:
        return [
            self._tables[key].describe() for key in sorted(self._tables)
        ]

    def describe_json(self) -> str:
        """``json.dumps(self.describe())``, the same text, re-dumping only
        the descriptors whose state moved since the last call (a commit
        record carries the whole catalog; most statements change one
        table). Commits call it under the exclusive statement latch,
        which also guards the cache it replaces."""
        fragments, parts = {}, []
        for key in sorted(self._tables):
            table = self._tables[key]
            index = table.index
            state = (
                table, table.heap.first_page,
                None if index is None else index.root_page,
                table.row_count, table.data_bytes,
            )
            text = self._fragments.get(state)
            if text is None:
                text = json.dumps(table.describe())
            fragments[state] = text
            parts.append(text)
        self._fragments = fragments
        return "[" + ", ".join(parts) + "]"

    def restore(self, descriptions: list[dict]) -> None:
        """Reattach tables from :meth:`describe` output.

        Only descriptors of this record format are accepted: one with a
        ``storage`` key was written by a minidb that kept two record
        formats, one without ``data_bytes`` by a minidb older still. Their
        BIGINT[] cells would misdecode, so the file is refused."""
        for info in descriptions:
            if "storage" in info or "data_bytes" not in info:
                raise CatalogError(
                    f"table {info['name']!r} was written in an older record "
                    "format; rebuild the database file"
                )
            schema = TableSchema(
                info["name"],
                [Column(name, tag) for name, tag in info["columns"]],
                tuple(info["primary_key"]),
            )
            table = Table.attach(
                schema,
                self.pool,
                heap_first_page=info["heap_first_page"],
                index_root_page=info["index_root_page"],
                row_count=info["row_count"],
                data_bytes=info["data_bytes"],
            )
            self._tables[schema.name.lower()] = table
        self.version += 1
