"""Record codec and numpy-kernel exactness tests.

Pins the storage-level contracts docs/STORAGE.md documents: every value
round-trips bit-exactly through the record, ``BIGINT[]`` cells as delta
segments whose numpy and pure-python decoders agree everywhere (including
int64 wraparound) and decode to an ndarray exactly from ``NP_DECODE_MIN``
elements on (``assert_decoded``), tables with array
columns survive DML and reopen, and the batch kernels reproduce the row
executor's integer semantics exactly or decline.
"""

import json
import os
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, SQLTypeError, StorageError
from repro.minidb.engine import Database
from repro.minidb.page import HEADER_SIZE, KIND_HEAP, KIND_META, PAGE_SIZE, Page
from repro.minidb.sql import npbatch
from repro.minidb.values import (
    NP_DECODE_MIN,
    T_BIGINT,
    T_BIGINT_ARRAY,
    T_BOOL,
    T_DOUBLE,
    T_DOUBLE_ARRAY,
    T_TEXT,
    _decode_delta_np,
    _encode_int_array,
    check_value,
    decode_record,
    encode_record,
)
from tests.minidb.reference import assert_decoded

np = npbatch.np

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

SCHEMA = (T_BIGINT, T_BIGINT_ARRAY, T_DOUBLE, T_BOOL, T_TEXT, T_DOUBLE_ARRAY)


def delta_segment(values):
    """``(encoding tag, payload)`` of a NULL-free array, written out from
    the layout's definition one delta at a time: ``i64 first``, then every
    zig-zagged delta (mod 2^64) as little-endian bytes of the narrowest of
    1/2/4/8 that fits the largest. ``_encode_int_array`` packs the same
    bytes in one ``struct.pack`` call."""
    mask = (1 << 64) - 1
    zz = []
    for prev, cur in zip(values, values[1:]):
        delta = ((cur - prev + (1 << 63)) & mask) - (1 << 63)
        zz.append(((delta << 1) ^ (delta >> 63)) & mask)
    width = next(w for w in (1, 2, 4, 8) if max(zz, default=0) < 1 << 8 * w)
    payload = values[0].to_bytes(8, "little", signed=True) if values else b""
    payload += b"".join(z.to_bytes(width, "little") for z in zz)
    return {1: 5, 2: 6, 4: 7, 8: 8}[width], payload


def roundtrip(types, row):
    return decode_record(types, encode_record(types, row))


class TestRoundTrip:
    def test_all_types(self):
        row = (7, [1, 5, 5, 9], 2.5, True, "héllo", [0.25, -1.0])
        assert roundtrip(SCHEMA, row) == row
        long = (7, list(range(NP_DECODE_MIN)), 2.5, True, "héllo", [0.25, -1.0])
        assert_decoded(SCHEMA, roundtrip(SCHEMA, long), long)

    def test_nulls_everywhere(self):
        row = (None,) * len(SCHEMA)
        assert roundtrip(SCHEMA, row) == row
        # Each column NULL on its own, beside long arrays on both sides.
        long = list(range(NP_DECODE_MIN + 3))
        full = (7, long, 2.5, False, "", [None, 1.0])
        for i in range(len(SCHEMA)):
            row = full[:i] + (None,) + full[i + 1 :]
            assert_decoded(SCHEMA, roundtrip(SCHEMA, row), row)

    def test_empty_array(self):
        assert roundtrip((T_BIGINT_ARRAY,), ([],)) == ([],)

    def test_single_element_array(self):
        assert roundtrip((T_BIGINT_ARRAY,), ([42],)) == ([42],)

    def test_array_with_null_elements_falls_back_to_varint(self):
        row = ([3, None, -8],)
        assert roundtrip((T_BIGINT_ARRAY,), row) == row

    def test_max_width_deltas(self):
        # Adjacent extremes force 8-byte zig-zag deltas (the widest tag).
        row = ([I64_MIN, I64_MAX, I64_MIN, 0, I64_MAX],)
        assert roundtrip((T_BIGINT_ARRAY,), row) == row

    def test_each_delta_width(self):
        for jump, enc in ((1, 5), (1 << 9, 6), (1 << 20, 7), (1 << 40, 8)):
            values = [0, jump, 0, jump]
            assert roundtrip((T_BIGINT_ARRAY,), (values,)) == (values,)
            assert _encode_int_array(values)[0] == enc
            assert _encode_int_array(values) == delta_segment(values)

    def test_out_of_range_element_rejected(self):
        # check_value is the one range check every table write passes.
        with pytest.raises(SQLTypeError):
            check_value(T_BIGINT_ARRAY, [I64_MAX + 1])

    @given(
        st.lists(
            st.integers(min_value=I64_MIN, max_value=I64_MAX), max_size=80
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_int64_sequence(self, values):
        got = roundtrip((T_BIGINT_ARRAY,), (values,))
        assert_decoded((T_BIGINT_ARRAY,), got, (values,))
        assert _encode_int_array(values) == delta_segment(values)
        # The cell is the null bitmap, then ``u8 enc | u32 count | payload``.
        enc, payload = delta_segment(values)
        cell = encode_record((T_BIGINT, T_BIGINT_ARRAY), (None, values))
        header = bytes([enc]) + len(values).to_bytes(4, "little")
        assert cell == b"\x01" + header + payload


@pytest.mark.skipif(np is None, reason="numpy not installed")
class TestNumpyDecode:
    def test_crossover_boundary(self):
        below = list(range(NP_DECODE_MIN - 1))
        at = list(range(NP_DECODE_MIN))
        got_below = roundtrip((T_BIGINT_ARRAY,), (below,))[0]
        got_at = roundtrip((T_BIGINT_ARRAY,), (at,))[0]
        # Below the crossover the cheap list decode is returned; at and
        # above, an int64 ndarray (the UNNEST kernels accept both).
        assert isinstance(got_below, list) and got_below == below
        assert isinstance(got_at, np.ndarray)
        assert got_at.dtype == np.int64
        assert got_at.tolist() == at

    def test_varint_fallback_stays_list(self):
        values = [1, None, 2] * NP_DECODE_MIN
        got = roundtrip((T_BIGINT_ARRAY,), (values,))[0]
        assert isinstance(got, list) and got == values

    @given(
        st.lists(
            st.integers(min_value=I64_MIN, max_value=I64_MAX),
            min_size=1,
            max_size=120,
        )
    )
    # int64 extremes, and steps whose delta only exists mod 2^64.
    @example([I64_MIN, I64_MAX, I64_MIN, 0, -1, I64_MAX, I64_MAX, I64_MIN])
    @example([I64_MAX, I64_MIN] * 40)
    @example([0, 1 << 62, -(1 << 62), (1 << 62) + 1, I64_MIN + 1, I64_MAX - 1])
    @example([I64_MAX])
    @settings(max_examples=60, deadline=None)
    def test_decoders_agree(self, values):
        enc, payload = _encode_int_array(values)
        width = {5: 1, 6: 2, 7: 4, 8: 8}[enc]
        as_np = _decode_delta_np(memoryview(payload), len(values), width)
        assert as_np.tolist() == values
        cell = roundtrip((T_BIGINT_ARRAY,), (values,))
        assert_decoded((T_BIGINT_ARRAY,), cell, (values,))
        # The branch-free unzigzag against the select-by-parity definition,
        # element for element on the stored zig-zag words.
        raw = np.frombuffer(
            payload, dtype=f"<u{width}", count=len(values) - 1, offset=8
        ).astype(np.uint64)
        by_parity = np.where(raw & 1, ~(raw >> 1), raw >> 1).view(np.int64)
        assert np.array_equal(np.diff(as_np), by_parity)


@pytest.mark.skipif(np is None, reason="numpy not installed")
class TestKernelExactness:
    """npbatch must match the row executor's semantics or decline."""

    def keys(self, spec, col):
        cols = [np.asarray(col, dtype=np.int64)]
        return npbatch.eval_keys([spec], cols, (), len(col))

    def test_div_truncates_toward_zero(self):
        # SQL -7/2 = -3 (truncation); python -7 // 2 = -4 (floor).
        spec = ("div", ("col", 0), ("const", 2))
        got = self.keys(spec, [-7, 7, -8, 8, -1, 0])
        assert got == [(-3,), (3,), (-4,), (4,), (0,), (0,)]

    def test_div_by_zero_declines(self):
        spec = ("div", ("col", 0), ("const", 0))
        assert self.keys(spec, [1, 2]) is None

    def test_div_by_zero_divisor_column_declines(self):
        spec = ("div", ("const", 10), ("col", 0))
        assert self.keys(spec, [5, 0]) is None

    def test_floor_is_identity_on_integers(self):
        spec = ("floor", ("col", 0))
        assert self.keys(spec, [-3, 0, 9]) == [(-3,), (0,), (9,)]

    def test_greatest_least(self):
        lo, hi = ("const", 2), ("const", 5)
        clamp = ("maxv", lo, ("minv", hi, ("col", 0)))
        assert self.keys(clamp, [0, 3, 9]) == [(2,), (3,), (5,)]

    def test_null_param_declines(self):
        spec = ("bin", "+", ("col", 0), ("param", 0))
        cols = [np.asarray([1, 2], dtype=np.int64)]
        assert npbatch.eval_keys([spec], cols, (None,), 2) is None

    def test_scalar_key_broadcast(self):
        got = npbatch.eval_keys(
            [("param", 0), ("col", 0)],
            [np.asarray([4, 5], dtype=np.int64)],
            (7,),
            2,
        )
        assert got == [(7, 4), (7, 5)]


class TestColumnarTables:
    """Tables with ``BIGINT[]`` columns end to end through DDL, DML and
    persistence."""

    DDL = (
        "CREATE TABLE lab (hub BIGINT, td BIGINT, vs BIGINT[], "
        "tas BIGINT[], PRIMARY KEY (hub, td))"
    )

    def rows(self):
        return [
            (1, 10, [3, 1, 2], [30, 31, 32]),
            (1, 11, [], []),
            (2, 10, [5], [50]),
            (2, 12, None, [1, None, 3]),
        ]

    def build(self, db):
        db.execute(self.DDL)
        for row in self.rows():
            db.execute(
                "INSERT INTO lab VALUES ($1, $2, $3, $4)", tuple(row)
            )

    def test_arrays_of_any_shape_round_trip(self):
        db = Database()
        self.build(db)
        assert db.execute("SELECT * FROM lab ORDER BY hub, td").rows == self.rows()
        # Which arrays a column accepts does not depend on its name: a
        # ``hubs`` column takes unsorted and NULL-bearing arrays too.
        hubs = [(1, [3, 1, 2]), (2, [1, None, 2]), (3, [None]), (4, None)]
        db.execute("CREATE TABLE h (v BIGINT, hubs BIGINT[], PRIMARY KEY (v))")
        db.executemany("INSERT INTO h VALUES ($1, $2)", hubs)
        assert db.execute("SELECT * FROM h ORDER BY v").rows == hubs

    def test_chain_page_of_another_kind_fails_open(self, tmp_path):
        """A heap-chain page that is not a heap page (kind 6 was the columnar
        page kind of older files) is refused at attach, naming the page."""
        path = str(tmp_path / "t.mdb")
        db = Database(path=path)
        db.execute("CREATE TABLE t (v BIGINT)")
        db.execute("INSERT INTO t VALUES (1)")
        page_id = db.catalog.get("t").heap.first_page
        db.close()
        with open(path, "r+b") as handle:
            handle.seek(page_id * PAGE_SIZE)
            handle.write(bytes([6]))
        with pytest.raises(StorageError, match=f"page {page_id} .*kind 6"):
            Database.open(path)

    def test_file_with_a_meta_catalog_is_refused(self, tmp_path):
        """Files from before the catalog heap keep their catalog as JSON on
        a META page 0 (with a ``storage`` key when they kept two record
        formats). Open refuses such a file, typed and saying to rebuild,
        before replaying its log — both files stay as they were — and
        leaves no file handle behind."""
        path = str(tmp_path / "old.mdb")
        page = Page()
        page.format(KIND_META)
        described = json.dumps(
            [{"name": "lab", "columns": [["hub", 1]], "primary_key": [],
              "heap_first_page": 1, "index_root_page": None, "row_count": 0,
              "data_bytes": 0, "storage": "row"}]
        ).encode()
        struct.pack_into("<I", page.buf, HEADER_SIZE, len(described))
        page.buf[HEADER_SIZE + 4 : HEADER_SIZE + 4 + len(described)] = described
        heap = Page()
        heap.format(KIND_HEAP)
        with open(path, "wb") as handle:
            handle.write(bytes(page.buf) + bytes(heap.buf))
        # a committed log tail: page 1's after-image, then the COMMIT record
        log = b""
        for payload in (b"A" + struct.pack("<q", 1) + bytes(heap.buf[:1]) * PAGE_SIZE,
                        b"C" + struct.pack("<q", 2)):
            log += struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(path + ".wal", "wb") as handle:
            handle.write(log)
        files = [open(name, "rb").read() for name in (path, path + ".wal")]
        fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(CatalogError, match="META page.*rebuild"):
            Database.open(path)
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == len(fds)
        assert [open(name, "rb").read() for name in (path, path + ".wal")] == files

    def test_table_stats_report_storage_and_bytes(self):
        db = Database()
        self.build(db)
        table = db.catalog.get("lab")
        stats = db.table_stats()["lab"]
        assert stats["heap_pages"] == 1 and stats["rows"] == len(self.rows())
        assert stats["data_bytes"] == sum(
            len(encode_record(table.schema.types, row)) for row in self.rows()
        )

    def test_survives_checkpoint_reopen(self, tmp_path):
        path = str(tmp_path / "lab.mdb")
        db = Database(path=path)
        self.build(db)
        before = db.execute("SELECT * FROM lab ORDER BY hub, td")
        bytes_before = db.table_stats()["lab"]["data_bytes"]
        db.checkpoint()
        db.close()
        with Database(path=path) as again:
            assert again.execute("SELECT * FROM lab ORDER BY hub, td") == before
            assert again.table_stats()["lab"]["data_bytes"] == bytes_before
