"""Tests for integer arrays with NULL elements (``ENC_NULLS`` segments).

Such an array is a delta segment whose tag carries ``ENC_NULLS``: an
element null bitmap, then the delta payload of the non-NULL elements.
These cases drive that layout through ``encode_record`` /
``decode_record`` and through a table.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.minidb.engine import Database
from repro.minidb.values import (
    ENC_NULLS,
    T_BIGINT_ARRAY,
    decode_record,
    encode_record,
)
from tests.minidb.reference import assert_decoded

TYPES = (T_BIGINT_ARRAY,)
I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


def nulls_roundtrip(arr):
    """Round-trip a NULL-bearing array, asserting its segment's tag carries
    the NULL flag (cell = null bitmap byte, then the segment's tag)."""
    cell = encode_record(TYPES, (arr,))
    assert cell[1] & ENC_NULLS
    decoded = decode_record(TYPES, cell)
    assert_decoded(TYPES, decoded, (arr,))  # such a segment is a list
    return decoded[0]


def flat_bytes(arr):
    """Bytes of *arr* at 8 bytes per element: null bitmap byte, u32 count,
    element presence bitmap, then the non-NULL elements."""
    return 1 + 4 + (len(arr) + 7) // 8 + 8 * sum(v is not None for v in arr)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        arr=st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=I64_MIN, max_value=I64_MAX),
            ),
            max_size=60,
        )
    )
    # Neighbours more than 2^63 apart: their delta only exists mod 2^64.
    @example(arr=[I64_MAX, I64_MIN])
    @example(arr=[I64_MIN, None, I64_MAX, 0, I64_MIN])
    def test_roundtrip(self, arr):
        arr = arr + [None]  # at least one NULL sets the flag
        assert nulls_roundtrip(arr) == arr

    def test_sorted_arrays_compress_well(self):
        sorted_ts = [None] + list(range(30_000, 60_000, 60))  # typical tds
        packed = encode_record(TYPES, (sorted_ts,))
        assert len(packed) < flat_bytes(sorted_ts) / 4

    def test_negative_jumps(self):
        arr = [1_000_000, -1_000_000, None, 0, 2**50, -(2**50)]
        assert nulls_roundtrip(arr) == arr


    def test_worked_example_bytes(self):
        # [7, NULL, 9]: tag ENC_DELTA1 | ENC_NULLS, count 3, bitmap 0b010,
        # first value 7, one zig-zag delta (9 - 7) << 1 = 4.
        cell = encode_record(TYPES, ([7, None, 9],))
        assert cell == bytes([0, 0x15, 3, 0, 0, 0, 0b010, 7, 0, 0, 0, 0, 0, 0, 0, 4])

    def test_retired_tag_9_is_refused(self):
        # Tag 9 held a varint payload before NULL-bearing arrays became
        # delta segments; such a cell must fail by name, never misdecode.
        cell = bytes([0, 9, 3, 0, 0, 0, 0b010, 14, 4])
        with pytest.raises(StorageError, match="segment tag 9"):
            decode_record(TYPES, cell)


class TestInSql:
    def test_unnest_and_slices_work(self):
        db = Database()
        db.execute("CREATE TABLE p (v BIGINT, xs BIGINT[], PRIMARY KEY (v))")
        db.execute("INSERT INTO p VALUES (1, ARRAY[5, NULL, 6, 9])")
        assert db.execute("SELECT UNNEST(xs) FROM p WHERE v = 1").rows == [
            (5,), (None,), (6,), (9,),
        ]
        assert db.execute("SELECT xs[1:2] FROM p WHERE v = 1").scalar() == [5, None]
        assert db.execute("SELECT CARDINALITY(xs) FROM p WHERE v = 1").scalar() == 4
