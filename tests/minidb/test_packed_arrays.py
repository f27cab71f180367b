"""Tests for the delta+varint segment encoding (columnar ``ENC_VARINT``).

Integer arrays with NULL elements cannot use the fixed-width delta
segments; they are stored delta + zig-zag varint packed with a presence
bitmap. These cases drive that codec through ``encode_columnar`` /
``decode_columnar`` and through a ``STORAGE = COLUMNAR`` table.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb.columnar import ENC_VARINT, decode_columnar, encode_columnar
from repro.minidb.engine import Database
from repro.minidb.values import T_BIGINT_ARRAY, encode_record

TYPES = (T_BIGINT_ARRAY,)


def varint_roundtrip(arr):
    """Round-trip a NULL-bearing array, asserting the varint segment is
    what carried it (cell = version byte, then the segment's tag)."""
    cell = encode_columnar(TYPES, (arr,))
    assert cell[1] == ENC_VARINT
    return decode_columnar(TYPES, cell)[0]


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        arr=st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-(2**62), max_value=2**62),
            ),
            max_size=60,
        )
    )
    def test_roundtrip(self, arr):
        arr = arr + [None]  # at least one NULL selects the varint segment
        assert varint_roundtrip(arr) == arr

    def test_sorted_arrays_compress_well(self):
        sorted_ts = [None] + list(range(30_000, 60_000, 60))  # typical tds
        packed = encode_columnar(TYPES, (sorted_ts,))
        flat = encode_record(TYPES, (sorted_ts,))
        assert len(packed) < len(flat) / 4

    def test_negative_jumps(self):
        arr = [1_000_000, -1_000_000, None, 0, 2**50, -(2**50)]
        assert varint_roundtrip(arr) == arr


class TestInSql:
    def test_unnest_and_slices_work(self):
        db = Database()
        db.execute(
            "CREATE TABLE p (v BIGINT, xs BIGINT[], PRIMARY KEY (v)) "
            "STORAGE = COLUMNAR"
        )
        db.execute("INSERT INTO p VALUES (1, ARRAY[5, NULL, 6, 9])")
        assert db.execute("SELECT UNNEST(xs) FROM p WHERE v = 1").rows == [
            (5,), (None,), (6,), (9,),
        ]
        assert db.execute("SELECT xs[1:2] FROM p WHERE v = 1").scalar() == [5, None]
        assert db.execute("SELECT CARDINALITY(xs) FROM p WHERE v = 1").scalar() == 4
