"""Tests for the minidb type system and record codec."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SQLTypeError, StorageError
from repro.minidb.values import (
    NP_DECODE_MIN,
    Column,
    T_BIGINT,
    T_BIGINT_ARRAY,
    T_BOOL,
    T_DOUBLE,
    T_DOUBLE_ARRAY,
    T_TEXT,
    check_value,
    decode_record,
    encode_record,
    type_from_name,
    type_name,
)
from tests.minidb.reference import assert_decoded

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class TestTypeNames:
    @pytest.mark.parametrize(
        "name,tag",
        [
            ("BIGINT", T_BIGINT),
            ("bigint", T_BIGINT),
            ("int", T_BIGINT),
            ("INTEGER", T_BIGINT),
            ("double precision", T_DOUBLE),
            ("TEXT", T_TEXT),
            ("varchar", T_TEXT),
            ("BOOLEAN", T_BOOL),
            ("BIGINT[]", T_BIGINT_ARRAY),
            ("int[]", T_BIGINT_ARRAY),
            ("FLOAT8[]", T_DOUBLE_ARRAY),
        ],
    )
    def test_resolution(self, name, tag):
        assert type_from_name(name) == tag

    def test_unknown_name(self):
        with pytest.raises(SQLTypeError):
            type_from_name("JSONB")

    def test_unknown_tag(self):
        with pytest.raises(SQLTypeError):
            type_name(99)

    def test_column_validates_eagerly(self):
        with pytest.raises(SQLTypeError):
            Column("c", 99)
        assert Column("c", T_BIGINT).type_str == "BIGINT"


class TestCheckValue:
    def test_null_always_ok(self):
        for tag in (T_BIGINT, T_DOUBLE, T_TEXT, T_BOOL, T_BIGINT_ARRAY):
            assert check_value(tag, None) is None

    def test_bigint(self):
        assert check_value(T_BIGINT, 42) == 42
        with pytest.raises(SQLTypeError):
            check_value(T_BIGINT, 4.5)
        with pytest.raises(SQLTypeError):
            check_value(T_BIGINT, True)  # bools are not ints here

    def test_double_coerces_int(self):
        assert check_value(T_DOUBLE, 3) == 3.0
        assert isinstance(check_value(T_DOUBLE, 3), float)

    def test_text(self):
        assert check_value(T_TEXT, "hi") == "hi"
        with pytest.raises(SQLTypeError):
            check_value(T_TEXT, 5)

    def test_array_elements_checked(self):
        assert check_value(T_BIGINT_ARRAY, (1, 2, None)) == [1, 2, None]
        with pytest.raises(SQLTypeError):
            check_value(T_BIGINT_ARRAY, [1, "x"])
        with pytest.raises(SQLTypeError):
            check_value(T_BIGINT_ARRAY, 7)

    def test_double_array_coerces(self):
        assert check_value(T_DOUBLE_ARRAY, [1, 2.5]) == [1.0, 2.5]


class TestRecordCodec:
    TYPES = (T_BIGINT, T_DOUBLE, T_TEXT, T_BOOL, T_BIGINT_ARRAY, T_DOUBLE_ARRAY)

    def test_simple_roundtrip(self):
        row = (7, 3.25, "héllo", True, [1, -2, None], [0.5, None])
        raw = encode_record(self.TYPES, row)
        assert decode_record(self.TYPES, raw) == row

    def test_all_nulls(self):
        row = (None,) * 6
        raw = encode_record(self.TYPES, row)
        assert decode_record(self.TYPES, raw) == row

    def test_empty_arrays(self):
        types = (T_BIGINT_ARRAY,)
        assert decode_record(types, encode_record(types, ([],))) == ([],)

    def test_arity_mismatch(self):
        with pytest.raises(StorageError):
            encode_record((T_BIGINT,), (1, 2))

    def test_many_columns_bitmap(self):
        types = (T_BIGINT,) * 20
        row = tuple(i if i % 3 else None for i in range(20))
        assert decode_record(types, encode_record(types, row)) == row

    @settings(max_examples=200, deadline=None)
    @given(
        number=st.integers(min_value=I64_MIN, max_value=I64_MAX),
        real=st.floats(allow_nan=False, allow_infinity=False),
        text=st.text(max_size=80),
        flag=st.booleans(),
        arr=st.lists(
            st.one_of(st.none(), st.integers(min_value=I64_MIN, max_value=I64_MAX)),
            max_size=40,
        ),
    )
    @example(number=0, real=0.0, text="", flag=False, arr=[I64_MAX, I64_MIN, None])
    def test_property_roundtrip(self, number, real, text, flag, arr):
        types = (T_BIGINT, T_DOUBLE, T_TEXT, T_BOOL, T_BIGINT_ARRAY)
        row = (number, real, text, flag, arr)
        assert_decoded(types, decode_record(types, encode_record(types, row)), row)


class TestNullElements:
    """Arrays holding NULL elements: a ``BIGINT[]`` one round-trips to the
    list it was, whatever its length; a ``DOUBLE[]`` one has a fixed byte
    layout."""

    @settings(max_examples=300, deadline=None)
    @given(
        arr=st.lists(
            st.one_of(st.none(), st.integers(min_value=I64_MIN, max_value=I64_MAX)),
            min_size=1,
            max_size=90,
        ).filter(lambda arr: None in arr)
    )
    @example(arr=[None, None, None])
    @example(arr=[None, 42])
    @example(arr=[I64_MAX, None, I64_MIN])
    @example(arr=[None] + [I64_MIN + 7 * i for i in range(NP_DECODE_MIN + 8)])
    @example(arr=list(range(NP_DECODE_MIN)) + [None] + [I64_MAX, I64_MIN] * 20)
    def test_bigint_array_roundtrip(self, arr):
        types = (T_BIGINT, T_BIGINT_ARRAY)
        decoded = decode_record(types, encode_record(types, (7, arr)))
        assert decoded == (7, arr)
        assert type(decoded[1]) is list

    def test_double_array_bytes(self):
        values = [None, 1.5, -2.0, None, 0.25, 3.0, 4.0, 5.0, 6.0, None]
        # record null bitmap | u32 count | element null bitmap | present f64s
        want = (
            b"\x00"
            + struct.pack("<I", len(values))
            + bytes([0b00001001, 0b00000010])
            + struct.pack("<7d", 1.5, -2.0, 0.25, 3.0, 4.0, 5.0, 6.0)
        )
        types = (T_DOUBLE_ARRAY,)
        assert encode_record(types, (values,)) == want
        assert decode_record(types, want) == (values,)


class TestOutOfRangeWrites:
    """A value no column can store is a typed error before any page is
    written, whichever way it reaches the table."""

    DDL = (
        "CREATE TABLE t (k BIGINT, b BIGINT, d DOUBLE, s TEXT, xs BIGINT[], "
        "ds DOUBLE[], PRIMARY KEY (k))"
    )
    NAMES = ("k", "b", "d", "s", "xs", "ds")
    TYPES = (T_BIGINT, T_BIGINT, T_DOUBLE, T_TEXT, T_BIGINT_ARRAY, T_DOUBLE_ARRAY)
    GOOD = (1, 2, 2.5, "x", [3, 4], [1.5])
    INSERT = "INSERT INTO t VALUES ($1, $2, $3, $4, $5, $6)"
    #: (column, value, the same value as SQL literal text)
    BAD = [
        pytest.param("b", 2**63, "9223372036854775808", id="bigint-high"),
        pytest.param("b", -(2**63) - 1, "-9223372036854775809", id="bigint-low"),
        pytest.param("d", 2**1100, str(2**1100), id="double"),
        pytest.param("s", "\ud800", "'\ud800'", id="lone-surrogate"),
        pytest.param(
            "xs", [1, 2**63], "ARRAY[1, 9223372036854775808]", id="bigint-array-high"
        ),
        pytest.param(
            "xs", [-(2**63) - 1], "ARRAY[-9223372036854775809]", id="bigint-array-low"
        ),
        pytest.param("ds", [2**1100], f"ARRAY[{2**1100}]", id="double-array"),
    ]

    @pytest.fixture
    def db(self):
        from repro.minidb.engine import Database

        db = Database()
        db.execute(self.DDL)
        db.execute(self.INSERT, self.GOOD)
        yield db
        db.close()

    @staticmethod
    def state(db):
        return db.execute("SELECT * FROM t ORDER BY k").rows, db.catalog.describe()

    def new_row(self, column, value):
        row = [2, *self.GOOD[1:]]
        row[self.NAMES.index(column)] = value
        return tuple(row)

    def literal_insert(self, column, literal):
        """``INSERT … VALUES`` with *literal* in *column*, ``$n`` elsewhere."""
        slots, params = [], []
        for name, value in zip(self.NAMES, self.new_row(column, None)):
            if name == column:
                slots.append(literal)
            else:
                params.append(value)
                slots.append(f"${len(params)}")
        return f"INSERT INTO t VALUES ({', '.join(slots)})", tuple(params)

    @pytest.mark.parametrize("column,value,literal", BAD)
    def test_rejected_on_every_write_path(self, db, column, value, literal):
        bad = self.new_row(column, value)
        attempts = [
            lambda: db.execute(*self.literal_insert(column, literal)),
            lambda: db.execute(self.INSERT, bad),
            lambda: db.executemany(self.INSERT, [bad, (3, *self.GOOD[1:])]),
            lambda: db.execute(f"UPDATE t SET {column} = $1", (value,)),
        ]
        before = self.state(db)
        for attempt in attempts:
            with pytest.raises(SQLTypeError):
                attempt()
            assert self.state(db) == before

    @pytest.mark.parametrize("column,value,literal", BAD)
    def test_check_value_rejects(self, column, value, literal):
        with pytest.raises(SQLTypeError):
            check_value(self.TYPES[self.NAMES.index(column)], value)

    def test_int64_bounds_are_accepted(self, db):
        row = (5, -(2**63), 1.0, "ok", [2**63 - 1, -(2**63)], [float(2**1000)])
        db.execute(self.INSERT, row)
        assert db.execute("SELECT * FROM t WHERE k = 5").rows == [row]
