"""Type system and binary codecs for minidb values.

minidb supports a deliberately small set of column types — exactly what the
PTLDB schema needs (PostgreSQL's ``bigint``, ``double precision``, ``text``
and ``bigint[]``) — but implements them with real, length-prefixed binary
serialization so that records occupy realistic page space and array columns
(the hub-label vectors) have a faithful storage footprint.

SQL ``NULL`` is represented as Python ``None`` throughout the engine.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import chain

import numpy as _np

from repro.errors import SQLTypeError, StorageError

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Type tags used both in the catalog and as per-value wire tags.
T_BIGINT = 1
T_DOUBLE = 2
T_TEXT = 3
T_BIGINT_ARRAY = 4
T_DOUBLE_ARRAY = 5
T_BOOL = 6

_NAMES = {
    T_BIGINT: "BIGINT",
    T_DOUBLE: "DOUBLE",
    T_TEXT: "TEXT",
    T_BIGINT_ARRAY: "BIGINT[]",
    T_DOUBLE_ARRAY: "DOUBLE[]",
    T_BOOL: "BOOL",
}

_BY_NAME = {name: tag for tag, name in _NAMES.items()}
# Accept the PostgreSQL spellings used in the paper's DDL.
_BY_NAME.update(
    {
        "INT": T_BIGINT,
        "INT8": T_BIGINT,
        "INTEGER": T_BIGINT,
        "SMALLINT": T_BIGINT,
        "FLOAT": T_DOUBLE,
        "FLOAT8": T_DOUBLE,
        "DOUBLE PRECISION": T_DOUBLE,
        "REAL": T_DOUBLE,
        "VARCHAR": T_TEXT,
        "CHAR": T_TEXT,
        "STRING": T_TEXT,
        "BOOLEAN": T_BOOL,
        "INT[]": T_BIGINT_ARRAY,
        "INT8[]": T_BIGINT_ARRAY,
        "INTEGER[]": T_BIGINT_ARRAY,
        "FLOAT8[]": T_DOUBLE_ARRAY,
        "FLOAT[]": T_DOUBLE_ARRAY,
    }
)


def type_name(tag: int) -> str:
    """Human-readable name of a type tag."""
    try:
        return _NAMES[tag]
    except KeyError:
        raise SQLTypeError(f"unknown type tag {tag!r}") from None


def type_from_name(name: str) -> int:
    """Resolve a SQL type spelling (``BIGINT``, ``INT[]``, ...) to a tag."""
    try:
        return _BY_NAME[name.upper().strip()]
    except KeyError:
        raise SQLTypeError(f"unknown SQL type {name!r}") from None


def check_value(tag: int, value: object) -> object:
    """Validate (and lightly coerce) *value* against column type *tag*.

    Returns the canonical in-memory representation. Raises
    :class:`SQLTypeError` on mismatch, and for any value the record codec
    cannot store: an integer outside int64, one too large for a double, a
    string that is not encodable as UTF-8.
    """
    if value is None:
        return None
    if tag == T_BIGINT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SQLTypeError(f"expected BIGINT, got {value!r}")
        if not _I64_MIN <= value <= _I64_MAX:
            raise SQLTypeError(f"BIGINT value out of range: {value}")
        return value
    if tag == T_DOUBLE:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SQLTypeError(f"expected DOUBLE, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise SQLTypeError("DOUBLE value out of range") from None
    if tag == T_TEXT:
        if not isinstance(value, str):
            raise SQLTypeError(f"expected TEXT, got {value!r}")
        if not value.isascii():  # only a lone surrogate fails to encode
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SQLTypeError(
                    f"TEXT value is not valid UTF-8: {exc}"
                ) from None
        return value
    if tag == T_BOOL:
        if not isinstance(value, bool):
            raise SQLTypeError(f"expected BOOL, got {value!r}")
        return value
    if tag == T_BIGINT_ARRAY:
        if type(value) is _np.ndarray and value.dtype == _np.int64:
            return value.tolist()  # a decoded cell (see decode_record)
        if not isinstance(value, (list, tuple)):
            raise SQLTypeError(f"expected BIGINT[], got {value!r}")
        out = []
        for item in value:
            if item is None:
                out.append(None)
            elif isinstance(item, bool) or not isinstance(item, int):
                raise SQLTypeError(f"expected BIGINT element, got {item!r}")
            else:
                out.append(item)
        ints = [item for item in out if item is not None] if None in out else out
        if ints and (min(ints) < _I64_MIN or max(ints) > _I64_MAX):
            raise SQLTypeError("BIGINT[] element out of range")
        return out
    if tag == T_DOUBLE_ARRAY:
        if not isinstance(value, (list, tuple)):
            raise SQLTypeError(f"expected DOUBLE[], got {value!r}")
        out = []
        try:
            for item in value:
                if item is None:
                    out.append(None)
                elif isinstance(item, bool) or not isinstance(item, (int, float)):
                    raise SQLTypeError(f"expected DOUBLE element, got {item!r}")
                else:
                    out.append(float(item))
        except OverflowError:
            raise SQLTypeError("DOUBLE[] element out of range") from None
        return out
    raise SQLTypeError(f"unknown type tag {tag!r}")


#: Column types whose cells :func:`check_value` returns as they are.
_AS_IS = {T_BIGINT: {int}, T_DOUBLE: {float}, T_TEXT: {str}, T_BOOL: {bool}}


def check_column(tag: int, values) -> list:
    """:func:`check_value` over one column of a chunk, up to the first value
    it refuses. A column of plain cells — one Python type, for ``BIGINT[]``
    lists of ints and 1-d int64 ndarrays — is checked as a whole, with one
    range (or ASCII) test, and comes back as it is: an ndarray cell is
    encoded from the array. Any other column goes value by value."""
    present = [v for v in values if v is not None]
    kinds = set(map(type, present))
    if tag == T_BIGINT_ARRAY and kinds <= {list, _np.ndarray}:
        elements = list(chain.from_iterable(v for v in present if type(v) is list))
        ok = len(check_column(T_BIGINT, elements)) == len(elements) and all(
            v.dtype == _np.int64 and v.ndim == 1 for v in present if type(v) is not list
        )
    else:
        ok = kinds <= _AS_IS.get(tag, set()) and (
            not present or _I64_MIN <= min(present) and max(present) <= _I64_MAX
            if tag == T_BIGINT
            else tag != T_TEXT or all(map(str.isascii, present))
        )
    if ok:
        return list(values)
    out = []
    for value in values:
        try:
            out.append(check_value(tag, value))
        except SQLTypeError:
            break
    return out


# ---------------------------------------------------------------------------
# Binary record codec
# ---------------------------------------------------------------------------
#
# One format for every table. A record is a null bitmap (one bit per
# column, rounded up to whole bytes) followed by the non-null values in
# column order:
#
#   BIGINT, DOUBLE   8 bytes
#   BOOL             1 byte
#   TEXT             u32 byte length | UTF-8
#   DOUBLE[]         u32 count | element null bitmap | 8 bytes per element
#   BIGINT[]         u8 enc | u32 count | payload (a segment, below)
#
# A BIGINT[] segment is delta-encoded: the hub-label arrays are sorted, so
# the zig-zagged differences between neighbours are packed at the smallest
# fixed width that fits them all (1/2/4/8 bytes). Fixed widths, rather than
# variable-length codes, make a long segment numpy-decodable: ``frombuffer``
# → unzigzag → ``cumsum``, no per-element Python loop. Deltas are taken mod
# 2^64 (the wraparound numpy's int64 arithmetic performs), so any int64
# sequence round-trips exactly. An array with NULL elements sets
# ``ENC_NULLS`` on its tag and writes the element null bitmap before the
# delta payload, which then covers only the non-NULL elements.

def _null_bitmap(values) -> bytes:
    """One bit per element of *values*, set where the element is NULL."""
    bitmap = bytearray((len(values) + 7) // 8)
    for i, item in enumerate(values):
        if item is None:
            bitmap[i >> 3] |= 1 << (i & 7)
    return bytes(bitmap)


def _put_nulls(present, bitmap, count: int) -> list:
    """The *count* elements whose NULLs are the set bits of *bitmap* and
    whose other elements are *present*, in order."""
    rest = iter(present)
    return [
        None if bitmap[i >> 3] >> (i & 7) & 1 else next(rest) for i in range(count)
    ]


def _read_bitmap(buf: memoryview, pos: int, count: int):
    """``(bitmap, non-NULL element count, end)`` of the bitmap at *pos*."""
    end = pos + (count + 7) // 8
    bitmap = bytes(buf[pos:end])
    return bitmap, count - int.from_bytes(bitmap, "little").bit_count(), end


def _encode_double_array(values: list) -> bytes:
    present = [item for item in values if item is not None]
    return (
        _U32.pack(len(values))
        + _null_bitmap(values)
        + struct.pack("<%dd" % len(present), *present)
    )


def _decode_double_array(buf: memoryview, pos: int) -> tuple[list, int]:
    (count,) = _U32.unpack_from(buf, pos)
    bitmap, present, pos = _read_bitmap(buf, pos + 4, count)
    values = struct.unpack_from("<%dd" % present, buf, pos)
    return _put_nulls(values, bitmap, count), pos + 8 * present


#: BIGINT[] segment header: encoding tag, element count.
_SEG = struct.Struct("<BI")
ENC_DELTA1 = 5  # i64 first + u8 zig-zag deltas
ENC_DELTA2 = 6  # i64 first + u16 zig-zag deltas
ENC_DELTA4 = 7  # i64 first + u32 zig-zag deltas
ENC_DELTA8 = 8  # i64 first + u64 zig-zag deltas
#: Flag on a delta tag: an element null bitmap precedes the payload, which
#: holds only the non-NULL elements. Tag 9 named a retired format for such
#: arrays and stays unused: a cell carrying it is a ``StorageError``.
ENC_NULLS = 0x10

_DELTA_WIDTH = {ENC_DELTA1: 1, ENC_DELTA2: 2, ENC_DELTA4: 4, ENC_DELTA8: 8}
_WIDTH_ENC = {1: ENC_DELTA1, 2: ENC_DELTA2, 4: ENC_DELTA4, 8: ENC_DELTA8}
#: struct format character of each delta width (bulk pack and unpack).
_DELTA_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}
_U64_MASK = (1 << 64) - 1


def _wrap_i64(value: int) -> int:
    """Reduce an unbounded int to its int64 two's-complement value."""
    return ((value + (1 << 63)) & _U64_MASK) - (1 << 63)


# ---------------------------------------------------------------------------
# Integer-array segment encode/decode
# ---------------------------------------------------------------------------
def _encode_int_array(values: list) -> tuple[int, bytes]:
    """Encode one BIGINT[] column value, returning ``(encoding, payload)``.
    Elements are int64 already: :func:`check_value` range-checks them. An
    int64 ndarray is encoded from the array (:func:`_encode_int64s`)."""
    if type(values) is _np.ndarray:
        return _encode_int64s(values)
    if None in values:
        enc, payload = _encode_int_array([v for v in values if v is not None])
        return enc | ENC_NULLS, _null_bitmap(values) + payload
    if not values:
        return ENC_DELTA1, b""
    first = values[0]
    if len(values) == 1:
        return ENC_DELTA1, _I64.pack(first)
    deltas = list(map(operator.sub, values[1:], values))
    low = min(deltas)
    # Deltas mod 2^64, then zig-zag — both are exactly numpy's wrapping
    # int64 arithmetic, so encode and decode agree on either path. Only a
    # pair of elements more than 2^63 apart has a delta that needs the wrap.
    if low < _I64_MIN or max(deltas) > _I64_MAX:
        deltas = [_wrap_i64(delta) for delta in deltas]
    zz = [(delta << 1) ^ (delta >> 63) for delta in deltas]
    width = _delta_width(max(zz))
    payload = struct.pack("<q%d%s" % (len(zz), _DELTA_FMT[width]), first, *zz)
    return _WIDTH_ENC[width], payload


def _delta_width(top: int) -> int:
    """The narrowest delta width (bytes) that holds zig-zag value *top*."""
    return 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4 if top < 1 << 32 else 8


def _encode_int64s(values) -> tuple[int, bytes]:
    """:func:`_encode_int_array` of an int64 ndarray, in numpy: ``np.diff``
    wraps mod 2^64 and the zig-zag runs in int64 viewed as uint64, as the
    list path computes them, so the bytes are the same."""
    if len(values) < 2:
        return ENC_DELTA1, values.astype("<i8").tobytes()
    deltas = _np.diff(values)
    zz = ((deltas << 1) ^ (deltas >> 63)).view(_np.uint64)
    width = _delta_width(int(zz.max()))
    payload = values[:1].astype("<i8").tobytes() + zz.astype(f"<u{width}").tobytes()
    return _WIDTH_ENC[width], payload


#: From this element count on, a delta segment decodes to an int64 ndarray;
#: below it the pure-python delta loop beats numpy — the fixed per-call cost
#: of ~7 small-array numpy operations crosses over around 32 elements
#: (measured; see docs/PERFORMANCE.md).
NP_DECODE_MIN = 32


def _decode_delta_np(payload: memoryview, count: int, width: int):
    """Delta-segment decode returning an int64 ndarray."""
    vals = _np.empty(count, dtype=_np.int64)
    if count == 0:
        return vals
    (vals[0],) = _I64.unpack_from(payload, 0)
    if count == 1:
        return vals
    raw = _np.frombuffer(
        payload, dtype=f"<u{width}", count=count - 1, offset=8
    ).astype(_np.uint64)
    # unzigzag in uint64 as (raw >> 1) ^ -(raw & 1), straight into the
    # output's tail (bit-reinterpreted, so values ≥ 2^63 are the negative
    # deltas); one wrapping cumsum over first + deltas finishes in place.
    sign = raw & 1
    _np.negative(sign, out=sign)
    raw >>= 1
    _np.bitwise_xor(raw, sign, out=vals.view(_np.uint64)[1:])
    _np.cumsum(vals, out=vals)
    return vals


def encode_record(types: tuple[int, ...], values: tuple) -> bytes:
    """Serialize one row (matching *types*) to bytes."""
    if len(types) != len(values):
        raise StorageError(
            f"record arity mismatch: {len(values)} values for {len(types)} columns"
        )
    bitmap = bytearray((len(types) + 7) // 8)
    parts: list[bytes] = []
    for i, (tag, value) in enumerate(zip(types, values)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
            continue
        if tag == T_BIGINT_ARRAY:
            enc, payload = _encode_int_array(value)
            parts.append(_SEG.pack(enc, len(value)))
            parts.append(payload)
        elif tag == T_BIGINT:
            parts.append(_I64.pack(value))
        elif tag == T_DOUBLE:
            parts.append(_F64.pack(value))
        elif tag == T_BOOL:
            parts.append(b"\x01" if value else b"\x00")
        elif tag == T_TEXT:
            raw = value.encode("utf-8")
            parts.append(_U32.pack(len(raw)))
            parts.append(raw)
        elif tag == T_DOUBLE_ARRAY:
            parts.append(_encode_double_array(value))
        else:
            raise SQLTypeError(f"unknown type tag {tag!r}")
    return bytes(bitmap) + b"".join(parts)


def decode_record(types: tuple[int, ...], data: bytes | memoryview) -> tuple:
    """Inverse of :func:`encode_record`.

    A delta segment of ``NP_DECODE_MIN`` or more elements comes back as an
    int64 ndarray — no per-element materialization at all; shorter segments
    and arrays with NULL elements decode to lists. The executor reads
    ndarray cells raw only as UNNEST arguments; every other consumer sees
    the list (an array-typed column reference and a projection convert,
    :func:`check_value` stores one back).
    """
    buf = memoryview(data)
    pos = (len(types) + 7) // 8
    nulls = buf[0] if pos == 1 else int.from_bytes(buf[:pos], "little")
    values: list = []
    for tag in types:
        if nulls:  # the null bitmap, consumed one column at a time
            null = nulls & 1
            nulls >>= 1
            if null:
                values.append(None)
                continue
        if tag == T_BIGINT_ARRAY:
            enc, count = _SEG.unpack_from(buf, pos)
            pos += _SEG.size
            if enc in _DELTA_WIDTH and count < NP_DECODE_MIN:
                # Below the crossover the python loop wins; inline: aux
                # arrays are short.
                value = []
                if count:
                    (prev,) = _I64.unpack_from(buf, pos)
                    value.append(prev)
                    pos += 8
                if count > 1:
                    width = _DELTA_WIDTH[enc]
                    end = pos + (count - 1) * width
                    # One bulk unpack of the zig-zag deltas (memoryview
                    # iteration for width 1), then inline unzigzag; the
                    # int64 wrap only fires on a sequence that crosses the
                    # boundary.
                    if width == 1:
                        packed = buf[pos:end]
                    else:
                        fmt = "<%d%s" % (count - 1, _DELTA_FMT[width])
                        packed = struct.unpack_from(fmt, buf, pos)
                    for z in packed:
                        prev += (z >> 1) ^ -(z & 1)
                        if prev > _I64_MAX or prev < _I64_MIN:
                            prev = _wrap_i64(prev)
                        value.append(prev)
                    pos = end
            elif enc in _DELTA_WIDTH:
                end = pos + 8 + (count - 1) * _DELTA_WIDTH[enc]
                value = _decode_delta_np(buf[pos:end], count, _DELTA_WIDTH[enc])
                pos = end
            elif enc - ENC_NULLS in _DELTA_WIDTH:
                # The non-NULL elements are an ordinary delta segment.
                width = _DELTA_WIDTH[enc - ENC_NULLS]
                bitmap, present, start = _read_bitmap(buf, pos, count)
                pos = start + (8 + (present - 1) * width if present else 0)
                value = _decode_delta_np(buf[start:pos], present, width)
                value = _put_nulls(value.tolist(), bitmap, count)
            else:
                raise StorageError(f"unknown BIGINT[] segment tag {enc}")
        elif tag == T_BIGINT:
            (value,) = _I64.unpack_from(buf, pos)
            pos += 8
        elif tag == T_DOUBLE:
            (value,) = _F64.unpack_from(buf, pos)
            pos += 8
        elif tag == T_BOOL:
            value = buf[pos] != 0
            pos += 1
        elif tag == T_TEXT:
            (length,) = _U32.unpack_from(buf, pos)
            pos += 4
            value = bytes(buf[pos : pos + length]).decode("utf-8")
            pos += length
        elif tag == T_DOUBLE_ARRAY:
            value, pos = _decode_double_array(buf, pos)
        else:
            raise SQLTypeError(f"unknown type tag {tag!r}")
        values.append(value)
    return tuple(values)


@dataclass(frozen=True)
class Column:
    """A column definition: name plus minidb type tag."""

    name: str
    type_tag: int

    def __post_init__(self) -> None:
        type_name(self.type_tag)  # validate eagerly

    @property
    def type_str(self) -> str:
        return type_name(self.type_tag)
