"""Columnar record codec for label tables.

The paper's hub-label tables are array-heavy and sorted: every row carries
``hubs``/``tds``/``tas`` parallel arrays ordered by ``(hub, td)``. The row
codec (``values.encode_record``) stores those as 8 bytes per element. Here
each row is instead stored as a *column group*: one self-describing segment
per column, with sorted integer arrays delta-encoded against their
predecessor and the zig-zagged deltas packed at the smallest fixed width
that fits (1/2/4/8 bytes). Fixed-width deltas — rather than varints — are
what makes the segments numpy-decodable: decode is ``frombuffer`` →
unzigzag → ``cumsum``, no per-element Python loop. Arrays with NULL
elements fall back to a delta + zig-zag varint packing.

Cell layout::

    u8 version
    per column:  u8 encoding tag | u32 element count | payload

Delta payloads are ``i64 first`` followed by ``count-1`` unsigned
little-endian deltas of the tag's width. Deltas are computed mod 2^64 (the
same wraparound numpy's int64 arithmetic performs), so any int64 sequence
round-trips exactly.

The cells live on ordinary heap pages: ``Table.encode``/``decode`` pick
this codec or ``values.encode_record`` per table, and nothing below the
codec knows which one a cell holds.
"""

from __future__ import annotations

import operator
import struct

import numpy as _np

from repro.errors import StorageError
from repro.minidb.values import (
    T_BIGINT,
    T_BIGINT_ARRAY,
    T_BOOL,
    T_DOUBLE,
    T_DOUBLE_ARRAY,
    T_TEXT,
    _decode_double_array,
    _encode_double_array,
    type_name,
)

COLUMNAR_VERSION = 1

# Per-column segment header: encoding tag, element count.
_SEG = struct.Struct("<BI")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

ENC_NULL = 0  # SQL NULL, no payload
ENC_I64 = 1  # scalar BIGINT, 8-byte payload
ENC_F64 = 2  # scalar DOUBLE
ENC_BOOL = 3  # scalar BOOLEAN, 1 byte
ENC_TEXT = 4  # UTF-8, count = byte length
ENC_DELTA1 = 5  # i64 first + u8 zig-zag deltas
ENC_DELTA2 = 6  # i64 first + u16 zig-zag deltas
ENC_DELTA4 = 7  # i64 first + u32 zig-zag deltas
ENC_DELTA8 = 8  # i64 first + u64 zig-zag deltas
ENC_VARINT = 9  # _encode_varint_array payload (arrays with NULL elements)
ENC_F64ARR = 10  # values._encode_double_array payload

_DELTA_WIDTH = {ENC_DELTA1: 1, ENC_DELTA2: 2, ENC_DELTA4: 4, ENC_DELTA8: 8}
_WIDTH_ENC = {1: ENC_DELTA1, 2: ENC_DELTA2, 4: ENC_DELTA4, 8: ENC_DELTA8}
#: struct format character of each delta width (bulk pack and unpack).
_DELTA_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}
_U64_MASK = (1 << 64) - 1
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _wrap_i64(value: int) -> int:
    """Reduce an unbounded int to its int64 two's-complement value."""
    return ((value + (1 << 63)) & _U64_MASK) - (1 << 63)


# ---------------------------------------------------------------------------
# Varint segment codec (ENC_VARINT): integer arrays with NULL elements
# ---------------------------------------------------------------------------
def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_varint(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(buf: memoryview, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _encode_varint_array(values: list) -> bytes:
    """Delta + zig-zag varint encoding; NULL elements get a presence map."""
    out = bytearray(_U32.pack(len(values)))
    bitmap = bytearray((len(values) + 7) // 8)
    for i, item in enumerate(values):
        if item is None:
            bitmap[i // 8] |= 1 << (i % 8)
    out += bitmap
    previous = 0
    for item in values:
        if item is None:
            continue
        _encode_varint(_zigzag(item - previous), out)
        previous = item
    return bytes(out)


def _decode_varint_array(buf: memoryview, pos: int) -> tuple[list, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    nbytes = (count + 7) // 8
    bitmap = bytes(buf[pos : pos + nbytes])
    pos += nbytes
    out: list = []
    previous = 0
    for i in range(count):
        if bitmap[i // 8] & (1 << (i % 8)):
            out.append(None)
            continue
        raw, pos = _decode_varint(buf, pos)
        previous += _unzigzag(raw)
        out.append(previous)
    return out, pos


# ---------------------------------------------------------------------------
# Integer-array segment encode/decode
# ---------------------------------------------------------------------------
def _encode_int_array(values: list) -> tuple[int, bytes]:
    """Encode one BIGINT[] column value, returning ``(encoding, payload)``."""
    if None in values:
        return ENC_VARINT, _encode_varint_array(values)
    if not values:
        return ENC_DELTA1, b""
    if min(values) < _I64_MIN or max(values) > _I64_MAX:
        raise StorageError("BIGINT array element out of int64 range")
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
    max_zz = max(zz)
    if max_zz < 1 << 8:
        width = 1
    elif max_zz < 1 << 16:
        width = 2
    elif max_zz < 1 << 32:
        width = 4
    else:
        width = 8
    payload = struct.pack("<q%d%s" % (len(zz), _DELTA_FMT[width]), first, *zz)
    return _WIDTH_ENC[width], payload


#: Below this element count the pure-python delta loop beats numpy — the
#: fixed per-call cost of ~7 small-array numpy operations crosses over
#: around 32 elements (measured; see docs/PERFORMANCE.md).
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


# ---------------------------------------------------------------------------
# Whole-record encode/decode
# ---------------------------------------------------------------------------
def encode_columnar(types: tuple[int, ...], values: tuple) -> bytes:
    """Serialize one row as a column-group cell."""
    if len(values) != len(types):
        raise StorageError(
            f"record has {len(values)} values for {len(types)} columns"
        )
    parts = [bytes([COLUMNAR_VERSION])]
    for tag, value in zip(types, values):
        if value is None:
            parts.append(_SEG.pack(ENC_NULL, 0))
        elif tag == T_BIGINT:
            parts.append(_SEG.pack(ENC_I64, 1))
            parts.append(_I64.pack(value))
        elif tag == T_DOUBLE:
            parts.append(_SEG.pack(ENC_F64, 1))
            parts.append(_F64.pack(value))
        elif tag == T_BOOL:
            parts.append(_SEG.pack(ENC_BOOL, 1))
            parts.append(bytes([1 if value else 0]))
        elif tag == T_TEXT:
            raw = value.encode("utf-8")
            parts.append(_SEG.pack(ENC_TEXT, len(raw)))
            parts.append(raw)
        elif tag == T_BIGINT_ARRAY:
            enc, payload = _encode_int_array(value)
            parts.append(_SEG.pack(enc, len(value)))
            parts.append(payload)
        elif tag == T_DOUBLE_ARRAY:
            parts.append(_SEG.pack(ENC_F64ARR, len(value)))
            parts.append(_encode_double_array(value))
        else:
            raise StorageError(f"unsupported column type {type_name(tag)}")
    return b"".join(parts)


def decode_columnar(
    types: tuple[int, ...], data: bytes | memoryview, np_arrays: bool = False
) -> tuple:
    """Decode a column-group cell back into a row tuple.

    With ``np_arrays=True`` delta-encoded integer-array
    cells come back as int64 ndarrays instead of lists — no per-element
    materialization at all. Only the batch executor's UNNEST producer asks
    for this shape (the planner marks eligible scans ``np_decode``); every
    other consumer sees plain lists. Varint/NULL fallback segments decode
    to lists either way.
    """
    buf = memoryview(data)
    if len(buf) == 0 or buf[0] != COLUMNAR_VERSION:
        raise StorageError("bad columnar record version")
    pos = 1
    out = []
    for tag in types:
        enc, count = _SEG.unpack_from(buf, pos)
        pos += _SEG.size
        if enc in _DELTA_WIDTH and count < NP_DECODE_MIN:
            # Below the crossover the python loop wins even for ndarray
            # consumers (they take list cells); inline: aux arrays are short.
            value = []
            if count:
                (prev,) = _I64.unpack_from(buf, pos)
                value.append(prev)
                pos += 8
            if count > 1:
                width = _DELTA_WIDTH[enc]
                end = pos + (count - 1) * width
                # One bulk unpack of the zig-zag deltas (memoryview
                # iteration for width 1), then inline unzigzag; the int64
                # wrap only fires on a sequence that crosses the boundary.
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
            out.append(value)
        elif enc == ENC_NULL:
            out.append(None)
        elif enc == ENC_I64:
            (value,) = _I64.unpack_from(buf, pos)
            pos += 8
            out.append(value)
        elif enc == ENC_F64:
            (value,) = _F64.unpack_from(buf, pos)
            pos += 8
            out.append(value)
        elif enc == ENC_BOOL:
            out.append(bool(buf[pos]))
            pos += 1
        elif enc == ENC_TEXT:
            out.append(bytes(buf[pos : pos + count]).decode("utf-8"))
            pos += count
        elif enc in _DELTA_WIDTH:
            width = _DELTA_WIDTH[enc]
            nbytes = 8 + (count - 1) * width
            value = _decode_delta_np(buf[pos : pos + nbytes], count, width)
            out.append(value if np_arrays else value.tolist())
            pos += nbytes
        elif enc == ENC_VARINT:
            value, pos = _decode_varint_array(buf, pos)
            out.append(value)
        elif enc == ENC_F64ARR:
            value, pos = _decode_double_array(buf, pos)
            out.append(value)
        else:
            raise StorageError(f"unknown columnar encoding tag {enc}")
    return tuple(out)
