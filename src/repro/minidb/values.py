"""Type system and binary codecs for minidb values.

minidb supports a deliberately small set of column types — exactly what the
PTLDB schema needs (PostgreSQL's ``bigint``, ``double precision``, ``text``
and ``bigint[]``) — but implements them with real, length-prefixed binary
serialization so that records occupy realistic page space and array columns
(the hub-label vectors) have a faithful storage footprint.

SQL ``NULL`` is represented as Python ``None`` throughout the engine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import SQLTypeError, StorageError

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

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


def is_array_type(tag: int) -> bool:
    return tag in (T_BIGINT_ARRAY, T_DOUBLE_ARRAY)


def check_value(tag: int, value: object) -> object:
    """Validate (and lightly coerce) *value* against column type *tag*.

    Returns the canonical in-memory representation. Raises
    :class:`SQLTypeError` on mismatch.
    """
    if value is None:
        return None
    if tag == T_BIGINT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SQLTypeError(f"expected BIGINT, got {value!r}")
        return value
    if tag == T_DOUBLE:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SQLTypeError(f"expected DOUBLE, got {value!r}")
        return float(value)
    if tag == T_TEXT:
        if not isinstance(value, str):
            raise SQLTypeError(f"expected TEXT, got {value!r}")
        return value
    if tag == T_BOOL:
        if not isinstance(value, bool):
            raise SQLTypeError(f"expected BOOL, got {value!r}")
        return value
    if tag == T_BIGINT_ARRAY:
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
        return out
    if tag == T_DOUBLE_ARRAY:
        if not isinstance(value, (list, tuple)):
            raise SQLTypeError(f"expected DOUBLE[], got {value!r}")
        out = []
        for item in value:
            if item is None:
                out.append(None)
            elif isinstance(item, bool) or not isinstance(item, (int, float)):
                raise SQLTypeError(f"expected DOUBLE element, got {item!r}")
            else:
                out.append(float(item))
        return out
    raise SQLTypeError(f"unknown type tag {tag!r}")


# ---------------------------------------------------------------------------
# Binary record codec
# ---------------------------------------------------------------------------
#
# A record is encoded as a null bitmap (one byte per 8 columns) followed by
# the encoded non-null values in column order. Arrays are length-prefixed;
# array elements carry their own null bitmap so labels with NULL pivots can
# round-trip.

def _encode_bigint_array(values: list) -> bytes:
    parts = [_U32.pack(len(values))]
    bitmap = bytearray((len(values) + 7) // 8)
    payload = []
    for i, item in enumerate(values):
        if item is None:
            bitmap[i // 8] |= 1 << (i % 8)
        else:
            payload.append(_I64.pack(item))
    parts.append(bytes(bitmap))
    parts.extend(payload)
    return b"".join(parts)


def _decode_bigint_array(buf: memoryview, pos: int) -> tuple[list, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    nbytes = (count + 7) // 8
    bitmap = bytes(buf[pos : pos + nbytes])
    pos += nbytes
    out: list = []
    for i in range(count):
        if bitmap[i // 8] & (1 << (i % 8)):
            out.append(None)
        else:
            (item,) = _I64.unpack_from(buf, pos)
            pos += 8
            out.append(item)
    return out, pos


def _encode_double_array(values: list) -> bytes:
    parts = [_U32.pack(len(values))]
    bitmap = bytearray((len(values) + 7) // 8)
    payload = []
    for i, item in enumerate(values):
        if item is None:
            bitmap[i // 8] |= 1 << (i % 8)
        else:
            payload.append(_F64.pack(item))
    parts.append(bytes(bitmap))
    parts.extend(payload)
    return b"".join(parts)


def _decode_double_array(buf: memoryview, pos: int) -> tuple[list, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    nbytes = (count + 7) // 8
    bitmap = bytes(buf[pos : pos + nbytes])
    pos += nbytes
    out: list = []
    for i in range(count):
        if bitmap[i // 8] & (1 << (i % 8)):
            out.append(None)
        else:
            (item,) = _F64.unpack_from(buf, pos)
            pos += 8
            out.append(item)
    return out, pos


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
        if tag == T_BIGINT:
            parts.append(_I64.pack(value))
        elif tag == T_DOUBLE:
            parts.append(_F64.pack(value))
        elif tag == T_BOOL:
            parts.append(b"\x01" if value else b"\x00")
        elif tag == T_TEXT:
            raw = value.encode("utf-8")
            parts.append(_U32.pack(len(raw)))
            parts.append(raw)
        elif tag == T_BIGINT_ARRAY:
            parts.append(_encode_bigint_array(value))
        elif tag == T_DOUBLE_ARRAY:
            parts.append(_encode_double_array(value))
        else:
            raise SQLTypeError(f"unknown type tag {tag!r}")
    return bytes(bitmap) + b"".join(parts)


def decode_record(types: tuple[int, ...], data: bytes | memoryview) -> tuple:
    """Inverse of :func:`encode_record`."""
    buf = memoryview(data)
    nbytes = (len(types) + 7) // 8
    bitmap = bytes(buf[:nbytes])
    pos = nbytes
    values: list = []
    for i, tag in enumerate(types):
        if bitmap[i // 8] & (1 << (i % 8)):
            values.append(None)
            continue
        if tag == T_BIGINT:
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
        elif tag == T_BIGINT_ARRAY:
            value, pos = _decode_bigint_array(buf, pos)
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
