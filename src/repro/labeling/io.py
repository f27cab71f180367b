"""Binary (de)serialization of TTL labels + the preprocessing cache.

The TTL authors distribute preprocessed label files; PTLDB loads them into
the database. This module gives the reproduction the same decoupling: build
labels once, save them, reload into any number of PTLDB databases.

Format v2 (little-endian): magic ``TTL2``, u32 num_stops, u8 flags
(bit 0 = dummy tuples were added), the vertex order (u32 each), then for
each vertex two tuple lists (lout, lin), each a u32 count followed by
``<q q q q q>`` records (hub, td, ta, pivot, trip) with -1 encoding NULL
pivot/trip.

Every read is length-checked: a truncated or corrupt file raises
:class:`~repro.errors.LabelingError` with the byte offset instead of a
raw ``struct.error``, and trailing garbage after the last tuple list is
rejected.

The cache half (:func:`timetable_digest`, :func:`load_or_build`) keys a
saved label file by a SHA-256 over the exact preprocessing inputs —
format version, connection multiset, vertex order recipe, dummy flag — so
every entry point (CLI, bench, PTLDB) can make preprocessing pay-once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct

from repro.errors import LabelingError
from repro.labeling.labels import LabelTuple, TTLLabels
from repro.timetable.model import Timetable

_MAGIC = b"TTL2"
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")
_TUPLE = struct.Struct("<qqqqq")
_FLAG_HAS_DUMMIES = 0x01

_U32_MAX = 2**32 - 1
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Saving (with range validation)
# ---------------------------------------------------------------------------
def _check_u32(value: int, what: str) -> int:
    if not isinstance(value, int) or not 0 <= value <= _U32_MAX:
        raise LabelingError(f"{what} {value!r} does not fit in u32")
    return value


def _check_field(value: int, what: str) -> int:
    if not _I64_MIN <= value <= _I64_MAX:
        raise LabelingError(f"{what} {value!r} does not fit in i64")
    return value


def _check_tuple(t: LabelTuple, where: str) -> tuple[int, int, int, int, int]:
    if t.hub < 0:
        raise LabelingError(f"{where}: negative hub in {t!r}")
    _check_field(t.hub, f"{where}: hub")
    _check_field(t.td, f"{where}: td")
    _check_field(t.ta, f"{where}: ta")
    # -1 is the NULL encoding on disk; a real -1 (or any negative) pivot or
    # trip would silently come back as None, so refuse to write one.
    for name, value in (("pivot", t.pivot), ("trip", t.trip)):
        if value is not None:
            if value < 0:
                raise LabelingError(
                    f"{where}: negative {name} in {t!r} would collide with "
                    "the NULL encoding"
                )
            _check_field(value, f"{where}: {name}")
    return (
        t.hub,
        t.td,
        t.ta,
        -1 if t.pivot is None else t.pivot,
        -1 if t.trip is None else t.trip,
    )


def save_labels(labels: TTLLabels, path: str) -> None:
    """Write *labels* to *path* in format v2, validating every field fits
    its on-disk width (u32 counts/order, i64 tuple fields)."""
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_U32.pack(_check_u32(labels.num_stops, "num_stops")))
        flags = _FLAG_HAS_DUMMIES if labels._has_dummies else 0
        handle.write(_U8.pack(flags))
        for position, vertex in enumerate(labels.order):
            handle.write(
                _U32.pack(_check_u32(vertex, f"vertex order entry {position}"))
            )
        for side_name, side in (("lout", labels.lout), ("lin", labels.lin)):
            for vertex, tuples in enumerate(side):
                where = f"{side_name}({vertex})"
                handle.write(
                    _U32.pack(_check_u32(len(tuples), f"{where} tuple count"))
                )
                for t in tuples:
                    handle.write(_TUPLE.pack(*_check_tuple(t, where)))


# ---------------------------------------------------------------------------
# Loading (length-checked)
# ---------------------------------------------------------------------------
def _read_exact(handle, n: int, what: str) -> bytes:
    offset = handle.tell()
    data = handle.read(n)
    if len(data) != n:
        raise LabelingError(
            f"truncated label file: wanted {n} byte(s) for {what} at byte "
            f"offset {offset}, got {len(data)}"
        )
    return data


def load_labels(path: str) -> TTLLabels:
    """Read a label file, rejecting a foreign magic, truncation, short
    reads and trailing garbage with a :class:`LabelingError`."""
    with open(path, "rb") as handle:
        if handle.read(4) != _MAGIC:
            raise LabelingError(f"{path} is not a TTL label file")
        (num_stops,) = _U32.unpack(_read_exact(handle, 4, "num_stops"))
        (flags,) = _U8.unpack(_read_exact(handle, 1, "header flags"))
        if flags & ~_FLAG_HAS_DUMMIES:
            raise LabelingError(f"{path}: unknown header flag bits 0x{flags:02x}")
        order_bytes = _read_exact(
            handle, 4 * num_stops, f"vertex order ({num_stops} stops)"
        )
        order = [
            _U32.unpack_from(order_bytes, 4 * i)[0] for i in range(num_stops)
        ]
        labels = TTLLabels(num_stops, order)
        for side_name, side in (("lout", labels.lout), ("lin", labels.lin)):
            for vertex in range(num_stops):
                (count,) = _U32.unpack(
                    _read_exact(handle, 4, f"{side_name}({vertex}) count")
                )
                data = _read_exact(
                    handle,
                    _TUPLE.size * count,
                    f"{side_name}({vertex}) tuples ({count} records)",
                )
                tuples = []
                for i in range(count):
                    hub, td, ta, pivot, trip = _TUPLE.unpack_from(
                        data, _TUPLE.size * i
                    )
                    tuples.append(
                        LabelTuple(
                            hub=hub,
                            td=td,
                            ta=ta,
                            pivot=None if pivot == -1 else pivot,
                            trip=None if trip == -1 else trip,
                        )
                    )
                side[vertex] = tuples
        trailing = handle.read(1)
        if trailing:
            raise LabelingError(
                f"trailing garbage after the last tuple list at byte offset "
                f"{handle.tell() - 1}"
            )
        labels._has_dummies = bool(flags & _FLAG_HAS_DUMMIES)
        return labels


# ---------------------------------------------------------------------------
# Dataset-hash-keyed label cache
# ---------------------------------------------------------------------------
#: Bumped whenever the label file format or the build pipeline changes in a
#: way that invalidates previously cached files.
CACHE_FORMAT = "ttl-cache-v2"


def timetable_digest(
    timetable: Timetable,
    ordering: str = "event_degree",
    order: list[int] | None = None,
    add_dummies: bool = True,
) -> str:
    """SHA-256 over the exact preprocessing inputs.

    Two calls agree iff preprocessing would produce byte-identical label
    files: same connection multiset (the timetable keeps connections in
    canonical sorted order), same vertex-order recipe (strategy name, or
    the explicit order itself) and same dummy handling.
    """
    h = hashlib.sha256()
    h.update(CACHE_FORMAT.encode())
    h.update(struct.pack("<IQ?", timetable.num_stops,
                         timetable.num_connections, add_dummies))
    if order is not None:
        h.update(b"order:" + b",".join(str(v).encode() for v in order))
    else:
        h.update(b"ordering:" + ordering.encode())
    pack = struct.Struct("<qqqqq").pack
    for c in timetable.connections:
        h.update(pack(c.dep, c.arr, c.u, c.v, c.trip))
    return h.hexdigest()


def cached_label_path(cache_dir: str, digest: str) -> str:
    return os.path.join(cache_dir, f"{digest}.ttl")


def load_or_build(
    timetable: Timetable,
    cache_dir: str | None = None,
    ordering: str = "event_degree",
    order: list[int] | None = None,
    add_dummies: bool = True,
    workers: int = 1,
):
    """Return ``(labels, report, cache_hit)``, building at most once.

    With a *cache_dir*, a previously saved label file whose digest matches
    the preprocessing inputs is loaded instead of rebuilding; after a
    build, the labels (plus a ``.json`` sidecar holding the whole build
    report, which a hit restores) are written back atomically so concurrent
    builders never observe a half-written file. Without a *cache_dir* this
    is a plain build.
    """
    from repro.labeling.ttl import BuildReport, build_labels

    path = None
    if cache_dir is not None:
        digest = timetable_digest(
            timetable, ordering=ordering, order=order, add_dummies=add_dummies
        )
        path = cached_label_path(cache_dir, digest)
        sidecar = path + ".json"
        if os.path.exists(path):
            labels = load_labels(path)
            try:
                with open(sidecar, encoding="utf-8") as handle:
                    saved = json.load(handle)
                saved.pop("digest", None)
                report = BuildReport(**saved)
            except (OSError, ValueError, TypeError, AttributeError):
                report = BuildReport(0.0, 0, 0, 0)  # sidecar lost or corrupt
            return labels, report, True

    labels, report = build_labels(
        timetable, order=order, ordering=ordering,
        add_dummies=add_dummies, workers=workers,
    )
    if path is None:
        return labels, report, False
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + f".tmp.{os.getpid()}"
    try:
        save_labels(labels, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    with open(sidecar + f".tmp.{os.getpid()}", "w", encoding="utf-8") as handle:
        json.dump({**dataclasses.asdict(report), "digest": digest}, handle)
    os.replace(sidecar + f".tmp.{os.getpid()}", sidecar)
    return labels, report, False
