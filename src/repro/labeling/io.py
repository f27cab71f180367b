"""Binary (de)serialization of TTL labels + the preprocessing cache.

The TTL authors distribute preprocessed label files; PTLDB loads them into
the database. This module gives the reproduction the same decoupling: build
labels once, save them, reload into any number of PTLDB databases.

Format v2 (little-endian): magic ``TTL2``, u32 num_stops, u8 flags
(bit 0 = dummy tuples were added), the vertex order (u32 each), then every
vertex's lout tuple list and then every vertex's lin list, each a u32
count followed by ``<q q q q q>`` records (hub, td, ta, pivot, trip) with
-1 encoding NULL pivot/trip: the rows of a ``LabelSide``.

Every read is length-checked: a truncated or corrupt file raises
:class:`~repro.errors.LabelingError` with the byte offset instead of a
raw ``struct.error``, and trailing garbage after the last tuple list is
rejected, as is any record ``LabelSide.check`` refuses.

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

import numpy as np

from repro.errors import LabelingError
from repro.labeling.labels import LabelSide, LabelTuple, TTLLabels
from repro.timetable.model import Timetable

_MAGIC = b"TTL2"
_U32 = struct.Struct("<I")
_FLAG_HAS_DUMMIES = 0x01

_U32_MAX = 2**32 - 1


def _check_u32(value: int, what: str) -> int:
    if not isinstance(value, int) or not 0 <= value <= _U32_MAX:
        raise LabelingError(f"{what} {value!r} does not fit in u32")
    return value


# ---------------------------------------------------------------------------
# Saving (with range validation)
# ---------------------------------------------------------------------------
def side_chunks(labels: TTLLabels, base: int) -> list[bytes]:
    """Both sides of *labels* as a label file lays them out after its
    header (*base* bytes long): per side, per vertex a u32 count and the
    vertex's records. Each side must pass the checks :func:`read_sides`
    applies."""
    chunks = []
    for name, side in (("lout", labels.lout), ("lin", labels.lin)):
        side.check(name, labels.num_stops, base, labels.bounds)
        offsets = side.offsets.tolist()
        for v, (a, b) in enumerate(zip(offsets, offsets[1:])):
            chunks += (_U32.pack(_check_u32(b - a, f"{name}({v}) tuple count")),
                       side.records[a:b].astype("<i8").tobytes())
        base += 4 * labels.num_stops + side.records.nbytes
    return chunks


def save_labels(labels: TTLLabels, path: str) -> None:
    """Write *labels* to *path* in format v2. Counts and the order must fit
    u32, and each side must pass the checks :func:`load_labels` applies."""
    num_stops = _check_u32(labels.num_stops, "num_stops")
    for position, vertex in enumerate(labels.order):
        _check_u32(vertex, f"vertex order entry {position}")
    header = [_MAGIC, _U32.pack(num_stops),
              bytes([_FLAG_HAS_DUMMIES if labels._has_dummies else 0]),
              np.asarray(labels.order, "<u4").tobytes()]
    chunks = side_chunks(labels, 9 + 4 * num_stops)
    with open(path, "wb") as handle:
        handle.writelines(header + chunks)


# ---------------------------------------------------------------------------
# Loading (length-checked)
# ---------------------------------------------------------------------------
def take(data: memoryview, offset: int, n: int, what: str) -> memoryview:
    """The *n* bytes for *what* at *offset*, which must all be there."""
    if len(data) - offset < n:
        raise LabelingError(
            f"truncated label file: wanted {n} byte(s) for {what} at byte "
            f"offset {offset}, got {len(data) - offset}"
        )
    return data[offset:offset + n]


def read_sides(data: memoryview, pos: int, num_stops: int,
               view: type = LabelTuple, bounds: tuple = ()) -> list[LabelSide]:
    """The lout and lin sides that start at byte *pos* and end the file,
    as *view* records, refusing a short read, trailing garbage and any
    record :meth:`LabelSide.check` refuses under *bounds*."""
    width, sides = 8 * len(view._fields), []
    for name in ("lout", "lin"):
        base, parts, counts = pos, [np.empty(0, "<i8")], [0]
        for v in range(num_stops):
            (count,) = _U32.unpack(take(data, pos, 4, f"{name}({v}) count"))
            parts.append(np.frombuffer(take(
                data, pos + 4, width * count,
                f"{name}({v}) tuples ({count} records)"), "<i8"))
            counts.append(count)
            pos += 4 + width * count
        records = np.concatenate(parts, dtype=np.int64).reshape(-1, width // 8)
        sides.append(LabelSide(np.cumsum(counts), records, view))
        sides[-1].check(name, num_stops, base, bounds)
    if pos != len(data):
        raise LabelingError(
            f"trailing garbage after the last tuple list at byte offset {pos}"
        )
    return sides


def load_labels(path: str) -> TTLLabels:
    """Read a label file, rejecting a foreign magic, truncation, short
    reads, trailing garbage and any record :meth:`LabelSide.check`
    refuses, each with a :class:`LabelingError` naming the byte offset."""
    with open(path, "rb") as handle:
        data = memoryview(handle.read())
    if data[:4] != _MAGIC:
        raise LabelingError(f"{path} is not a TTL label file")
    (num_stops,) = _U32.unpack(take(data, 4, 4, "num_stops"))
    flags = take(data, 8, 1, "header flags")[0]
    if flags & ~_FLAG_HAS_DUMMIES:
        raise LabelingError(f"{path}: unknown header flag bits 0x{flags:02x}")
    order = np.frombuffer(take(
        data, 9, 4 * num_stops, f"vertex order ({num_stops} stops)"), "<u4")
    sides = read_sides(data, 9 + 4 * num_stops, num_stops)
    return TTLLabels(num_stops, order.tolist(), *sides,
                     has_dummies=bool(flags & _FLAG_HAS_DUMMIES))


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
