"""Transfer-aware hub labels.

Tuple format ``<hub, td, ta, trips, first_trip, last_trip>``: a journey
between the vertex and *hub* departing *td*, arriving *ta*, boarding
*trips* vehicles; the boundary-trip witnesses allow the query join to merge
a prefix and suffix that ride the same vehicle across the hub without
charging a phantom transfer.

Semantics of the resulting bounded queries (documented contract, tested):

* **sound** — every reported journey uses at most the requested trips;
* **(K-1)-complete** — any journey using at most K-1 trips is found when
  querying with bound K (decomposing a journey at its top-ranked hub can
  over-count by one trip when the hub is passed mid-vehicle; the
  boundary-trip adjustment removes the over-count whenever the surviving
  Pareto representative rides that same vehicle);
* exact whenever the optimal journey's top hub is a transfer stop — in
  randomized measurements this is the overwhelming majority of queries.

The labels are the main tier's int64 columns (:class:`TTLLabels`) with a
wider record: each side is a :class:`LabelSide` of ``(hub, td, ta, trips,
first_trip, last_trip)`` rows, -1 = NULL, sorted by (hub, td, ta, trips).
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from repro.errors import LabelingError
from repro.labeling.io import read_sides, side_chunks, take
from repro.labeling.labels import TTLLabels

#: Column positions in a side's ``records``.
HUB, TD, TA, TRIPS, FIRST_TRIP, LAST_TRIP = range(6)

_MAGIC = b"TTLT"


class TransferLabelTuple(NamedTuple):
    """One transfer-aware label entry, as read from a side."""

    hub: int
    td: int
    ta: int
    trips: int
    first_trip: int | None = None
    last_trip: int | None = None

    WITNESSES = FIRST_TRIP

    @property
    def is_dummy(self) -> bool:
        return self.trips == 0


class TransferLabels(TTLLabels):
    """Per-vertex Lout/Lin with the trips dimension, at most *max_trips*
    trips a tuple; a dummy tuple boards none."""

    view = TransferLabelTuple
    is_dummy = staticmethod(lambda records: records[:, TRIPS] == 0)

    def __init__(self, num_stops: int, order: list[int], lout=None, lin=None,
                 has_dummies: bool = False, *, max_trips: int):
        if max_trips < 1:
            raise LabelingError("max_trips must be at least 1")
        super().__init__(num_stops, order, lout, lin, has_dummies)
        self.max_trips = max_trips

    @property
    def bounds(self) -> tuple:
        return ((TRIPS, 0, self.max_trips),)

    def save(self, path: str) -> None:
        """Persist to a binary file: magic ``TTLT``, u32 num_stops, u32
        max_trips, the vertex order (u32 each), then both sides as a TTL2
        file lays them out, with ``<q q q q q q>`` records."""
        u32 = struct.Struct("<I")
        header = [_MAGIC, u32.pack(self.num_stops), u32.pack(self.max_trips),
                  np.asarray(self.order, "<u4").tobytes()]
        chunks = side_chunks(self, 12 + 4 * self.num_stops)
        with open(path, "wb") as handle:
            handle.writelines(header + chunks)

    @classmethod
    def load(cls, path: str) -> TransferLabels:
        """Read a :meth:`save` file, refusing what :func:`read_sides`
        refuses, and trips outside ``[0, max_trips]``."""
        with open(path, "rb") as handle:
            data = memoryview(handle.read())
        if data[:4] != _MAGIC:
            raise LabelingError(f"{path} is not a transfer-label file")
        num_stops, max_trips = np.frombuffer(
            take(data, 4, 8, "num_stops and max_trips"), "<u4").tolist()
        order = np.frombuffer(take(
            data, 12, 4 * num_stops, f"vertex order ({num_stops} stops)"), "<u4")
        sides = read_sides(data, 12 + 4 * num_stops, num_stops, cls.view,
                           ((TRIPS, 0, max_trips),))
        return cls(num_stops, order.tolist(), *sides,
                   has_dummies=any(cls.is_dummy(s.records).any() for s in sides),
                   max_trips=max_trips)
