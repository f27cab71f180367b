"""Hub-label data structures for Timetable Labeling (TTL).

A label tuple is ``<hub, td, ta, pivot, trip>`` (paper §2.2): a fast transit
path between a vertex and *hub*, departing at *td*, arriving at *ta*. For a
tuple in ``Lout(v)`` the journey goes v -> hub; in ``Lin(v)`` it goes
hub -> v. *trip* is the first trip boarded; *pivot* is the stop where that
trip is left (``None`` when the journey is a single trip), which is enough
to reconstruct paths recursively. Dummy tuples (hub == vertex, td == ta,
no trip) are the PTLDB addition that collapses the three TTL query cases
into one join — see DESIGN.md for the reverse-engineered generation rule.
Each side is int64 columns (:class:`LabelSide`); :class:`LabelTuple` is
only the read-only view that ``labels.lout[v]`` builds on access.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import LabelingError

#: Column positions in a side's ``records``.
HUB, TD, TA, PIVOT, TRIP = range(5)


class LabelTuple(NamedTuple):
    """One label entry, as read from a :class:`LabelSide`."""

    hub: int
    td: int
    ta: int
    pivot: int | None = None
    trip: int | None = None

    @property
    def is_dummy(self) -> bool:
        return self.trip is None and self.td == self.ta


def _is_dummy(records: np.ndarray) -> np.ndarray:
    return (records[:, TRIP] == -1) & (records[:, TD] == records[:, TA])


class LabelSide:
    """``Lout`` or ``Lin`` of every vertex as a CSR: vertex v's tuples are
    ``records[offsets[v]:offsets[v + 1]]``, int64 rows ``(hub, td, ta,
    pivot, trip)`` (-1 = NULL, the TTL2 record) sorted by (hub, td, ta).
    ``side[v]`` builds a fresh :class:`LabelTuple` list; nothing is cached."""

    __slots__ = ("offsets", "records")

    def __init__(self, offsets: np.ndarray, records: np.ndarray):
        self.offsets, self.records = offsets, records

    def rows(self, v: int) -> np.ndarray:
        return self.records[self.offsets[v]:self.offsets[v + 1]]

    def __getitem__(self, v: int) -> list[LabelTuple]:
        if not 0 <= v < len(self.offsets) - 1:
            raise IndexError(f"vertex {v} out of range")
        return [LabelTuple(h, td, ta, None if p == -1 else p,
                           None if t == -1 else t)
                for h, td, ta, p, t in self.rows(v).tolist()]

    def vertex(self) -> np.ndarray:  # each record's vertex
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    def check(self, name: str, num_stops: int, base: int | None = None) -> None:
        """Refuse the first record with a hub outside ``[0, num_stops)``,
        ``ta < td``, a pivot or trip below -1, or out of (hub, td, ta) order
        in its vertex, naming side, vertex, tuple and, given *base* (the
        offset of the side's first count in a TTL2 file), byte offset."""
        hub, td, ta, pivot, trip = self.records.T
        h, d, a = hub[1:], td[1:], ta[1:]  # each row against the one before
        unsorted = np.r_[False, (h < hub[:-1]) | (h == hub[:-1]) & (
            (d < td[:-1]) | (d == td[:-1]) & (a < ta[:-1]))]
        unsorted[self.offsets[:-1][self.offsets[:-1] < len(hub)]] = False
        found = [(int(mask.argmax()), reason) for mask, reason in (
            ((hub < 0) | (hub >= num_stops), f"hub outside [0, {num_stops})"),
            (ta < td, "arrives before it departs"),
            ((pivot < -1) | (trip < -1), "pivot or trip below -1 (NULL)"),
            (unsorted, "rows not sorted by (hub, td, ta)"),
        ) if mask.any()]
        if found:
            at, reason = min(found)
            v = int(np.searchsorted(self.offsets, at, "right")) - 1
            where = "" if base is None else (
                f" at byte offset {base + 4 * (v + 1) + 40 * at}")
            raise LabelingError(
                f"{name}({v}) tuple {at - self.offsets[v]}{where}: {reason}")


def _dummies(num_stops: int, lout: tuple, lin: tuple) -> np.ndarray:
    """PTLDB's dummy rows for the ``(vertex, records)`` of both sides.
    DESIGN.md's rule gives vertex v one dummy per distinct arrival at v in
    any ``Lout``, departure from v in any ``Lin`` and arrival in ``Lin(v)``:
    the distinct keys ``v * m + (stamp - low)``, by one sort: numpy's
    ``unique`` hashes integers, at tens of bytes of peak memory a key."""
    (_, out), (in_v, inn) = lout, lin
    real_out, real_in = ~_is_dummy(out), ~_is_dummy(inn)
    v = np.concatenate((out[real_out, HUB], inn[real_in, HUB], in_v[real_in]))
    stamp = np.concatenate((out[real_out, TA], inn[real_in, TD], inn[real_in, TA]))
    low, high = (int(stamp.min()), int(stamp.max())) if len(v) else (0, 0)
    m = high - low + 1
    if num_stops * m >= 2**63:
        raise LabelingError("label times do not fit int64 dummy keys")
    key = np.sort(v * m + (stamp - low))
    key = key[np.r_[True, key[1:] != key[:-1]]] if len(key) else key
    dummies = np.full((len(key), 5), -1, np.int64)
    dummies[:, HUB] = key // m
    dummies[:, TD] = dummies[:, TA] = key % m + low
    return dummies


class TTLLabels:
    """The full TTL labeling of one timetable.

    Attributes:
        order: vertices from most to least important.
        rank: rank[v] = position of v in *order* (0 = most important).
        lout / lin: one :class:`LabelSide` each (empty when omitted).
    """

    def __init__(self, num_stops: int, order: list[int],
                 lout: LabelSide | None = None, lin: LabelSide | None = None,
                 has_dummies: bool = False):
        if sorted(order) != list(range(num_stops)):
            raise LabelingError("order must be a permutation of the stops")
        self.num_stops = num_stops
        self.order = list(order)
        self.rank = np.argsort(order).tolist()
        empty = LabelSide(np.zeros(num_stops + 1, np.int64), np.empty((0, 5), np.int64))
        self.lout, self.lin = (empty if side is None else side for side in (lout, lin))
        self._has_dummies = has_dummies

    @classmethod
    def from_rows(cls, num_stops: int, order: list[int], lout: tuple,
                  lin: tuple, add_dummies: bool = False) -> TTLLabels:
        """Labels from each side's ``(vertex, records)``, rows in any order:
        one ``lexsort`` per side, after adding PTLDB's dummy tuples
        (:func:`_dummies`) when *add_dummies*."""
        sides = [lout, lin]
        if add_dummies:
            dummies = _dummies(num_stops, lout, lin)
            sides = [(np.concatenate((vs, dummies[:, HUB])),
                      np.concatenate((rows, dummies))) for vs, rows in sides]
        return cls(num_stops, order, *(LabelSide(
            np.r_[0, np.bincount(vertex, minlength=num_stops).cumsum()],
            records[np.lexsort((*records[:, TA::-1].T, vertex))])  # ta, td, hub, v
            for vertex, records in sides), has_dummies=add_dummies)

    @classmethod
    def from_tuples(cls, num_stops: int, order: list[int], lout, lin,
                    has_dummies: bool = False) -> TTLLabels:
        """Labels from per-vertex lists of ``(hub, td, ta[, pivot, trip])``
        sorted by (hub, td, ta), ``None`` = NULL. Refuses what ``check`` does,
        a field outside int64 and a negative pivot or trip (read back: NULL)."""
        sides = []
        for name, lists in (("lout", lout), ("lin", lin)):
            rows = [(*t, None, None)[:5] for ts in lists for t in ts]
            if any(x is not None and x < 0 for row in rows for x in row[PIVOT:]):
                raise LabelingError(f"{name}: a negative pivot or trip would "
                                    "collide with the NULL encoding")
            try:
                records = np.array([[-1 if x is None else x for x in row]
                                    for row in rows], np.int64).reshape(-1, 5)
            except OverflowError:
                raise LabelingError(f"{name}: a field does not fit in i64") from None
            sides.append(LabelSide(np.cumsum([0, *map(len, lists)]), records))
            sides[-1].check(name, num_stops)
        return cls(num_stops, order, *sides, has_dummies=has_dummies)

    # ------------------------------------------------------------------
    @property
    def total_tuples(self) -> int:
        return len(self.lout.records) + len(self.lin.records)

    @property
    def tuples_per_vertex(self) -> float:
        """The paper's |HL| / |V| statistic."""
        return self.total_tuples / self.num_stops

    def dummy_count(self) -> int:
        return int(sum(_is_dummy(s.records).sum() for s in (self.lout, self.lin)))

    def add_dummy_tuples(self) -> int:
        """Add PTLDB's dummy tuples (see :meth:`from_rows`); returns how
        many were added."""
        if self._has_dummies:
            raise LabelingError("dummy tuples were already added")
        sides = ((side.vertex(), side.records) for side in (self.lout, self.lin))
        labels = self.from_rows(self.num_stops, self.order, *sides, add_dummies=True)
        added = labels.total_tuples - self.total_tuples
        self.lout, self.lin, self._has_dummies = labels.lout, labels.lin, True
        return added

    def validate(self) -> None:
        """:meth:`LabelSide.check` on both sides, and the rank constraint:
        a tuple that is no dummy has a hub ranked at or above its vertex."""
        rank = np.asarray(self.rank, np.int64)
        for name, side in (("lout", self.lout), ("lin", self.lin)):
            side.check(name, self.num_stops)
            v, hub = side.vertex(), side.records[:, HUB]
            bad = np.flatnonzero(~_is_dummy(side.records) & (rank[hub] > rank[v]))
            if len(bad):
                raise LabelingError(f"{name}({v[bad[0]]}) references "
                                    f"lower-ranked hub {hub[bad[0]]}")

    def stats(self) -> dict:
        return {
            "stops": self.num_stops,
            "tuples": self.total_tuples,
            "tuples_per_vertex": round(self.tuples_per_vertex, 1),
            "dummy_tuples": self.dummy_count(),
        }
