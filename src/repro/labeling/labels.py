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
only the read-only view that ``labels.lout[v]`` builds on access. The
transfer-aware labels of :mod:`repro.transfers` are the same columns with
a wider record and their own view.
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

    #: The first witness column: -1 there is NULL, and the columns before
    #: it are the key a vertex's rows are sorted by.
    WITNESSES = PIVOT

    @property
    def is_dummy(self) -> bool:
        return self.trip is None and self.td == self.ta


def _is_dummy(records: np.ndarray) -> np.ndarray:
    return (records[:, TRIP] == -1) & (records[:, TD] == records[:, TA])


class LabelSide:
    """``Lout`` or ``Lin`` of every vertex as a CSR: vertex v's tuples are
    ``records[offsets[v]:offsets[v + 1]]``, int64 rows in the field order
    of *view* (-1 = NULL in a witness column; for :class:`LabelTuple`,
    ``(hub, td, ta, pivot, trip)``: the TTL2 record) sorted by the key
    columns. ``side[v]`` builds a fresh *view* list; nothing is cached."""

    __slots__ = ("offsets", "records", "view")

    def __init__(self, offsets: np.ndarray, records: np.ndarray,
                 view: type = LabelTuple):
        self.offsets, self.records, self.view = offsets, records, view

    def rows(self, v: int) -> np.ndarray:
        return self.records[self.offsets[v]:self.offsets[v + 1]]

    def __getitem__(self, v: int) -> list:
        if not 0 <= v < len(self.offsets) - 1:
            raise IndexError(f"vertex {v} out of range")
        cols = self.rows(v).T.tolist()
        for c in range(self.view.WITNESSES, len(cols)):
            cols[c] = [None if x == -1 else x for x in cols[c]]
        return list(map(self.view._make, zip(*cols)))

    def vertex(self) -> np.ndarray:  # each record's vertex
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    def check(self, name: str, num_stops: int, base: int | None = None,
              bounds: tuple = ()) -> None:
        """Refuse the first record with a hub outside ``[0, num_stops)``,
        ``ta < td``, a witness below -1, a column outside its *bounds*
        (``(column, low, high)`` each) or out of key order in its vertex,
        naming side, vertex, tuple and, given *base* (the offset of the
        side's first count in a label file), byte offset."""
        records, fields, w = self.records, self.view._fields, self.view.WITNESSES
        hub, td, ta = records[:, HUB], records[:, TD], records[:, TA]
        unsorted = np.zeros(max(len(records) - 1, 0), bool)
        for col in reversed(range(w)):  # each row against the one before
            a, b = records[1:, col], records[:-1, col]
            unsorted = (a < b) | (a == b) & unsorted
        unsorted = np.r_[False, unsorted]
        unsorted[self.offsets[:-1][self.offsets[:-1] < len(hub)]] = False
        found = [(int(mask.argmax()), reason) for mask, reason in (
            ((hub < 0) | (hub >= num_stops), f"hub outside [0, {num_stops})"),
            (ta < td, "arrives before it departs"),
            ((records[:, w:] < -1).any(1),
             f"{' or '.join(fields[w:])} below -1 (NULL)"),
            *(((records[:, col] < low) | (records[:, col] > high),
               f"{fields[col]} outside [{low}, {high}]")
              for col, low, high in bounds),
            (unsorted, f"rows not sorted by ({', '.join(fields[:w])})"),
        ) if mask.any()]
        if found:
            at, reason = min(found)
            v = int(np.searchsorted(self.offsets, at, "right")) - 1
            where = "" if base is None else (
                f" at byte offset {base + 4 * (v + 1) + 8 * records.shape[1] * at}")
            raise LabelingError(
                f"{name}({v}) tuple {at - self.offsets[v]}{where}: {reason}")


def _dummies(num_stops: int, lout: tuple, lin: tuple,
             is_dummy=_is_dummy) -> np.ndarray:
    """PTLDB's dummy rows for the ``(vertex, records)`` of both sides, the
    rows *is_dummy* marks left out. DESIGN.md's rule gives vertex v one
    dummy per distinct arrival at v in any ``Lout``, departure from v in
    any ``Lin`` and arrival in ``Lin(v)``: the distinct keys
    ``v * m + (stamp - low)``, by one sort: numpy's ``unique`` hashes
    integers, at tens of bytes of peak memory a key. A dummy row is
    ``(v, stamp, stamp)`` and -1 in every other column."""
    (_, out), (in_v, inn) = lout, lin
    real_out, real_in = ~is_dummy(out), ~is_dummy(inn)
    v = np.concatenate((out[real_out, HUB], inn[real_in, HUB], in_v[real_in]))
    stamp = np.concatenate((out[real_out, TA], inn[real_in, TD], inn[real_in, TA]))
    low, high = (int(stamp.min()), int(stamp.max())) if len(v) else (0, 0)
    m = high - low + 1
    if num_stops * m >= 2**63:
        raise LabelingError("label times do not fit int64 dummy keys")
    key = np.sort(v * m + (stamp - low))
    key = key[np.r_[True, key[1:] != key[:-1]]] if len(key) else key
    dummies = np.full((len(key), out.shape[1]), -1, np.int64)
    dummies[:, HUB] = key // m
    dummies[:, TD] = dummies[:, TA] = key % m + low
    return dummies


class TTLLabels:
    """The full TTL labeling of one timetable.

    Attributes:
        order: vertices from most to least important.
        rank: rank[v] = position of v in *order* (0 = most important).
        lout / lin: one :class:`LabelSide` each (empty when omitted).

    A subclass with a wider record sets :attr:`view`, :meth:`is_dummy`
    and :attr:`bounds`.
    """

    #: the record's fields, as ``labels.lout[v]`` shows them
    view = LabelTuple
    #: ``(column, low, high)`` limits every record meets, besides the hub's
    bounds: tuple = ()
    is_dummy = staticmethod(_is_dummy)

    def __init__(self, num_stops: int, order: list[int],
                 lout: LabelSide | None = None, lin: LabelSide | None = None,
                 has_dummies: bool = False):
        if sorted(order) != list(range(num_stops)):
            raise LabelingError("order must be a permutation of the stops")
        self.num_stops = num_stops
        self.order = list(order)
        self.rank = np.argsort(order).tolist()
        empty = LabelSide(np.zeros(num_stops + 1, np.int64),
                          np.empty((0, len(self.view._fields)), np.int64), self.view)
        self.lout, self.lin = (empty if side is None else side for side in (lout, lin))
        self._has_dummies = has_dummies

    @classmethod
    def from_rows(cls, num_stops: int, order: list[int], lout: tuple,
                  lin: tuple, add_dummies: bool = False, **kwargs) -> TTLLabels:
        """Labels from each side's ``(vertex, records)``, rows in any order:
        one ``lexsort`` per side by vertex and key columns, after adding
        PTLDB's dummy tuples (:func:`_dummies`) when *add_dummies*.
        *kwargs* go to the constructor."""
        return cls(num_stops, order, *cls._sides(num_stops, lout, lin, add_dummies),
                   has_dummies=add_dummies, **kwargs)

    @classmethod
    def _sides(cls, num_stops: int, lout: tuple, lin: tuple,
               add_dummies: bool) -> list[LabelSide]:
        sides, w = [lout, lin], cls.view.WITNESSES
        if add_dummies:
            dummies = _dummies(num_stops, lout, lin, cls.is_dummy)
            dummies[:, TA + 1:w] = 0  # key columns after ta: a dummy boards nothing
            sides = [(np.concatenate((vs, dummies[:, HUB])),
                      np.concatenate((rows, dummies))) for vs, rows in sides]
        return [LabelSide(
            np.r_[0, np.bincount(vertex, minlength=num_stops).cumsum()],
            records[np.lexsort((*records[:, w - 1::-1].T, vertex))], cls.view)
            for vertex, records in sides]

    @classmethod
    def from_tuples(cls, num_stops: int, order: list[int], lout, lin,
                    has_dummies: bool = False, **kwargs) -> TTLLabels:
        """Labels from per-vertex lists of tuples in :attr:`view`'s field
        order, trailing witnesses optional, sorted by the key columns,
        ``None`` = NULL. Refuses what ``check`` does, a field outside int64
        and a negative witness (read back: NULL). *kwargs* go to the
        constructor."""
        width, w = len(cls.view._fields), cls.view.WITNESSES
        sides = []
        for name, lists in (("lout", lout), ("lin", lin)):
            rows = [(*t, *(None,) * width)[:width] for ts in lists for t in ts]
            if any(x is not None and x < 0 for row in rows for x in row[w:]):
                witnesses = " or ".join(cls.view._fields[w:])
                raise LabelingError(f"{name}: a negative {witnesses} would "
                                    "collide with the NULL encoding")
            try:
                records = np.array([[-1 if x is None else x for x in row]
                                    for row in rows], np.int64).reshape(-1, width)
            except OverflowError:
                raise LabelingError(f"{name}: a field does not fit in i64") from None
            sides.append(LabelSide(np.cumsum([0, *map(len, lists)]), records, cls.view))
        labels = cls(num_stops, order, *sides, has_dummies=has_dummies, **kwargs)
        for name, side in (("lout", labels.lout), ("lin", labels.lin)):
            side.check(name, num_stops, bounds=labels.bounds)
        return labels

    # ------------------------------------------------------------------
    @property
    def total_tuples(self) -> int:
        return len(self.lout.records) + len(self.lin.records)

    @property
    def tuples_per_vertex(self) -> float:
        """The paper's |HL| / |V| statistic."""
        return self.total_tuples / self.num_stops

    def dummy_count(self) -> int:
        return int(sum(self.is_dummy(s.records).sum() for s in (self.lout, self.lin)))

    def add_dummy_tuples(self) -> int:
        """Add PTLDB's dummy tuples (see :meth:`from_rows`); returns how
        many were added."""
        if self._has_dummies:
            raise LabelingError("dummy tuples were already added")
        before = self.total_tuples
        sides = ((side.vertex(), side.records) for side in (self.lout, self.lin))
        self.lout, self.lin = self._sides(self.num_stops, *sides, add_dummies=True)
        self._has_dummies = True
        return self.total_tuples - before

    def validate(self) -> None:
        """:meth:`LabelSide.check` on both sides, and the rank constraint:
        a tuple that is no dummy has a hub ranked at or above its vertex."""
        rank = np.asarray(self.rank, np.int64)
        for name, side in (("lout", self.lout), ("lin", self.lin)):
            side.check(name, self.num_stops, bounds=self.bounds)
            v, hub = side.vertex(), side.records[:, HUB]
            bad = np.flatnonzero(~self.is_dummy(side.records) & (rank[hub] > rank[v]))
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
