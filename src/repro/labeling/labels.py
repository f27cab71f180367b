"""Hub-label data structures for Timetable Labeling (TTL).

A label tuple is ``<hub, td, ta, pivot, trip>`` (paper §2.2): a fast transit
path between a vertex and *hub*, departing at *td*, arriving at *ta*. For a
tuple in ``Lout(v)`` the journey goes v -> hub; in ``Lin(v)`` it goes
hub -> v. *trip* is the first trip boarded; *pivot* is the stop where that
trip is left (``None`` when the journey is a single trip), which is enough
to reconstruct paths recursively. Dummy tuples (hub == vertex, td == ta,
no trip) are the PTLDB addition that collapses the three TTL query cases
into one join — see DESIGN.md for the reverse-engineered generation rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import LabelingError


@dataclass(frozen=True, order=True)
class LabelTuple:
    """One label entry, ordered by (hub, td, ta) as PTLDB requires."""

    hub: int
    td: int
    ta: int
    pivot: int | None = field(default=None, compare=False)
    trip: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.ta < self.td:
            raise LabelingError(f"label arrives before departing: {self}")

    @property
    def is_dummy(self) -> bool:
        return self.trip is None and self.td == self.ta


class TTLLabels:
    """The full TTL labeling of one timetable.

    Attributes:
        order: vertices from most to least important.
        rank: rank[v] = position of v in *order* (0 = most important).
        lout / lin: per-vertex sorted tuple lists.
    """

    def __init__(self, num_stops: int, order: list[int]):
        if sorted(order) != list(range(num_stops)):
            raise LabelingError("order must be a permutation of the stops")
        self.num_stops = num_stops
        self.order = list(order)
        self.rank = [0] * num_stops
        for position, vertex in enumerate(order):
            self.rank[vertex] = position
        self.lout: list[list[LabelTuple]] = [[] for _ in range(num_stops)]
        self.lin: list[list[LabelTuple]] = [[] for _ in range(num_stops)]
        self._has_dummies = False

    # ------------------------------------------------------------------
    def sort(self) -> None:
        """Sort every label list by (hub, td) — PTLDB's storage order."""
        key = attrgetter("hub", "td", "ta")  # the generated __lt__'s order
        for labels in (self.lout, self.lin):
            for tuples in labels:
                tuples.sort(key=key)

    @property
    def total_tuples(self) -> int:
        return sum(len(t) for t in self.lout) + sum(len(t) for t in self.lin)

    @property
    def tuples_per_vertex(self) -> float:
        """The paper's |HL| / |V| statistic."""
        return self.total_tuples / self.num_stops

    def dummy_count(self) -> int:
        return sum(
            1
            for labels in (self.lout, self.lin)
            for tuples in labels
            for t in tuples
            if t.is_dummy
        )

    # ------------------------------------------------------------------
    def add_dummy_tuples(self) -> int:
        """Add PTLDB's dummy tuples; returns how many were added.

        Rule (validated against the paper's Table 1, see DESIGN.md): for
        each vertex v, the dummy timestamps are

        * arrival times at v appearing in any ``Lout(u)`` tuple with
          hub == v  (needed so a bare Lout(s) tuple can close the join),
        * departure times from v appearing in any ``Lin(u)`` tuple with
          hub == v  (needed so a bare Lin(g) tuple can close the join),
        * arrival times of v's own ``Lin(v)`` tuples (self-query support,
          matches the worked example).
        """
        if self._has_dummies:
            raise LabelingError("dummy tuples were already added")
        timestamps: list[set[int]] = [set() for _ in range(self.num_stops)]
        for tuples in self.lout:
            for t in tuples:
                if not t.is_dummy:
                    timestamps[t.hub].add(t.ta)
        for tuples in self.lin:
            for t in tuples:
                if not t.is_dummy:
                    timestamps[t.hub].add(t.td)
        for v in range(self.num_stops):
            for t in self.lin[v]:
                if not t.is_dummy:
                    timestamps[v].add(t.ta)
        added = 0
        for v, stamps in enumerate(timestamps):
            for stamp in stamps:
                dummy = LabelTuple(hub=v, td=stamp, ta=stamp)
                self.lout[v].append(dummy)
                self.lin[v].append(dummy)
                added += 2
        self.sort()
        self._has_dummies = True
        return added

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural invariants: sortedness, rank constraint, hub range."""
        for side_name, labels in (("lout", self.lout), ("lin", self.lin)):
            for v, tuples in enumerate(labels):
                for prev, nxt in zip(tuples, tuples[1:]):
                    if (prev.hub, prev.td) > (nxt.hub, nxt.td):
                        raise LabelingError(
                            f"{side_name}({v}) is not sorted by (hub, td)"
                        )
                for t in tuples:
                    if not 0 <= t.hub < self.num_stops:
                        raise LabelingError(f"{side_name}({v}) has bad hub {t.hub}")
                    if not t.is_dummy and t.hub != v:
                        if self.rank[t.hub] > self.rank[v]:
                            raise LabelingError(
                                f"{side_name}({v}) references lower-ranked "
                                f"hub {t.hub}"
                            )

    def stats(self) -> dict:
        return {
            "stops": self.num_stops,
            "tuples": self.total_tuples,
            "tuples_per_vertex": round(self.tuples_per_vertex, 1),
            "dummy_tuples": self.dummy_count(),
        }
