"""In-memory transfer-bounded queries over transfer-aware labels."""

from __future__ import annotations

from itertools import chain, groupby
from operator import attrgetter

from repro.errors import LabelingError
from repro.labeling.labels import LabelSide
from repro.transfers.labels import TransferLabels


def _group_by_hub(side: LabelSide) -> list[dict[int, list]]:
    """Per vertex: hub -> its tuples, sorted by (td, ta, trips)."""
    return [{hub: list(group) for hub, group in groupby(side[v], attrgetter("hub"))}
            for v in range(len(side.offsets) - 1)]


class TransferQueryEngine:
    """EA/LD queries with a maximum-trips bound (see labels.py contract)."""

    def __init__(self, labels: TransferLabels):
        self.labels = labels
        self._out = _group_by_hub(labels.lout)
        self._in = _group_by_hub(labels.lin)

    def _check(self, *stops: int) -> None:
        for stop in stops:
            if not 0 <= stop < self.labels.num_stops:
                raise LabelingError(
                    f"stop {stop} out of range [0, {self.labels.num_stops})")

    def _direct(self, source: int, goal: int):
        return chain(self._out[source].get(goal, ()), self._in[goal].get(source, ()))

    @staticmethod
    def _total_trips(l1, l2) -> int:
        total = l1.trips + l2.trips
        if l1.last_trip is not None and l1.last_trip == l2.first_trip:
            total -= 1
        return total

    def earliest_arrival(
        self, source: int, goal: int, depart_at: int, max_trips: int
    ) -> int | None:
        """EA(s, g, t) using at most *max_trips* trips."""
        self._check(source, goal)
        if source == goal:
            return depart_at
        # cases (i) and (ii): a single Lout(s) tuple reaches g, or a single
        # Lin(g) tuple starts at s
        best = min((t.ta for t in self._direct(source, goal)
                    if t.td >= depart_at and t.trips <= max_trips), default=None)
        # case (iii): two-hop join with the trips budget
        in_goal = self._in[goal]
        for hub, out_tuples in self._out[source].items():
            in_tuples = in_goal.get(hub)
            if not in_tuples:
                continue
            for l1 in out_tuples:
                if l1.td < depart_at or l1.trips > max_trips:
                    continue
                if best is not None and l1.ta >= best:
                    continue
                for l2 in in_tuples:
                    if l2.td < l1.ta:
                        continue
                    if best is not None and l2.ta >= best:
                        continue
                    if self._total_trips(l1, l2) <= max_trips:
                        best = l2.ta
        return best

    def latest_departure(
        self, source: int, goal: int, arrive_by: int, max_trips: int
    ) -> int | None:
        """LD(s, g, t') using at most *max_trips* trips."""
        self._check(source, goal)
        if source == goal:
            return arrive_by
        best = max((t.td for t in self._direct(source, goal)
                    if t.ta <= arrive_by and t.trips <= max_trips), default=None)
        in_goal = self._in[goal]
        for hub, out_tuples in self._out[source].items():
            in_tuples = in_goal.get(hub)
            if not in_tuples:
                continue
            for l2 in in_tuples:
                if l2.ta > arrive_by or l2.trips > max_trips:
                    continue
                for l1 in out_tuples:
                    if l1.ta > l2.td:
                        continue
                    if best is not None and l1.td <= best:
                        continue
                    if self._total_trips(l1, l2) <= max_trips:
                        best = l1.td
        return best

    def pareto_arrivals(
        self, source: int, goal: int, depart_at: int
    ) -> list[tuple[int, int]]:
        """The (trips, arrival) Pareto front for a query — fewer vehicles vs
        earlier arrival, the paper's envisioned multicriteria answer."""
        front: list[tuple[int, int]] = []
        previous: int | None = None
        for trips in range(1, self.labels.max_trips + 1):
            arrival = self.earliest_arrival(source, goal, depart_at, trips)
            if arrival is None:
                continue
            if previous is None or arrival < previous:
                front.append((trips, arrival))
                previous = arrival
        return front
