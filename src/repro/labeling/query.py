"""In-memory TTL query answering.

This is the "main memory algorithm" the paper contrasts PTLDB with: answers
EA / LD / SD vertex-to-vertex queries straight from the label sets using the
three TTL cases (paper §3.1), plus reference implementations of the four new
PTLDB queries (EA/LD kNN and one-to-many) used as oracles for the SQL
versions, and journey reconstruction.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import itemgetter

from repro.errors import LabelingError
from repro.labeling.labels import HUB, TA, LabelSide, TTLLabels
from repro.timetable.model import Connection, Timetable


def _group_by_hub(side: LabelSide) -> list[dict[int, list[tuple[int, int]]]]:
    """Per vertex: hub -> [(td, ta), ...] sorted by td (ta is then
    non-decreasing, because per-(vertex, hub) tuple sets are Pareto)."""
    offsets = side.offsets.tolist()
    return [{hub: [(td, ta) for _, td, ta in group] for hub, group in
             groupby(side.records[a:b, :TA + 1].tolist(), itemgetter(HUB))}
            for a, b in zip(offsets, offsets[1:])]


class TTLQueryEngine:
    """Vertex-to-vertex and batched queries over a TTL labeling."""

    def __init__(self, labels: TTLLabels):
        self.labels = labels
        self._out_index = _group_by_hub(labels.lout)
        self._in_index = _group_by_hub(labels.lin)

    # ------------------------------------------------------------------
    def earliest_arrival(self, source: int, goal: int, depart_at: int) -> int | None:
        """EA(s, g, t): earliest arrival at g departing s no sooner than t."""
        if source == goal:
            return depart_at
        return self._ea_join(source, goal, depart_at)

    def _ea_join(self, source: int, goal: int, depart_at: int) -> int | None:
        """The three-case TTL evaluation, without the s == g shortcut.

        With dummy tuples present this reproduces PTLDB's SQL semantics
        exactly (a self-query answers with the next witnessed event at the
        stop, e.g. the paper's EA(1,1,324) = 324), which is what the batch
        kNN/OTM reference methods must match.
        """
        best: int | None = None
        # Case (i): Lout(s) tuples whose hub is g itself.
        for td, ta in self._out_index[source].get(goal, ()):
            if td >= depart_at:
                best = ta if best is None else min(best, ta)
                break  # arrivals are non-decreasing along the group
        # Case (ii): Lin(g) tuples whose hub is s itself.
        for td, ta in self._in_index[goal].get(source, ()):
            if td >= depart_at:
                best = ta if best is None else min(best, ta)
                break
        # Case (iii): two-hop join.
        in_goal = self._in_index[goal]
        for hub, out_pairs in self._out_index[source].items():
            in_pairs = in_goal.get(hub)
            if not in_pairs:
                continue
            idx = bisect_left(out_pairs, (depart_at, -1))
            if idx == len(out_pairs):
                continue
            transfer_at = out_pairs[idx][1]
            jdx = bisect_left(in_pairs, (transfer_at, -1))
            if jdx == len(in_pairs):
                continue
            arrival = in_pairs[jdx][1]
            best = arrival if best is None else min(best, arrival)
        return best

    def latest_departure(self, source: int, goal: int, arrive_by: int) -> int | None:
        """LD(s, g, t'): latest departure from s arriving at g by t'."""
        if source == goal:
            return arrive_by
        return self._ld_join(source, goal, arrive_by)

    def _ld_join(self, source: int, goal: int, arrive_by: int) -> int | None:
        """Three-case LD evaluation without the s == g shortcut."""
        best: int | None = None
        for td, ta in reversed(self._out_index[source].get(goal, ())):
            if ta <= arrive_by:
                best = td if best is None else max(best, td)
                break
        for td, ta in reversed(self._in_index[goal].get(source, ())):
            if ta <= arrive_by:
                best = td if best is None else max(best, td)
                break
        in_goal = self._in_index[goal]
        for hub, out_pairs in self._out_index[source].items():
            in_pairs = in_goal.get(hub)
            if not in_pairs:
                continue
            # Latest Lin(g) tuple arriving by t' (arrivals track departures).
            jdx = self._last_arriving_by(in_pairs, arrive_by)
            if jdx < 0:
                continue
            hub_departure = in_pairs[jdx][0]
            idx = self._last_arriving_by(out_pairs, hub_departure)
            if idx < 0:
                continue
            departure = out_pairs[idx][0]
            best = departure if best is None else max(best, departure)
        return best

    @staticmethod
    def _last_arriving_by(pairs: list[tuple[int, int]], bound: int) -> int:
        """Index of the last pair with ta <= bound (-1 if none); relies on
        arrivals being non-decreasing in td order."""
        lo, hi = 0, len(pairs)
        while lo < hi:
            mid = (lo + hi) // 2
            if pairs[mid][1] <= bound:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def shortest_duration(
        self, source: int, goal: int, depart_at: int, arrive_by: int
    ) -> int | None:
        """SD(s, g, t, t'): shortest journey inside the window."""
        if source == goal:
            return 0 if depart_at <= arrive_by else None
        best: int | None = None
        for td, ta in self._out_index[source].get(goal, ()):
            if td >= depart_at and ta <= arrive_by:
                duration = ta - td
                best = duration if best is None else min(best, duration)
        for td, ta in self._in_index[goal].get(source, ()):
            if td >= depart_at and ta <= arrive_by:
                duration = ta - td
                best = duration if best is None else min(best, duration)
        in_goal = self._in_index[goal]
        for hub, out_pairs in self._out_index[source].items():
            in_pairs = in_goal.get(hub)
            if not in_pairs:
                continue
            idx = bisect_left(out_pairs, (depart_at, -1))
            for td1, ta1 in out_pairs[idx:]:
                jdx = bisect_left(in_pairs, (ta1, -1))
                if jdx == len(in_pairs):
                    continue
                ta2 = in_pairs[jdx][1]
                if ta2 > arrive_by:
                    continue
                duration = ta2 - td1
                best = duration if best is None else min(best, duration)
        return best

    # ------------------------------------------------------------------
    # Reference implementations of the paper's four new query types.
    # ------------------------------------------------------------------
    def ea_one_to_many(
        self, source: int, targets, depart_at: int
    ) -> dict[int, int]:
        """EA-OTM(q, T, t): earliest arrival per reachable target."""
        out = {}
        for target in targets:
            value = self._ea_join(source, target, depart_at)
            if value is not None:
                out[target] = value
        return out

    def ld_one_to_many(
        self, source: int, targets, arrive_by: int
    ) -> dict[int, int]:
        """LD-OTM(q, T, t): latest departure per reachable target."""
        out = {}
        for target in targets:
            value = self._ld_join(source, target, arrive_by)
            if value is not None:
                out[target] = value
        return out

    def ea_knn(
        self, source: int, targets, depart_at: int, k: int
    ) -> list[tuple[int, int]]:
        """EA-kNN(q, T, t, k): the k targets with earliest arrival,
        ties broken by stop id (matching the SQL's ORDER BY ta, v)."""
        reachable = self.ea_one_to_many(source, targets, depart_at)
        ranked = sorted(reachable.items(), key=lambda item: (item[1], item[0]))
        return ranked[:k]

    def ld_knn(
        self, source: int, targets, arrive_by: int, k: int
    ) -> list[tuple[int, int]]:
        """LD-kNN(q, T, t, k): the k targets with latest departure."""
        reachable = self.ld_one_to_many(source, targets, arrive_by)
        ranked = sorted(reachable.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]


# ---------------------------------------------------------------------------
# Journey reconstruction
# ---------------------------------------------------------------------------
def reconstruct_journey(
    timetable: Timetable, source: int, goal: int, depart_at: int
) -> list[Connection] | None:
    """The actual connection sequence of an optimal EA journey.

    The paper stores no pivot/trip columns in PTLDB ("it would make more
    sense to store the expanded path"); this is that expansion, computed
    with a parent-tracking connection scan. Returns ``None`` when g is
    unreachable, ``[]`` when source == goal.
    """
    if source == goal:
        return []
    inf = float("inf")
    ea = [inf] * timetable.num_stops
    ea[source] = depart_at
    # For each improved stop: the connection that improved it and the
    # connection at which its trip was boarded.
    via: list[tuple[Connection, Connection] | None] = [None] * timetable.num_stops
    max_trip = max((c.trip for c in timetable.connections), default=-1)
    boarded: list[Connection | None] = [None] * (max_trip + 1)
    trip_legs: dict[int, list[Connection]] = {}
    for c in timetable.connections:
        trip_legs.setdefault(c.trip, []).append(c)
        if c.dep < depart_at:
            continue
        enter = boarded[c.trip]
        if enter is None and ea[c.u] <= c.dep:
            enter = c
        if enter is not None:
            boarded[c.trip] = enter
            if c.arr < ea[c.v]:
                ea[c.v] = c.arr
                via[c.v] = (c, enter)
    if ea[goal] == inf:
        return None
    # Backward walk. Each step prepends the boarded trip's segment from the
    # boarding connection through the improving connection; feasibility of
    # the boarding stop is guaranteed because ea[] only ever decreases after
    # the boarding test passed.
    path: list[Connection] = []
    stop = goal
    for _ in range(timetable.num_stops + 1):
        if stop == source:
            return path
        entry = via[stop]
        if entry is None:
            raise LabelingError("broken parent chain during reconstruction")
        last, enter = entry
        segment = [
            c
            for c in trip_legs[last.trip]
            if enter.dep <= c.dep and c.arr <= last.arr
        ]
        segment.sort(key=lambda c: c.dep)
        path = segment + path
        stop = enter.u
    raise LabelingError("reconstruction did not converge")


def journey_is_feasible(path: list[Connection], source: int, goal: int, depart_at: int) -> bool:
    """Validate a reconstructed journey: chained stops, monotone times."""
    if not path:
        return source == goal
    if path[0].u != source or path[-1].v != goal:
        return False
    if path[0].dep < depart_at:
        return False
    for prev, nxt in zip(path, path[1:]):
        if prev.v != nxt.u:
            return False
        if nxt.dep < prev.arr:
            return False
    return True
