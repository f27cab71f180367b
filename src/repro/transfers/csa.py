"""Round-limited Connection Scan: the transfer-bounded oracle.

The paper's future work asks for "the number of transfers as an additional
optimization criterion". This module provides the exact ground truth: a
RAPTOR-style round-by-round connection scan where round *r* computes the
earliest arrival using at most *r* trips (= r - 1 transfers).
"""

from __future__ import annotations

from repro.errors import TimetableError
from repro.timetable.model import Timetable

INF = float("inf")


def _check_stops(timetable: Timetable, *stops: int) -> None:
    for stop in stops:
        if not 0 <= stop < timetable.num_stops:
            raise TimetableError(
                f"stop {stop} out of range [0, {timetable.num_stops})")


def earliest_arrival_by_trips(
    timetable: Timetable, source: int, depart_at: int, max_trips: int
) -> list[list[float]]:
    """Per-round earliest arrivals.

    Returns ``ea`` with ``ea[r][v]`` = earliest arrival at *v* using at most
    *r* trips (``ea[0]`` is the trivial round: only the source is reached).
    Boarding in round *r* requires arriving with at most *r - 1* trips, so
    each round adds at most one boarding, exactly like RAPTOR.
    """
    if max_trips < 0:
        raise TimetableError("max_trips must be non-negative")
    _check_stops(timetable, source)
    n = timetable.num_stops
    rounds: list[list[float]] = [[INF] * n]
    rounds[0][source] = depart_at
    max_trip_id = max((c.trip for c in timetable.connections), default=-1)
    for _ in range(max_trips):
        previous = rounds[-1]
        current = list(previous)
        boarded = [False] * (max_trip_id + 1)
        for c in timetable.connections:  # sorted by (dep, arr)
            if c.dep < depart_at:
                continue
            if boarded[c.trip] or previous[c.u] <= c.dep:
                boarded[c.trip] = True
                if c.arr < current[c.v]:
                    current[c.v] = c.arr
        rounds.append(current)
    return rounds


def earliest_arrival_bounded(
    timetable: Timetable,
    source: int,
    goal: int,
    depart_at: int,
    max_trips: int,
) -> int | None:
    """EA(s, g, t) restricted to at most *max_trips* trips."""
    _check_stops(timetable, source, goal)
    if source == goal:
        return depart_at
    value = earliest_arrival_by_trips(timetable, source, depart_at, max_trips)[
        max_trips
    ][goal]
    return None if value == INF else int(value)


def latest_departure_bounded(
    timetable: Timetable,
    source: int,
    goal: int,
    arrive_by: int,
    max_trips: int,
) -> int | None:
    """LD(s, g, t') restricted to at most *max_trips* trips (via reversal)."""
    _check_stops(timetable, source, goal)
    if source == goal:
        return arrive_by
    reverse = timetable.reverse()
    value = earliest_arrival_by_trips(reverse, goal, -arrive_by, max_trips)[
        max_trips
    ][source]
    return None if value == INF else -int(value)


def trips_needed(
    timetable: Timetable,
    source: int,
    goal: int,
    depart_at: int,
    arrive_by: int | None = None,
    limit: int = 8,
) -> int | None:
    """Minimum number of trips to get from s to g departing >= t (and, when
    given, arriving <= t'). ``None`` if unreachable within *limit* trips."""
    _check_stops(timetable, source, goal)
    if source == goal:
        return 0
    rounds = earliest_arrival_by_trips(timetable, source, depart_at, limit)
    for r, ea in enumerate(rounds):
        value = ea[goal]
        if value < INF and (arrive_by is None or value <= arrive_by):
            return r
    return None
