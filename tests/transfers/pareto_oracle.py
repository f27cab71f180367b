"""An independent trips-bounded earliest-arrival oracle: a breadth-first
search over ``(connection, trips)`` states, built straight from the
connections — no rounds, no profiles, no labels.

State ``(c, k)`` means riding connection *c* having boarded *k* vehicles.
From it one may stay seated onto the next leg of c's trip at the same
*k*, or get off at ``c.v`` and board any connection departing there no
earlier than ``c.arr`` at ``k + 1``. Layer k of the search holds the
connections first reached with k trips; fewer trips always dominate, so
each connection is expanded once.
"""

from __future__ import annotations

from collections import defaultdict

INF = float("inf")


def bounded_arrivals(timetable, source: int, depart_at: int,
                     max_trips: int) -> list[float]:
    """Earliest arrival at every stop from *source*, departing at or after
    *depart_at*, boarding at most *max_trips* vehicles (``inf``: none)."""
    conns = timetable.connections
    departing = defaultdict(list)  # stop -> indices of connections from it
    seated = {}  # connection index -> the next leg of its trip
    last_leg = {}
    for i, c in enumerate(conns):  # canonical order lists each trip's legs in turn
        departing[c.u].append(i)
        if c.trip in last_leg:
            seated[last_leg[c.trip]] = i
        last_leg[c.trip] = i
    arrival = [INF] * timetable.num_stops
    arrival[source] = depart_at
    reached: set[int] = set()
    frontier = [i for i in departing[source] if conns[i].dep >= depart_at]
    for _ in range(max_trips):
        layer, stack = [], frontier
        while stack:
            i = stack.pop()
            if i in reached:
                continue
            reached.add(i)
            layer.append(i)
            if i in seated:
                stack.append(seated[i])
        for i in layer:
            c = conns[i]
            arrival[c.v] = min(arrival[c.v], c.arr)
        frontier = [j for i in layer for j in departing[conns[i].v]
                    if conns[j].dep >= conns[i].arr]
    return arrival


def earliest_arrival(timetable, source: int, goal: int, depart_at: int,
                     max_trips: int) -> int | None:
    """EA(s, g, t) with at most *max_trips* trips, ``None`` if none."""
    if source == goal:
        return depart_at
    value = bounded_arrivals(timetable, source, depart_at, max_trips)[goal]
    return None if value == INF else value
