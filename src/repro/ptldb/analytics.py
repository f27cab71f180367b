"""Scan-heavy analytics tables over the raw timetable.

The paper's query families (Codes 1-4) are all point-shaped: they reach the
label and auxiliary tables through primary keys and touch a handful of rows.
This module adds the complementary *analytics* family — network-operations
questions ("which stops are the busiest hubs?", "how many trips does each
route run?") answered by full-table GROUP BY aggregation over the timetable
itself. These queries are scan-shaped **by design** (the analyzer's
``analytics`` bound in ``check_paper_bounds`` enforces it): every page of
the scanned table is read.

Two tables, derived from :class:`~repro.timetable.model.Timetable`:

* ``connections`` — one row per elementary arc ``<u, v, td, ta>`` with its
  trip id; ``cid`` is the arc's position in canonical (dep, arr) scan order.
* ``trips`` — one row per trip with its route, leg count and time span.
  A *route* groups trips that serve the identical stop sequence (the GTFS
  notion recovered from the arcs); route ids are assigned in first-
  appearance order over ascending trip ids, so they are deterministic for
  a given timetable.
"""

from __future__ import annotations

from repro.minidb.engine import Database
from repro.timetable.model import Timetable

CONNECTIONS_DDL = """CREATE TABLE connections (
  cid BIGINT, trip BIGINT, u BIGINT, v BIGINT, td BIGINT, ta BIGINT,
  PRIMARY KEY (cid))"""

TRIPS_DDL = """CREATE TABLE trips (
  trip BIGINT, route BIGINT, legs BIGINT, first_dep BIGINT, last_arr BIGINT,
  PRIMARY KEY (trip))"""


def derive_trip_rows(timetable: Timetable) -> list[tuple]:
    """``(trip, route, legs, first_dep, last_arr)`` rows, one per trip.

    Trips are keyed by their stop sequence: two trips serving exactly the
    same stops in the same order share a route id.
    """
    by_trip: dict[int, list] = {}
    for c in timetable.connections:
        by_trip.setdefault(c.trip, []).append(c)
    rows = []
    route_of_seq: dict[tuple, int] = {}
    for trip in sorted(by_trip):
        legs = sorted(by_trip[trip], key=lambda c: c.dep)
        seq = (legs[0].u,) + tuple(c.v for c in legs)
        route = route_of_seq.setdefault(seq, len(route_of_seq))
        rows.append(
            (trip, route, len(legs), legs[0].dep, legs[-1].arr)
        )
    return rows


def load_analytics(db: Database, timetable: Timetable) -> None:
    """Create and fill ``connections`` / ``trips`` from *timetable*.

    The analytics family reads these tables through full sequential
    scans; their columns are all scalars.
    """
    db.execute("DROP TABLE IF EXISTS connections")
    db.execute("DROP TABLE IF EXISTS trips")
    db.execute(CONNECTIONS_DDL)
    db.execute(TRIPS_DDL)
    db.executemany(
        "INSERT INTO connections VALUES ($1, $2, $3, $4, $5, $6)",
        [
            (cid, c.trip, c.u, c.v, c.dep, c.arr)
            for cid, c in enumerate(timetable.connections)
        ],
    )
    db.executemany(
        "INSERT INTO trips VALUES ($1, $2, $3, $4, $5)",
        derive_trip_rows(timetable),
    )
    db.pool.flush()
