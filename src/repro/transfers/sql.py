"""PTLDB-T: transfer-bounded vertex-to-vertex queries in SQL.

Extends the paper's Code 1 with the trips dimension: the ``lout_tr`` /
``lin_tr`` tables carry three extra parallel arrays — ``trs`` (trips) and
the boundary-trip witnesses ``bts`` (last trip of a Lout journey, first trip
of a Lin journey) — and the join charges ``l1.trips + l2.trips`` minus one
when prefix and suffix ride the same vehicle across the hub:

    AND outp.tr + inp.tr
        - CASE WHEN outp.bt = inp.bt THEN 1 ELSE 0 END <= $4

Everything stays a few lines of SQL, preserving the paper's pure-SQL story
for its own future-work feature.
"""

from __future__ import annotations

from repro.errors import DatabaseError
from repro.minidb.engine import Database
from repro.ptldb.schema import insert_slices
from repro.transfers.labels import FIRST_TRIP, HUB, LAST_TRIP, TA, TD, TRIPS
from repro.transfers.labels import TransferLabels

_DDL = """CREATE TABLE {} (
  v BIGINT, hubs BIGINT[], tds BIGINT[], tas BIGINT[],
  trs BIGINT[], bts BIGINT[], PRIMARY KEY (v))"""
LOUT_TR_DDL, LIN_TR_DDL = _DDL.format("lout_tr"), _DDL.format("lin_tr")

_SIDE = """
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta,
          UNNEST(trs) AS tr,
          UNNEST(bts) AS bt
   FROM {} WHERE v={})"""
_JOIN = f"""
WITH outp AS{_SIDE.format("lout_tr", "$1")},
inp AS{_SIDE.format("lin_tr", "$2")}
SELECT {{}}
FROM outp,
     inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND {{}}
  AND outp.tr + inp.tr
      - CASE WHEN outp.bt = inp.bt THEN 1 ELSE 0 END <= $4
"""
EA_BOUNDED = _JOIN.format("MIN(inp.ta)", "outp.td>=$3")
LD_BOUNDED = _JOIN.format("MAX(outp.td)", "inp.ta<=$3")


class TransferPTLDB:
    """Database facade for the transfer-bounded query extension."""

    def __init__(self, db: Database, labels: TransferLabels):
        self.db = db
        self.labels = labels
        self.num_stops = labels.num_stops
        self.max_trips = labels.max_trips
        self._load()

    @classmethod
    def from_timetable(
        cls,
        timetable,
        max_trips: int = 4,
        device: str = "ram",
        labels: TransferLabels | None = None,
    ) -> "TransferPTLDB":
        from repro.transfers.ttl import build_transfer_labels

        if labels is None:
            labels, _ = build_transfer_labels(
                timetable, max_trips=max_trips, add_dummies=True
            )
        db = Database(device=device)
        return cls(db, labels)

    def _load(self) -> None:
        db = self.db
        db.execute("DROP TABLE IF EXISTS lout_tr")
        db.execute("DROP TABLE IF EXISTS lin_tr")
        db.execute(LOUT_TR_DDL)
        db.execute(LIN_TR_DDL)
        for table, side, boundary in (
            ("lout_tr", self.labels.lout, LAST_TRIP),
            ("lin_tr", self.labels.lin, FIRST_TRIP),
        ):
            offsets = side.offsets.tolist()
            cols = [side.records[:, col] for col in (HUB, TD, TA, TRIPS)]
            bts = side.records[:, boundary].tolist()
            # A dummy's boundary trip stays NULL.
            insert_slices(db, f"INSERT INTO {table} VALUES ($1, $2, $3, $4, $5, $6)", [
                (v, *(col[a:b] for col in cols), [None if bt == -1 else bt for bt in bts[a:b]])
                for v, a, b in zip(range(self.num_stops), offsets, offsets[1:])
            ])
        db.pool.flush()

    def _check(self, max_trips: int, *stops: int) -> None:
        for stop in stops:
            if not 0 <= stop < self.num_stops:
                raise DatabaseError(f"stop {stop} out of range")
        if not 1 <= max_trips <= self.max_trips:
            raise DatabaseError(
                f"max_trips must be in [1, {self.max_trips}], got {max_trips}"
            )

    def earliest_arrival(
        self, source: int, goal: int, depart_at: int, max_trips: int
    ) -> int | None:
        """EA(s, g, t) using at most *max_trips* trips, via SQL."""
        self._check(max_trips, source, goal)
        return self.db.execute(
            EA_BOUNDED, (source, goal, depart_at, max_trips)
        ).scalar()

    def latest_departure(
        self, source: int, goal: int, arrive_by: int, max_trips: int
    ) -> int | None:
        """LD(s, g, t') using at most *max_trips* trips, via SQL."""
        self._check(max_trips, source, goal)
        return self.db.execute(
            LD_BOUNDED, (source, goal, arrive_by, max_trips)
        ).scalar()
