"""PTLDB base schema: the *lout* and *lin* label tables.

Exactly the paper's layout (§3.1, Tables 2-3): one row per vertex, the
label tuples flattened into three parallel arrays ``hubs``, ``tds``, ``tas``
ordered by ``(hub, td)``, primary key ``v``. Dummy tuples must already be
present in the labels (PTLDB's unified v2v join depends on them).
"""

from __future__ import annotations

from repro.errors import DatabaseError
from repro.labeling.labels import HUB, TA, TD, TTLLabels
from repro.minidb.engine import Database

LABEL_DDL = """CREATE TABLE {table} (
  v BIGINT, hubs BIGINT[], tds BIGINT[], tas BIGINT[], PRIMARY KEY (v))"""
LOUT_DDL = LABEL_DDL.format(table="lout")
LIN_DDL = LABEL_DDL.format(table="lin")

INSERT_LABEL_ROW = "INSERT INTO {table} VALUES ($1, $2, $3, $4)"
#: Vertices per label-load statement (one commit each): until it commits
#: the pool may not evict the pages it dirtied, and 8 vertices keep those
#: under a 20-page pool even for Madrid ``paper`` labels (15 at most).
#: Tied to that pool size: a smaller pool or wider labels overshoot it.
LOAD_SLICE = 8


def insert_slices(db: Database, sql: str, rows: list) -> None:
    """Run *sql* once per row of *rows*, ``LOAD_SLICE`` rows a statement."""
    for start in range(0, len(rows), LOAD_SLICE):
        db.executemany(sql, rows[start:start + LOAD_SLICE])


def load_labels(db: Database, labels: TTLLabels) -> None:
    """Create and fill *lout* / *lin* from a TTL labeling.

    Each row is one record (docs/STORAGE.md) whose sorted arrays are
    delta-encoded into numpy-decodable fixed-width segments.
    """
    if labels.total_tuples > 0 and labels.dummy_count() == 0:
        raise DatabaseError(
            "labels have no dummy tuples; call add_dummy_tuples() first "
            "(the PTLDB v2v query is incorrect without them)"
        )
    db.execute("DROP TABLE IF EXISTS lout")
    db.execute("DROP TABLE IF EXISTS lin")
    db.execute(LOUT_DDL)
    db.execute(LIN_DDL)
    for table, side in (("lout", labels.lout), ("lin", labels.lin)):
        offsets = side.offsets.tolist()
        hubs, tds, tas = (side.records[:, col] for col in (HUB, TD, TA))
        insert_slices(db, INSERT_LABEL_ROW.format(table=table), [
            (v, hubs[a:b], tds[a:b], tas[a:b])  # already sorted by (hub, td)
            for v, a, b in zip(range(labels.num_stops), offsets, offsets[1:])
        ])
    db.pool.flush()


def label_time_range(labels: TTLLabels) -> tuple[int, int]:
    """(min td, max ta) across every stored label tuple.

    An empty labeling (a timetable with no connections) degenerates to
    ``(0, 0)`` — every query then correctly returns no journeys.
    """
    sides = [s.records for s in (labels.lout, labels.lin) if len(s.records)]
    if not sides:
        return 0, 0
    return (int(min(r[:, TD].min() for r in sides)),
            int(max(r[:, TA].max() for r in sides)))
