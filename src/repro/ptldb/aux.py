"""Construction of PTLDB's auxiliary kNN / one-to-many tables — in SQL.

The paper (§3.3): "once we load the TTL labels and create the lout and lin
DB tables, all the auxiliary DB tables within PTLDB (namely the knn_ea,
knn_ld, otm_ea and otm_ld) may also be created by simple SQL commands (the
corresponding queries were omitted due to space restrictions)". This module
is our reconstruction of those omitted queries; each builder is a sequence
of plain SQL statements executed by minidb:

* a targets table (the set T);
* an hour-domain table (PostgreSQL would use ``generate_series``; minidb
  fills it with one multi-row ``INSERT ... VALUES``);
* one ``INSERT ... SELECT`` combining three CTE legs (current-hour expanded
  tuples, future/past per-hub summaries, and the full (hub, hour) domain)
  with the ``UNION ALL + GROUP BY + MAX`` idiom standing in for a FULL
  OUTER JOIN.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DatabaseError
from repro.minidb.engine import Database


def _raw_cte(targets_table: str) -> str:
    """Expanded Lin tuples of the target set (dummy tuples included)."""
    return f"""raw AS (
  SELECT lin.v AS v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
  FROM lin, {targets_table}
  WHERE lin.v = {targets_table}.v
)"""


@dataclass(frozen=True)
class AuxTables:
    """Names and parameters of one built auxiliary-table family."""

    tag: str
    targets_table: str
    hours_table: str
    kmax: int
    interval_s: int
    low_hour: int
    high_hour: int

    @property
    def knn_ea(self) -> str:
        return f"knn_ea_{self.tag}"

    @property
    def knn_ld(self) -> str:
        return f"knn_ld_{self.tag}"

    @property
    def otm_ea(self) -> str:
        return f"otm_ea_{self.tag}"

    @property
    def otm_ld(self) -> str:
        return f"otm_ld_{self.tag}"

    @property
    def knn_ea_naive(self) -> str:
        return f"knn_ea_naive_{self.tag}"

    @property
    def knn_ld_naive(self) -> str:
        return f"knn_ld_naive_{self.tag}"


# ---------------------------------------------------------------------------
# DDL for every aux relation, shared with the static linter so the catalog
# it analyzes against can never drift from what the builders create.
# ---------------------------------------------------------------------------
def targets_ddl(name: str) -> str:
    return f"CREATE TABLE {name} (v BIGINT, PRIMARY KEY (v))"


def hours_ddl(name: str) -> str:
    return f"CREATE TABLE {name} (h BIGINT, PRIMARY KEY (h))"


def naive_ea_ddl(name: str) -> str:
    return f"""CREATE TABLE {name} (
  hub BIGINT, td BIGINT, vs BIGINT[], tas BIGINT[], PRIMARY KEY (hub, td))"""


def naive_ld_ddl(name: str) -> str:
    return f"""CREATE TABLE {name} (
  hub BIGINT, ta BIGINT, vs BIGINT[], tds BIGINT[], PRIMARY KEY (hub, ta))"""


def grouped_ea_ddl(name: str) -> str:
    return f"""CREATE TABLE {name} (
  hub BIGINT, dephour BIGINT,
  vs BIGINT[], tas BIGINT[],
  tds_exp BIGINT[], vs_exp BIGINT[], tas_exp BIGINT[],
  PRIMARY KEY (hub, dephour))"""


def grouped_ld_ddl(name: str) -> str:
    return f"""CREATE TABLE {name} (
  hub BIGINT, arrhour BIGINT,
  vs BIGINT[], tds BIGINT[],
  tds_exp BIGINT[], vs_exp BIGINT[], tas_exp BIGINT[],
  PRIMARY KEY (hub, arrhour))"""


def create_targets_table(db: Database, tag: str, targets) -> str:
    name = f"tgt_{tag}"
    db.execute(f"DROP TABLE IF EXISTS {name}")
    db.execute(targets_ddl(name))
    targets = sorted(set(targets))
    if not targets:
        raise DatabaseError("target set must not be empty")
    values = ", ".join(f"({v})" for v in targets)
    db.execute(f"INSERT INTO {name} VALUES {values}")
    return name


def create_hours_table(db: Database, tag: str, low_hour: int, high_hour: int) -> str:
    """Stand-in for generate_series(low, high)."""
    name = f"hours_{tag}"
    db.execute(f"DROP TABLE IF EXISTS {name}")
    db.execute(hours_ddl(name))
    values = ", ".join(f"({h})" for h in range(low_hour, high_hour + 1))
    db.execute(f"INSERT INTO {name} VALUES {values}")
    return name


# ---------------------------------------------------------------------------
# Naive kNN tables (paper Table 4)
# ---------------------------------------------------------------------------
def build_naive_ea(db: Database, aux: AuxTables) -> None:
    table = aux.knn_ea_naive
    db.execute(f"DROP TABLE IF EXISTS {table}")
    db.execute(naive_ea_ddl(table))
    db.execute(
        f"""
INSERT INTO {table}
WITH {_raw_cte(aux.targets_table)}
SELECT hub, td,
       ARRAY_AGG(v ORDER BY ta, v),
       ARRAY_AGG(ta ORDER BY ta, v)
FROM
  (SELECT hub, td, v, ta,
          ROW_NUMBER() OVER (PARTITION BY hub, td ORDER BY ta, v) AS rn
   FROM
     (SELECT hub, td, v, MIN(ta) AS ta
      FROM raw
      GROUP BY hub, td, v) best) ranked
WHERE rn <= {aux.kmax}
GROUP BY hub, td
"""
    )


def build_naive_ld(db: Database, aux: AuxTables) -> None:
    table = aux.knn_ld_naive
    db.execute(f"DROP TABLE IF EXISTS {table}")
    db.execute(naive_ld_ddl(table))
    db.execute(
        f"""
INSERT INTO {table}
WITH {_raw_cte(aux.targets_table)}
SELECT hub, ta,
       ARRAY_AGG(v ORDER BY td DESC, v),
       ARRAY_AGG(td ORDER BY td DESC, v)
FROM
  (SELECT hub, ta, v, td,
          ROW_NUMBER() OVER (PARTITION BY hub, ta ORDER BY td DESC, v) AS rn
   FROM
     (SELECT hub, ta, v, MAX(td) AS td
      FROM raw
      GROUP BY hub, ta, v) best) ranked
WHERE rn <= {aux.kmax}
GROUP BY hub, ta
"""
    )


# ---------------------------------------------------------------------------
# Optimized tables (paper Tables 5 and 6)
# ---------------------------------------------------------------------------
def _build_ea_grouped(db: Database, aux: AuxTables, table: str, top_k: int | None) -> None:
    """knn_ea (top_k = kmax) or otm_ea (top_k = None: best entry per target)."""
    db.execute(f"DROP TABLE IF EXISTS {table}")
    db.execute(grouped_ea_ddl(table))
    interval = aux.interval_s
    hours = aux.hours_table
    if top_k is None:
        fut = f"""fut AS (
  SELECT hub, h,
         ARRAY_AGG(v ORDER BY ta, v) AS vs,
         ARRAY_AGG(ta ORDER BY ta, v) AS tas
  FROM
    (SELECT raw.hub AS hub, {hours}.h AS h, raw.v AS v, MIN(raw.ta) AS ta
     FROM raw, {hours}
     WHERE raw.td >= ({hours}.h + 1) * {interval}
     GROUP BY raw.hub, {hours}.h, raw.v) best
  GROUP BY hub, h
)"""
    else:
        fut = f"""fut AS (
  SELECT hub, h,
         ARRAY_AGG(v ORDER BY ta, v) AS vs,
         ARRAY_AGG(ta ORDER BY ta, v) AS tas
  FROM
    (SELECT hub, h, v, ta,
            ROW_NUMBER() OVER (PARTITION BY hub, h ORDER BY ta, v) AS rn
     FROM
       (SELECT raw.hub AS hub, {hours}.h AS h, raw.v AS v, MIN(raw.ta) AS ta
        FROM raw, {hours}
        WHERE raw.td >= ({hours}.h + 1) * {interval}
        GROUP BY raw.hub, {hours}.h, raw.v) best) ranked
  WHERE rn <= {top_k}
  GROUP BY hub, h
)"""
    db.execute(
        f"""
INSERT INTO {table}
WITH {_raw_cte(aux.targets_table)},
cur AS (
  SELECT hub, FLOOR(td/{interval}) AS h,
         ARRAY_AGG(td ORDER BY td, v) AS tds_exp,
         ARRAY_AGG(v ORDER BY td, v) AS vs_exp,
         ARRAY_AGG(ta ORDER BY td, v) AS tas_exp
  FROM raw
  GROUP BY hub, FLOOR(td/{interval})
),
{fut},
domain AS (
  SELECT hubs.hub AS hub, {hours}.h AS h
  FROM (SELECT DISTINCT hub FROM raw) hubs, {hours}
)
SELECT u.hub, u.h,
       MAX(u.vs), MAX(u.tas), MAX(u.tds_exp), MAX(u.vs_exp), MAX(u.tas_exp)
FROM (
      (SELECT hub, h,
              NULL AS vs, NULL AS tas,
              NULL AS tds_exp, NULL AS vs_exp, NULL AS tas_exp
       FROM domain)
    UNION ALL
      (SELECT hub, h, vs, tas, NULL, NULL, NULL FROM fut)
    UNION ALL
      (SELECT hub, h, NULL, NULL, tds_exp, vs_exp, tas_exp FROM cur)
) u
GROUP BY u.hub, u.h
"""
    )


def _build_ld_grouped(db: Database, aux: AuxTables, table: str, top_k: int | None) -> None:
    """knn_ld (top_k = kmax) or otm_ld (top_k = None)."""
    db.execute(f"DROP TABLE IF EXISTS {table}")
    db.execute(grouped_ld_ddl(table))
    interval = aux.interval_s
    hours = aux.hours_table
    if top_k is None:
        past = f"""past AS (
  SELECT hub, h,
         ARRAY_AGG(v ORDER BY td DESC, v) AS vs,
         ARRAY_AGG(td ORDER BY td DESC, v) AS tds
  FROM
    (SELECT raw.hub AS hub, {hours}.h AS h, raw.v AS v, MAX(raw.td) AS td
     FROM raw, {hours}
     WHERE raw.ta <= {hours}.h * {interval}
     GROUP BY raw.hub, {hours}.h, raw.v) best
  GROUP BY hub, h
)"""
    else:
        past = f"""past AS (
  SELECT hub, h,
         ARRAY_AGG(v ORDER BY td DESC, v) AS vs,
         ARRAY_AGG(td ORDER BY td DESC, v) AS tds
  FROM
    (SELECT hub, h, v, td,
            ROW_NUMBER() OVER (PARTITION BY hub, h ORDER BY td DESC, v) AS rn
     FROM
       (SELECT raw.hub AS hub, {hours}.h AS h, raw.v AS v, MAX(raw.td) AS td
        FROM raw, {hours}
        WHERE raw.ta <= {hours}.h * {interval}
        GROUP BY raw.hub, {hours}.h, raw.v) best) ranked
  WHERE rn <= {top_k}
  GROUP BY hub, h
)"""
    db.execute(
        f"""
INSERT INTO {table}
WITH {_raw_cte(aux.targets_table)},
cur AS (
  SELECT hub, FLOOR(ta/{interval}) AS h,
         ARRAY_AGG(td ORDER BY td, v) AS tds_exp,
         ARRAY_AGG(v ORDER BY td, v) AS vs_exp,
         ARRAY_AGG(ta ORDER BY td, v) AS tas_exp
  FROM raw
  GROUP BY hub, FLOOR(ta/{interval})
),
{past},
domain AS (
  SELECT hubs.hub AS hub, {hours}.h AS h
  FROM (SELECT DISTINCT hub FROM raw) hubs, {hours}
)
SELECT u.hub, u.h,
       MAX(u.vs), MAX(u.tds), MAX(u.tds_exp), MAX(u.vs_exp), MAX(u.tas_exp)
FROM (
      (SELECT hub, h,
              NULL AS vs, NULL AS tds,
              NULL AS tds_exp, NULL AS vs_exp, NULL AS tas_exp
       FROM domain)
    UNION ALL
      (SELECT hub, h, vs, tds, NULL, NULL, NULL FROM past)
    UNION ALL
      (SELECT hub, h, NULL, NULL, tds_exp, vs_exp, tas_exp FROM cur)
) u
GROUP BY u.hub, u.h
"""
    )


def build_knn_ea(db: Database, aux: AuxTables) -> None:
    _build_ea_grouped(db, aux, aux.knn_ea, top_k=aux.kmax)


def build_otm_ea(db: Database, aux: AuxTables) -> None:
    _build_ea_grouped(db, aux, aux.otm_ea, top_k=None)


def build_knn_ld(db: Database, aux: AuxTables) -> None:
    _build_ld_grouped(db, aux, aux.knn_ld, top_k=aux.kmax)


def build_otm_ld(db: Database, aux: AuxTables) -> None:
    _build_ld_grouped(db, aux, aux.otm_ld, top_k=None)
