"""Construction of PTLDB's auxiliary kNN / one-to-many tables — in SQL.

The paper (§3.3): "once we load the TTL labels and create the lout and lin
DB tables, all the auxiliary DB tables within PTLDB (namely the knn_ea,
knn_ld, otm_ea and otm_ld) may also be created by simple SQL commands (the
corresponding queries were omitted due to space restrictions)". This module
runs our reconstruction of those omitted queries; each builder is a sequence
of plain SQL statements executed by minidb:

* a targets table (the set T);
* an hour-domain table (PostgreSQL would use ``generate_series``; minidb
  fills it with one multi-row ``INSERT ... VALUES``);
* one ``INSERT ... SELECT`` combining three CTE legs (current-hour expanded
  tuples, future/past per-hub summaries, and the full (hub, hour) domain)
  with the ``UNION ALL + GROUP BY + MAX`` idiom standing in for a FULL
  OUTER JOIN. Its text is in :mod:`repro.ptldb.sqltext`, where
  ``repro lint --corpus`` checks it too (``sqltext.build_corpus``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DatabaseError
from repro.minidb.engine import Database
from repro.ptldb import sqltext


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
# Builders: DROP + CREATE, then the table's one INSERT ... SELECT, whose
# text lives in sqltext (shared with ``repro lint --corpus``).
# ---------------------------------------------------------------------------
def _build(db: Database, aux: AuxTables, kind: str, ddl) -> None:
    table = getattr(aux, kind)
    db.execute(f"DROP TABLE IF EXISTS {table}")
    db.execute(ddl(table))
    db.execute(sqltext.build_statement(
        kind, table, aux.targets_table, aux.hours_table, aux.kmax, aux.interval_s
    ))


def build_naive_ea(db: Database, aux: AuxTables) -> None:
    _build(db, aux, "knn_ea_naive", naive_ea_ddl)


def build_naive_ld(db: Database, aux: AuxTables) -> None:
    _build(db, aux, "knn_ld_naive", naive_ld_ddl)


def build_knn_ea(db: Database, aux: AuxTables) -> None:
    _build(db, aux, "knn_ea", grouped_ea_ddl)


def build_otm_ea(db: Database, aux: AuxTables) -> None:
    _build(db, aux, "otm_ea", grouped_ea_ddl)


def build_knn_ld(db: Database, aux: AuxTables) -> None:
    _build(db, aux, "knn_ld", grouped_ld_ddl)


def build_otm_ld(db: Database, aux: AuxTables) -> None:
    _build(db, aux, "otm_ld", grouped_ld_ddl)
