"""The PTLDB SQL statements (paper Codes 1-4), parameterized.

The query texts follow the paper verbatim where possible. Differences:

* placeholders: ``$1, $2, ...`` instead of spliced constants;
* the hour of a departure/arrival is clamped into the table's hour domain
  with ``GREATEST(LEAST(...))`` so queries near the edges of the service day
  stay correct (the paper implicitly assumes all hours have rows);
* the grouping interval is a parameter (the paper's §3.2.1 ablation).

Every function returns SQL text for a given set of table names, so multiple
target sets / densities / kmax values can coexist (the paper builds one
table per configuration too).
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Code 1 — vertex-to-vertex queries
# ---------------------------------------------------------------------------
# Parameters: $1 = s, $2 = g, $3 = t (EA) / t' (LD) / both (SD: $3=t, $4=t').

V2V_EA = """
WITH outp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lout WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lin WHERE v=$2)
SELECT MIN(inp.ta)
FROM outp,
     inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3
"""

V2V_LD = """
WITH outp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lout WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lin WHERE v=$2)
SELECT MAX(outp.td)
FROM outp,
     inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND inp.ta<=$3
"""

V2V_SD = """
WITH outp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lout WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub,
          UNNEST(tds) AS td,
          UNNEST(tas) AS ta
   FROM lin WHERE v=$2)
SELECT MIN(inp.ta-outp.td)
FROM outp,
     inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3
  AND inp.ta<=$4
"""


# ---------------------------------------------------------------------------
# Code 2 — naive EA-kNN / LD-kNN
# ---------------------------------------------------------------------------
def ea_knn_naive(table: str) -> str:
    """Parameters: $1 = q, $2 = t, $3 = k."""
    return f"""
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v AS v,
             UNNEST(hubs) AS hub,
             UNNEST(tds) AS td,
             UNNEST(tas) AS ta
      FROM lout
      WHERE v=$1) n1a
   WHERE td >= $2)
SELECT v2, MIN(n2.ta)
FROM n1,
  (SELECT hub, td,
          UNNEST(vs[1:$3]) AS v2,
          UNNEST(tas[1:$3]) AS ta
   FROM {table}) n2
WHERE n1.hub=n2.hub
  AND n2.td>=n1.ta
GROUP BY v2
ORDER BY MIN(n2.ta), v2
LIMIT $3
"""


def ld_knn_naive(table: str) -> str:
    """LD mirror of Code 2. Parameters: $1 = q, $2 = t', $3 = k.

    The naive LD table groups target tuples per (hub, ta) and keeps the
    top-k latest-departure entries; the query maximizes the label departure
    from q subject to the transfer condition and ta <= t'.
    """
    return f"""
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v AS v,
             UNNEST(hubs) AS hub,
             UNNEST(tds) AS td,
             UNNEST(tas) AS ta
      FROM lout
      WHERE v=$1) n1a)
SELECT v2, MAX(n1.td)
FROM n1,
  (SELECT hub, ta,
          UNNEST(vs[1:$3]) AS v2,
          UNNEST(tds[1:$3]) AS td
   FROM {table}
   WHERE ta <= $2) n2
WHERE n1.hub=n2.hub
  AND n2.td>=n1.ta
GROUP BY v2
ORDER BY MAX(n1.td) DESC, v2
LIMIT $3
"""


# ---------------------------------------------------------------------------
# Code 3 — optimized EA-kNN and EA-OTM
# ---------------------------------------------------------------------------
def _ea_body(table: str, knn: bool) -> str:
    """Shared skeleton of the EA-kNN and EA-OTM queries.

    Parameters: $1 = q, $2 = t, $3 = k (kNN only), then interval, min hour,
    max hour (positions shift by one between the kNN and OTM variants).
    """
    if knn:
        interval, low, high = "$4", "$5", "$6"
        unnest_ta = "UNNEST(tas[1:$3]) AS ta"
        unnest_v = "UNNEST(vs[1:$3]) AS v2"
        limit_a = "LIMIT $3"
    else:
        interval, low, high = "$3", "$4", "$5"
        unnest_ta = "UNNEST(tas) AS ta"
        unnest_v = "UNNEST(vs) AS v2"
        limit_a = ""
    return f"""
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v,
             UNNEST(hubs) AS hub,
             UNNEST(tds) AS td,
             UNNEST(tas) AS ta
      FROM lout
      WHERE v=$1) n1a
   WHERE td >= $2),
n1b AS
  (SELECT n1bb.*,
          n1.ta AS n1_ta,
          n1.td AS n1_td
   FROM {table} n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.dephour=GREATEST({low}, LEAST({high}, FLOOR(n1.ta/{interval}))))
SELECT v2, MIN(ta)
FROM (
      (SELECT v2, MIN(n3.ta) AS ta
       FROM
          (SELECT
             {unnest_ta},
             {unnest_v}
           FROM n1b) n3
       GROUP BY v2
       ORDER BY MIN(n3.ta), v2
       {limit_a}
       )
    UNION
      (SELECT n2.v2, MIN(n2.ta) AS ta
       FROM
          (SELECT n1_ta,
                  UNNEST(tds_exp) AS td,
                  UNNEST(vs_exp) AS v2,
                  UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n1_ta <= n2.td
       GROUP BY n2.v2
       ORDER BY MIN(n2.ta), v2
       {limit_a}
       )) s53
GROUP BY v2
ORDER BY MIN(ta), v2
{limit_a}
"""


def ea_knn_optimized(table: str) -> str:
    """Code 3, kNN variant. Params: q, t, k, interval, min hour, max hour."""
    return _ea_body(table, knn=True)


def ea_otm(table: str) -> str:
    """Code 3, one-to-many variant. Params: q, t, interval, min/max hour."""
    return _ea_body(table, knn=False)


# ---------------------------------------------------------------------------
# Code 4 — optimized LD-kNN and LD-OTM
# ---------------------------------------------------------------------------
def _ld_body(table: str, knn: bool) -> str:
    if knn:
        interval, low, high = "$4", "$5", "$6"
        unnest_td = "UNNEST(tds[1:$3]) AS td"
        unnest_v = "UNNEST(vs[1:$3]) AS v2"
        limit_a = "LIMIT $3"
    else:
        interval, low, high = "$3", "$4", "$5"
        unnest_td = "UNNEST(tds) AS td"
        unnest_v = "UNNEST(vs) AS v2"
        limit_a = ""
    return f"""
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v,
             UNNEST(hubs) AS hub,
             UNNEST(tds) AS td,
             UNNEST(tas) AS ta
      FROM lout
      WHERE v=$1) n1a),
n1b AS
  (SELECT n1bb.*,
          n1.ta AS n1_ta,
          n1.td AS n1_td
   FROM {table} n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.arrhour=GREATEST({low}, LEAST({high}, FLOOR($2/{interval}))))
SELECT v2, MAX(td)
FROM (
      (SELECT v2, MAX(n3.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta,
                  {unnest_td},
                  {unnest_v}
           FROM n1b) n3
       WHERE n3.td>=n1_ta
       GROUP BY v2
       ORDER BY MAX(n3.n1_td) DESC, v2
       {limit_a}
       )
    UNION
      (SELECT n2.v2, MAX(n2.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta,
                  UNNEST(tds_exp) AS td,
                  UNNEST(vs_exp) AS v2,
                  UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n2.td>=n1_ta
         AND n2.ta<=$2
       GROUP BY n2.v2
       ORDER BY MAX(n2.n1_td) DESC, v2
       {limit_a}
       )) s53
GROUP BY v2
ORDER BY MAX(td) DESC, v2
{limit_a}
"""


def ld_knn_optimized(table: str) -> str:
    """Code 4, kNN variant. Params: q, t', k, interval, min hour, max hour."""
    return _ld_body(table, knn=True)


def ld_otm(table: str) -> str:
    """Code 4, one-to-many variant. Params: q, t', interval, min/max hour."""
    return _ld_body(table, knn=False)


# ---------------------------------------------------------------------------
# Target-set builds — the aux tables of Codes 2-4 "may also be created by
# simple SQL commands" (§3.3; the paper omits them). One ``INSERT ... SELECT``
# per family, each combining the target set's expanded Lin tuples (``raw``),
# per-hour summaries and the full (hub, hour) domain, with the
# ``UNION ALL + GROUP BY + MAX`` idiom standing in for a FULL OUTER JOIN.
# ``repro.ptldb.aux`` runs them; ``build_corpus`` lints them.
# ---------------------------------------------------------------------------
def _raw_cte(targets_table: str) -> str:
    """Expanded Lin tuples of the target set (dummy tuples included)."""
    return f"""raw AS (
  SELECT lin.v AS v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
  FROM lin, {targets_table}
  WHERE lin.v = {targets_table}.v
)"""


def _naive_ea(table: str, targets_table: str, kmax: int) -> str:
    """Naive EA-kNN table (Table 4): the *kmax* best targets per (hub, td)."""
    return f"""
INSERT INTO {table}
WITH {_raw_cte(targets_table)}
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
WHERE rn <= {kmax}
GROUP BY hub, td
"""


def _naive_ld(table: str, targets_table: str, kmax: int) -> str:
    """Naive LD-kNN table (Table 4): the *kmax* best targets per (hub, ta)."""
    return f"""
INSERT INTO {table}
WITH {_raw_cte(targets_table)}
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
WHERE rn <= {kmax}
GROUP BY hub, ta
"""


def _grouped_ea(
    table: str, targets_table: str, hours: str, interval: int, top_k: int | None
) -> str:
    """knn_ea (*top_k* = kmax) or otm_ea (None: best entry per target)."""
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
    return f"""
INSERT INTO {table}
WITH {_raw_cte(targets_table)},
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


def _grouped_ld(
    table: str, targets_table: str, hours: str, interval: int, top_k: int | None
) -> str:
    """knn_ld (*top_k* = kmax) or otm_ld (None)."""
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
    return f"""
INSERT INTO {table}
WITH {_raw_cte(targets_table)},
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


# ---------------------------------------------------------------------------
# Analytics family — scan-shaped GROUP BY over the raw timetable tables
# (``repro.ptldb.analytics``). Unlike Codes 1-4 these deliberately read
# every page of their base table (the analyzer's ``analytics`` bound
# *requires* sequential scans).
# ---------------------------------------------------------------------------

#: Busiest departure hubs. Parameters: $1 = k.
ANALYTICS_BUSIEST_HUBS = """
SELECT u, COUNT(*) AS departures, MIN(td) AS first_dep, MAX(td) AS last_dep
FROM connections
GROUP BY u
ORDER BY COUNT(*) DESC, u
LIMIT $1
"""

#: Per-route trip-level statistics. No parameters.
ANALYTICS_ROUTE_TRIPS = """
SELECT route, COUNT(*) AS trips, MIN(first_dep) AS first_dep,
       MAX(last_arr) AS last_arr
FROM trips
GROUP BY route
ORDER BY route
"""

#: Departures per time bucket. Parameters: $1 = bucket width (seconds).
ANALYTICS_HOURLY_LOAD = """
SELECT FLOOR(td/$1) AS hour, COUNT(*) AS departures
FROM connections
GROUP BY FLOOR(td/$1)
ORDER BY FLOOR(td/$1)
"""

#: Per-route service volume (SUM/AVG never lower to array kernels, so
#: this statement exercises the row accumulators).
ANALYTICS_ROUTE_LEGS = """
SELECT route, SUM(legs) AS total_legs, AVG(legs) AS avg_legs
FROM trips
GROUP BY route
ORDER BY route
"""

#: Whole-network span: one scalar row even over an empty table.
ANALYTICS_NETWORK_SPAN = """
SELECT COUNT(*) AS arcs, MIN(td) AS first_dep, MAX(ta) AS last_arr
FROM connections
"""


# ---------------------------------------------------------------------------
# The canned query corpus — every paper query family, against a reference
# set of table names. ``repro lint --corpus`` statically analyzes all of
# these and checks the paper's page-access bounds (see
# ``repro.minidb.sql.analyzer.check_paper_bounds``).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusQuery:
    """One canned paper query: a name, its bound-check family, the SQL."""

    name: str
    family: str  # v2v_* | knn_* | otm_* | *_naive | analytics | build
    sql: str


#: Reference aux-table tag used by the corpus (matches what
#: ``PTLDB.build_target_set(tag)`` would create).
CORPUS_TAG = "lint"


def corpus(tag: str = CORPUS_TAG) -> list[CorpusQuery]:
    """All seven paper query families against the ``tag`` aux tables."""
    return [
        CorpusQuery("v2v_ea", "v2v_ea", V2V_EA),
        CorpusQuery("v2v_ld", "v2v_ld", V2V_LD),
        CorpusQuery("v2v_sd", "v2v_sd", V2V_SD),
        CorpusQuery(
            "ea_knn_naive", "knn_ea_naive", ea_knn_naive(f"knn_ea_naive_{tag}")
        ),
        CorpusQuery(
            "ld_knn_naive", "knn_ld_naive", ld_knn_naive(f"knn_ld_naive_{tag}")
        ),
        CorpusQuery(
            "ea_knn_optimized", "knn_ea", ea_knn_optimized(f"knn_ea_{tag}")
        ),
        CorpusQuery(
            "ld_knn_optimized", "knn_ld", ld_knn_optimized(f"knn_ld_{tag}")
        ),
        CorpusQuery("ea_otm", "otm_ea", ea_otm(f"otm_ea_{tag}")),
        CorpusQuery("ld_otm", "otm_ld", ld_otm(f"otm_ld_{tag}")),
        CorpusQuery(
            "analytics_busiest_hubs", "analytics", ANALYTICS_BUSIEST_HUBS
        ),
        CorpusQuery(
            "analytics_route_trips", "analytics", ANALYTICS_ROUTE_TRIPS
        ),
        CorpusQuery(
            "analytics_hourly_load", "analytics", ANALYTICS_HOURLY_LOAD
        ),
        CorpusQuery(
            "analytics_route_legs", "analytics", ANALYTICS_ROUTE_LEGS
        ),
        CorpusQuery(
            "analytics_network_span", "analytics", ANALYTICS_NETWORK_SPAN
        ),
    ]


#: What ``build_target_set`` fills, as table-name prefixes (``knn_ea_<tag>``).
BUILD_TABLES = ("knn_ea", "knn_ld", "otm_ea", "otm_ld", "knn_ea_naive", "knn_ld_naive")


def build_statement(
    kind: str, table: str, targets: str, hours: str, kmax: int, interval: int
) -> str:
    """The ``INSERT ... SELECT`` filling *table*, of kind *kind*
    (``BUILD_TABLES``), from the *targets* and *hours* tables."""
    if kind.endswith("_naive"):
        naive = _naive_ea if kind.startswith("knn_ea") else _naive_ld
        return naive(table, targets, kmax)
    grouped = _grouped_ea if kind.endswith("_ea") else _grouped_ld
    top_k = kmax if kind.startswith("knn") else None
    return grouped(table, targets, hours, interval, top_k)


def build_corpus(
    tag: str = CORPUS_TAG, kmax: int = 16, interval: int = 3600
) -> list[CorpusQuery]:
    """The statements ``build_target_set(tag)`` issues. Their bound is
    APL001: they reach ``lin`` only by primary key, never by a scan."""
    return [
        CorpusQuery(f"build_{kind}", "build", build_statement(
            kind, f"{kind}_{tag}", f"tgt_{tag}", f"hours_{tag}", kmax, interval))
        for kind in BUILD_TABLES
    ]
