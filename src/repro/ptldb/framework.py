"""The PTLDB framework facade.

Ties everything together: TTL preprocessing, label loading, auxiliary-table
construction, and the seven query types — all running as SQL against the
embedded minidb engine (the PostgreSQL stand-in).

Typical use::

    from repro.timetable import load_dataset
    from repro.ptldb import PTLDB

    tt = load_dataset("Austin")
    ptldb = PTLDB.from_timetable(tt, device="hdd")
    ptldb.earliest_arrival(3, 17, 8 * 3600)

    handle = ptldb.build_target_set("pois", targets={5, 9, 12}, kmax=4)
    ptldb.ea_knn("pois", source=3, depart_at=8 * 3600, k=2)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import DatabaseError
from repro.labeling.io import load_or_build
from repro.labeling.labels import TTLLabels
from repro.minidb.engine import Database
from repro.ptldb import aux as aux_mod
from repro.ptldb import sqltext
from repro.ptldb.schema import label_time_range, load_labels
from repro.timetable.model import Timetable

DEFAULT_INTERVAL_S = 3600  # the paper's one-hour grouping interval


@dataclass
class TargetSetHandle:
    """One registered target set T with its auxiliary tables."""

    aux: aux_mod.AuxTables
    targets: frozenset[int]
    built: set = field(default_factory=set)  # which families exist
    build_seconds: dict = field(default_factory=dict)


class _QueryAPI:
    """The seven PTLDB query types, written against an abstract executor.

    Mixed into both :class:`PTLDB` (queries run on the database's default
    session) and :class:`PTLDBClient` (queries run on a private session, one
    per serving thread). Subclasses provide ``_exec``, ``handle``,
    ``_require`` and ``_check_stop``.
    """

    # ------------------------------------------------------------------
    # Vertex-to-vertex queries (Code 1)
    # ------------------------------------------------------------------
    def earliest_arrival(self, source: int, goal: int, depart_at: int) -> int | None:
        """EA(s, g, t) via SQL; ``None`` when no journey qualifies."""
        self._check_stop(source)
        self._check_stop(goal)
        return self._exec(sqltext.V2V_EA, (source, goal, depart_at)).scalar()

    def latest_departure(self, source: int, goal: int, arrive_by: int) -> int | None:
        """LD(s, g, t') via SQL."""
        self._check_stop(source)
        self._check_stop(goal)
        return self._exec(sqltext.V2V_LD, (source, goal, arrive_by)).scalar()

    def shortest_duration(
        self, source: int, goal: int, depart_at: int, arrive_by: int
    ) -> int | None:
        """SD(s, g, t, t') via SQL."""
        self._check_stop(source)
        self._check_stop(goal)
        return self._exec(
            sqltext.V2V_SD, (source, goal, depart_at, arrive_by)
        ).scalar()

    # ------------------------------------------------------------------
    # kNN queries (Codes 2-4)
    # ------------------------------------------------------------------
    def ea_knn(
        self, tag: str, source: int, depart_at: int, k: int
    ) -> list[tuple[int, int]]:
        """EA-kNN(q, T, t, k): k earliest-reachable targets (optimized)."""
        handle = self._require(tag, "knn_ea")
        if k > handle.aux.kmax:
            raise DatabaseError(f"k={k} exceeds kmax={handle.aux.kmax} of {tag!r}")
        sql = sqltext.ea_knn_optimized(handle.aux.knn_ea)
        rows = self._exec(
            sql,
            (
                source,
                depart_at,
                k,
                handle.aux.interval_s,
                handle.aux.low_hour,
                handle.aux.high_hour,
            ),
        ).rows
        return [(v, value) for v, value in rows]

    def ld_knn(
        self, tag: str, source: int, arrive_by: int, k: int
    ) -> list[tuple[int, int]]:
        """LD-kNN(q, T, t', k): k latest-departing reachable targets."""
        handle = self._require(tag, "knn_ld")
        if k > handle.aux.kmax:
            raise DatabaseError(f"k={k} exceeds kmax={handle.aux.kmax} of {tag!r}")
        sql = sqltext.ld_knn_optimized(handle.aux.knn_ld)
        rows = self._exec(
            sql,
            (
                source,
                arrive_by,
                k,
                handle.aux.interval_s,
                handle.aux.low_hour,
                handle.aux.high_hour,
            ),
        ).rows
        return [(v, value) for v, value in rows]

    def ea_knn_naive(
        self, tag: str, source: int, depart_at: int, k: int
    ) -> list[tuple[int, int]]:
        """EA-kNN via the paper's naive table (Code 2) — the baseline."""
        handle = self._require(tag, "naive_ea")
        if k > handle.aux.kmax:
            raise DatabaseError(f"k={k} exceeds kmax={handle.aux.kmax} of {tag!r}")
        sql = sqltext.ea_knn_naive(handle.aux.knn_ea_naive)
        rows = self._exec(sql, (source, depart_at, k)).rows
        return [(v, value) for v, value in rows]

    def ld_knn_naive(
        self, tag: str, source: int, arrive_by: int, k: int
    ) -> list[tuple[int, int]]:
        """LD-kNN via the naive table — the baseline."""
        handle = self._require(tag, "naive_ld")
        if k > handle.aux.kmax:
            raise DatabaseError(f"k={k} exceeds kmax={handle.aux.kmax} of {tag!r}")
        sql = sqltext.ld_knn_naive(handle.aux.knn_ld_naive)
        rows = self._exec(sql, (source, arrive_by, k)).rows
        return [(v, value) for v, value in rows]

    # ------------------------------------------------------------------
    # One-to-many queries
    # ------------------------------------------------------------------
    def ea_one_to_many(
        self, tag: str, source: int, depart_at: int
    ) -> dict[int, int]:
        """EA-OTM(q, T, t): earliest arrival for every reachable target."""
        handle = self._require(tag, "otm_ea")
        sql = sqltext.ea_otm(handle.aux.otm_ea)
        rows = self._exec(
            sql,
            (
                source,
                depart_at,
                handle.aux.interval_s,
                handle.aux.low_hour,
                handle.aux.high_hour,
            ),
        ).rows
        return {v: value for v, value in rows}

    def ld_one_to_many(
        self, tag: str, source: int, arrive_by: int
    ) -> dict[int, int]:
        """LD-OTM(q, T, t'): latest departure for every reachable target."""
        handle = self._require(tag, "otm_ld")
        sql = sqltext.ld_otm(handle.aux.otm_ld)
        rows = self._exec(
            sql,
            (
                source,
                arrive_by,
                handle.aux.interval_s,
                handle.aux.low_hour,
                handle.aux.high_hour,
            ),
        ).rows
        return {v: value for v, value in rows}

    # ------------------------------------------------------------------
    # Derived batch queries (the paper's intro lists many-to-many and
    # range queries among the road-network variants PTLDB's design family
    # supports; they compose directly from the one-to-many SQL).
    # ------------------------------------------------------------------
    def ea_many_to_many(
        self, tag: str, sources, depart_at: int
    ) -> dict[int, dict[int, int]]:
        """EA travel-time table between *sources* and the tag's targets:
        ``result[s][t]`` = earliest arrival at t leaving s at *depart_at*."""
        return {
            source: self.ea_one_to_many(tag, source, depart_at)
            for source in sources
        }

    def ld_many_to_many(
        self, tag: str, sources, arrive_by: int
    ) -> dict[int, dict[int, int]]:
        """LD table between *sources* and the tag's targets."""
        return {
            source: self.ld_one_to_many(tag, source, arrive_by)
            for source in sources
        }

    def reachable_within(
        self, tag: str, source: int, depart_at: int, within_s: int
    ) -> dict[int, int]:
        """Range (isochrone) query: targets reachable within *within_s*
        seconds of *depart_at*, with their arrival times."""
        if within_s < 0:
            raise DatabaseError("within_s must be non-negative")
        deadline = depart_at + within_s
        return {
            v: arrival
            for v, arrival in self.ea_one_to_many(tag, source, depart_at).items()
            if arrival <= deadline
        }

    # ------------------------------------------------------------------
    # Analytics queries (repro.ptldb.analytics): scan-shaped GROUP BY
    # aggregation over the raw timetable tables.
    # ------------------------------------------------------------------
    def busiest_hubs(self, k: int) -> list[tuple[int, int, int, int]]:
        """Top-*k* departure hubs: ``(stop, departures, first, last)``."""
        return list(self._exec(sqltext.ANALYTICS_BUSIEST_HUBS, (k,)).rows)

    def route_trip_stats(self) -> list[tuple[int, int, int, int]]:
        """Per-route ``(route, trips, first_dep, last_arr)``."""
        return list(self._exec(sqltext.ANALYTICS_ROUTE_TRIPS, ()).rows)

    def hourly_departures(
        self, interval_s: int = DEFAULT_INTERVAL_S
    ) -> list[tuple[int, int]]:
        """Departures per *interval_s*-second bucket: ``(bucket, count)``."""
        return list(self._exec(sqltext.ANALYTICS_HOURLY_LOAD, (interval_s,)).rows)

    def route_leg_volume(self) -> list[tuple[int, int, float]]:
        """Per-route ``(route, total_legs, avg_legs)``."""
        return list(self._exec(sqltext.ANALYTICS_ROUTE_LEGS, ()).rows)

    def network_span(self) -> tuple[int, int | None, int | None]:
        """``(arc_count, first_departure, last_arrival)`` of the network."""
        return self._exec(sqltext.ANALYTICS_NETWORK_SPAN, ()).rows[0]


class PTLDB(_QueryAPI):
    """Public Transportation Labels on the DataBase."""

    def __init__(
        self,
        db: Database,
        labels: TTLLabels,
        time_range: tuple[int, int] | None = None,
    ):
        self.db = db
        self.labels = labels
        self.num_stops = labels.num_stops
        #: ``time_range`` override: a label *shard* must clamp kNN/OTM hours
        #: against the full timetable's range, not its own subset's, or its
        #: aux tables would disagree with the single-process reference.
        if time_range is not None:
            self.time_low, self.time_high = time_range
        else:
            self.time_low, self.time_high = label_time_range(labels)
        self._handles: dict[str, TargetSetHandle] = {}
        load_labels(db, labels)
        # Every query family runs through a prepared statement: the vertex-
        # to-vertex texts are known up front, the per-target-set texts are
        # prepared on first use. Repeat queries hit the engine's plan cache
        # and skip parse/analyze/plan entirely.
        self._prepared: dict[str, object] = {}
        for sql in (sqltext.V2V_EA, sqltext.V2V_LD, sqltext.V2V_SD):
            self._prepared[sql] = db.prepare(sql)

    @classmethod
    def attach(
        cls,
        db: Database,
        num_stops: int,
        time_range: tuple[int, int],
    ) -> "PTLDB":
        """Reattach to a database whose label tables are already loaded.

        The restart-without-re-ingest path: a worker that was killed reopens
        its shard file (``Database.open`` replays the WAL tail) and attaches
        here — no labels object, no ``load_labels``, just prepared handles
        over the persisted tables. ``num_stops``/``time_range`` come from
        the shard manifest. Target sets are re-registered with
        :meth:`attach_target_set`."""
        self = cls.__new__(cls)
        self.db = db
        self.labels = None
        self.num_stops = num_stops
        self.time_low, self.time_high = time_range
        self._handles = {}
        self._prepared = {}
        for sql in (sqltext.V2V_EA, sqltext.V2V_LD, sqltext.V2V_SD):
            self._prepared[sql] = db.prepare(sql)
        return self

    def _exec(self, sql: str, params: tuple):
        """Execute *sql* through its (lazily created) prepared statement."""
        stmt = self._prepared.get(sql)
        if stmt is None:
            stmt = self._prepared[sql] = self.db.prepare(sql)
        return stmt.execute(params)

    # ------------------------------------------------------------------
    @classmethod
    def from_timetable(
        cls,
        timetable: Timetable,
        device: str = "ram",
        pool_pages: int = 4096,
        ordering: str = "event_degree",
        labels: TTLLabels | None = None,
        workers: int = 1,
        cache_dir: str | None = None,
    ) -> "PTLDB":
        """Preprocess (unless labels are given) and load into a fresh DB.

        ``workers`` > 1 runs the profile scans of TTL preprocessing on a
        process pool and ``cache_dir`` reuses previously saved labels keyed
        by the dataset digest (docs/PREPROCESSING.md) — both only matter
        when *labels* is not given."""
        if labels is None:
            labels, _, _ = load_or_build(
                timetable,
                cache_dir=cache_dir,
                ordering=ordering,
                workers=workers,
            )
        db = Database(device=device, pool_pages=pool_pages)
        self = cls(db, labels)
        # The analytics family needs the raw timetable alongside the
        # labels; this path has it, so the tables always ship together
        # (:meth:`attach` reopens persisted tables and skips the load).
        from repro.ptldb.analytics import load_analytics

        load_analytics(db, timetable)
        return self

    def restart(self) -> None:
        """Cold-cache restart (the paper's pre-experiment server restart)."""
        self.db.restart()

    @property
    def last_trace(self):
        """Per-operator :class:`~repro.minidb.metrics.QueryTrace` of the
        most recent SQL statement any query method executed."""
        return self.db.last_trace

    def explain_analyze(self, sql: str, params: tuple = ()) -> list[str]:
        """Annotated plan lines for *sql* (runs the statement once)."""
        return [row[0] for row in self.db.execute("EXPLAIN ANALYZE " + sql, params)]

    def client(self, tracing: bool | None = None) -> "PTLDBClient":
        """Open a per-thread query client over this framework's database.

        Each client runs on its own :class:`~repro.minidb.session.Session`
        (private prepared handles, cost and trace), while target sets, the
        plan cache and the buffer pool stay shared — the paper's Figure 6
        multi-client serving setup."""
        return PTLDBClient(self, tracing=tracing)

    # ------------------------------------------------------------------
    # Target sets and auxiliary tables
    # ------------------------------------------------------------------
    def build_target_set(
        self,
        tag: str,
        targets,
        kmax: int = 16,
        interval_s: int = DEFAULT_INTERVAL_S,
        families: tuple[str, ...] = ("knn_ea", "knn_ld", "otm_ea", "otm_ld"),
    ) -> TargetSetHandle:
        """Register a target set and build the requested table families.

        Families: ``knn_ea``, ``knn_ld``, ``otm_ea``, ``otm_ld``,
        ``naive_ea``, ``naive_ld``. The paper builds one table per (D, kmax)
        configuration; use a distinct *tag* per configuration here.
        """
        targets = frozenset(int(t) for t in targets)
        for t in targets:
            self._check_stop(t)
        if not tag.isidentifier():
            raise DatabaseError(f"tag {tag!r} must be a valid identifier")
        low_hour = self.time_low // interval_s
        high_hour = self.time_high // interval_s
        targets_table = aux_mod.create_targets_table(self.db, tag, targets)
        hours_table = aux_mod.create_hours_table(self.db, tag, low_hour, high_hour)
        handle = TargetSetHandle(
            aux=aux_mod.AuxTables(
                tag=tag,
                targets_table=targets_table,
                hours_table=hours_table,
                kmax=kmax,
                interval_s=interval_s,
                low_hour=low_hour,
                high_hour=high_hour,
            ),
            targets=targets,
        )
        self._handles[tag] = handle
        builders = {
            "knn_ea": aux_mod.build_knn_ea,
            "knn_ld": aux_mod.build_knn_ld,
            "otm_ea": aux_mod.build_otm_ea,
            "otm_ld": aux_mod.build_otm_ld,
            "naive_ea": aux_mod.build_naive_ea,
            "naive_ld": aux_mod.build_naive_ld,
        }
        for family in families:
            if family not in builders:
                raise DatabaseError(
                    f"unknown family {family!r}; choose from {sorted(builders)}"
                )
            started = time.perf_counter()
            builders[family](self.db, handle.aux)
            handle.build_seconds[family] = time.perf_counter() - started
            handle.built.add(family)
        self.db.pool.flush()
        return handle

    def attach_target_set(
        self,
        tag: str,
        kmax: int = 16,
        interval_s: int = DEFAULT_INTERVAL_S,
        families: tuple[str, ...] = ("knn_ea", "knn_ld", "otm_ea", "otm_ld"),
        targets=(),
    ) -> TargetSetHandle:
        """Re-register a target set whose aux tables already exist.

        The durable half of :meth:`build_target_set`: after a worker restart
        the aux tables are recovered from the database file (WAL replay),
        but the in-memory handle registry is gone — this rebuilds the handle
        from the manifest parameters without touching a single label row.
        """
        if not tag.isidentifier():
            raise DatabaseError(f"tag {tag!r} must be a valid identifier")
        handle = TargetSetHandle(
            aux=aux_mod.AuxTables(
                tag=tag,
                targets_table=f"tgt_{tag}",
                hours_table=f"hours_{tag}",
                kmax=kmax,
                interval_s=interval_s,
                low_hour=self.time_low // interval_s,
                high_hour=self.time_high // interval_s,
            ),
            targets=frozenset(int(t) for t in targets),
        )
        handle.built.update(families)
        self._handles[tag] = handle
        return handle

    def handle(self, tag: str) -> TargetSetHandle:
        try:
            return self._handles[tag]
        except KeyError:
            raise DatabaseError(
                f"no target set {tag!r}; call build_target_set first"
            ) from None

    # ------------------------------------------------------------------
    def storage_report(self) -> dict:
        """Table/page statistics (the paper's §4.3 footprint discussion)."""
        return {
            "tables": self.db.table_stats(),
            "total_pages": self.db.total_pages(),
            "total_bytes": self.db.size_bytes(),
        }

    def _require(self, tag: str, family: str) -> TargetSetHandle:
        handle = self.handle(tag)
        if family not in handle.built:
            raise DatabaseError(
                f"target set {tag!r} was built without family {family!r}"
            )
        return handle

    def _check_stop(self, stop: int) -> None:
        if not 0 <= stop < self.num_stops:
            raise DatabaseError(
                f"stop {stop} out of range [0, {self.num_stops})"
            )


class PTLDBClient(_QueryAPI):
    """One serving thread's connection to a shared :class:`PTLDB`.

    Runs the full query API on a private minidb session: prepared handles,
    ``last_cost`` and ``last_trace`` belong to this client alone, so N
    clients can serve queries concurrently without trampling each other's
    observability. Target sets registered on the parent are visible here.
    """

    def __init__(self, ptldb: PTLDB, tracing: bool | None = None):
        self.ptldb = ptldb
        self.db = ptldb.db
        self.session = ptldb.db.session(tracing=tracing)
        self.num_stops = ptldb.num_stops
        self._prepared: dict[str, object] = {}

    def _exec(self, sql: str, params: tuple):
        stmt = self._prepared.get(sql)
        if stmt is None:
            stmt = self._prepared[sql] = self.session.prepare(sql)
        return stmt.execute(params)

    def handle(self, tag: str) -> TargetSetHandle:
        return self.ptldb.handle(tag)

    def _require(self, tag: str, family: str) -> TargetSetHandle:
        return self.ptldb._require(tag, family)

    def _check_stop(self, stop: int) -> None:
        self.ptldb._check_stop(stop)

    @property
    def last_trace(self):
        """Per-operator trace of this client's most recent statement."""
        return self.session.last_trace

    @property
    def last_cost(self):
        """I/O cost of this client's most recent statement."""
        return self.session.last_cost
