"""Tests for the observability layer: traces, EXPLAIN ANALYZE, registry.

The attribution invariant under test is the one the bench harness depends
on: per-operator exclusive counters sum to the statement totals, so a
stage breakdown never under- or over-reports the pool activity.
"""

from functools import partial

import pytest

from repro.minidb import Database
from repro.minidb.metrics import (
    PAGES,
    ROWS,
    Counter,
    Histogram,
    MetricsRegistry,
    OperatorStats,
    QueryTrace,
    TraceCollector,
    render_plan,
)


@pytest.fixture()
def db():
    database = Database(device="hdd")
    database.execute("CREATE TABLE t (a BIGINT, b BIGINT, PRIMARY KEY (a))")
    for i in range(300):
        database.execute("INSERT INTO t VALUES ($1, $2)", (i, i * 10))
    database.execute("CREATE TABLE u (a BIGINT, c BIGINT, PRIMARY KEY (a))")
    for i in range(50):
        database.execute("INSERT INTO u VALUES ($1, $2)", (i, i + 1000))
    return database


class TestTraceCollection:
    def test_every_select_has_a_trace(self, db):
        result = db.execute("SELECT b FROM t WHERE a = 7")
        assert result.trace is not None
        assert result.trace is db.last_trace
        assert result.trace.roots

    def test_operator_rows_and_labels(self, db):
        trace = db.execute("SELECT b FROM t WHERE a = 7").trace
        scans = trace.find("Index Scan")
        assert len(scans) == 1
        assert scans[0].rows == 1
        assert "t_pkey" in scans[0].detail

    def test_seq_scan_counts_all_rows(self, db):
        trace = db.execute("SELECT b FROM t WHERE b = 70").trace
        scans = trace.find("Seq Scan")
        assert len(scans) == 1
        assert scans[0].rows == 1  # rows after the pushed-down filter

    def test_misses_attributed_to_operators_sum_to_totals(self, db):
        db.restart()
        trace = db.execute("SELECT b FROM t WHERE b = 70").trace
        assert trace.pool_misses > 0
        inclusive = sum(root.pool_misses for root in trace.roots)
        assert inclusive == trace.pool_misses
        exclusive = sum(op.self_pool_misses for op in trace.operators())
        assert exclusive == trace.pool_misses
        assert sum(op.self_page_reads for op in trace.operators()) == (
            trace.page_reads
        )

    def test_io_ms_attribution(self, db):
        db.restart()
        trace = db.execute("SELECT b FROM t WHERE b = 70").trace
        assert trace.io_ms > 0
        exclusive = sum(op.self_io_ms for op in trace.operators())
        assert exclusive == pytest.approx(trace.io_ms)

    def test_join_trace_has_tree_structure(self, db):
        db.restart()
        trace = db.execute(
            "SELECT u.c FROM (SELECT a FROM t WHERE a < 5) s, u WHERE u.a = s.a"
        ).trace
        inl = trace.find("Index Nested Loop")
        assert len(inl) == 1
        assert inl[0].rows == 5
        assert inl[0].loops == 5  # one probe per derived row
        assert trace.validate() == []

    def test_stage_totals_cover_everything(self, db):
        db.restart()
        trace = db.execute("SELECT COUNT(*) FROM t").trace
        stages = trace.stage_totals()
        assert "Seq Scan" in stages and "Aggregate" in stages
        assert sum(s["pool_misses"] for s in stages.values()) == trace.pool_misses
        assert sum(s["io_ms"] for s in stages.values()) == pytest.approx(
            trace.io_ms
        )

    def test_tracing_can_be_disabled(self, db):
        db.tracing = False
        result = db.execute("SELECT b FROM t WHERE a = 7")
        assert result.trace is None
        assert db.last_cost is not None  # coarse accounting still works

    def test_dml_traces(self, db):
        trace = db.execute("UPDATE t SET b = 0 WHERE a < 3").trace
        ops = trace.find("Update")
        assert len(ops) == 1 and ops[0].rows == 3
        trace = db.execute("DELETE FROM t WHERE a < 3").trace
        assert trace.find("Delete")[0].rows == 3

    def test_a_held_trace_is_a_snapshot(self, db):
        """A trace held unread from a prepared handle's first execution
        reads the same after more executions of that handle (one cached
        plan, other parameters, cold and warm) as its twin read at once."""
        sql = (
            "WITH c AS (SELECT b FROM t WHERE a = $1) "
            "SELECT c.b, u.c FROM c, u WHERE u.a = c.b / 100"
        )

        def counters(trace):
            return [
                (op.label, op.rows, op.loops, op.pulls, op.pool_hits,
                 op.pool_misses, op.page_reads, op.io_ms)
                for op in trace.operators()
            ]

        db.restart()
        expected = counters(db.execute(sql, (250,)).trace)
        db.restart()
        stmt = db.prepare(sql)
        held = stmt.execute((250,)).trace
        for a in (3, 120, 250, 299, 7):
            if a % 2:
                db.restart()
            assert stmt.execute((a,)).trace is not held
        assert counters(held) == expected
        assert held.validate() == []
        times = [op.time_ms for op in held.operators()]
        stmt.execute((5,))
        assert [op.time_ms for op in held.operators()] == times

    @pytest.mark.parametrize(
        "sql, shape",
        [
            (
                "SELECT x FROM (WITH c AS (SELECT 1 AS x) SELECT x FROM c) s LIMIT 0",
                ["Limit", "  Project", "    Subquery Scan s"],
            ),
            (
                "SELECT a FROM t UNION ALL (WITH c AS (SELECT 1 AS a) SELECT a FROM c) "
                "LIMIT 1",
                ["Limit", "  Union All", "    Project", "      Seq Scan on t"],
            ),
            (
                "SELECT a FROM t UNION ALL "
                "SELECT x FROM (WITH c AS (SELECT 1 AS x) SELECT x FROM c) s LIMIT 1",
                ["Limit", "  Union All", "    Project", "      Seq Scan on t",
                 "    Project", "      Subquery Scan s"],
            ),
        ],
    )
    def test_a_with_query_never_pulled_is_left_out(self, db, sql, shape):
        """A nested WITH query that nothing pulls materializes no CTE: its
        CTE nodes and its operators are not in the trace, whether the run
        lays the plan's trace out (the first two) or reuses its layout."""
        for _ in range(3):
            trace = db.execute(sql).trace
            assert trace.validate() == []
            assert render_plan(trace.roots) == shape
            plan = [r[0] for r in db.execute("EXPLAIN ANALYZE " + sql)]
            assert [line.split(" (actual")[0] for line in plan] == shape

    def test_validate_flags_negative_counters(self):
        trace = QueryTrace(
            sql="SELECT 1",
            recorded=[OperatorStats(name="Seq Scan", rows=-1)],
        )
        assert any("negative rows" in p for p in trace.validate())
        assert QueryTrace(sql="SELECT 1").validate() == ["trace has no operators"]


class TestExplainAnalyze:
    def test_plain_explain_has_no_actuals(self, db):
        plan = [r[0] for r in db.execute("EXPLAIN SELECT b FROM t WHERE a = 1")]
        assert any("Index Scan" in line for line in plan)
        assert not any("actual rows=" in line for line in plan)

    def test_analyze_reports_rows_and_buffers(self, db):
        db.restart()
        plan = [
            r[0]
            for r in db.execute("EXPLAIN ANALYZE SELECT b FROM t WHERE a = 1")
        ]
        scan_lines = [line for line in plan if "Index Scan" in line]
        assert len(scan_lines) == 1
        assert "actual rows=1" in scan_lines[0]
        assert "misses=" in scan_lines[0]
        # cold run: the lookup's misses appear on the scan line itself
        assert "misses=0" not in scan_lines[0]

    def test_analyze_tree_is_indented(self, db):
        plan = [
            r[0]
            for r in db.execute(
                "EXPLAIN ANALYZE WITH s AS (SELECT a FROM t WHERE a < 5) "
                "SELECT u.c FROM s, u WHERE u.a = s.a"
            )
        ]
        cte_children = [
            line for line in plan if line.startswith("  ") and "Seq Scan" in line
        ]
        assert cte_children, f"expected an indented child line in {plan}"

    def test_analyze_insert_select_nests_source_under_insert(self, db):
        db.execute("CREATE TABLE v (a BIGINT, rn BIGINT, PRIMARY KEY (a))")
        db.restart()
        sql = (
            "INSERT INTO v WITH s AS (SELECT a FROM t WHERE a < 40) "
            "SELECT a, ROW_NUMBER() OVER (ORDER BY a DESC) FROM s"
        )
        plan = [r[0] for r in db.execute("EXPLAIN ANALYZE " + sql)]
        assert plan[0].startswith("Insert on v (actual rows=40 ")
        assert all(line.startswith("  ") for line in plan[1:])
        assert any("CTE s" in line for line in plan)
        assert any("WindowAgg" in line and "(batch: pulls=1" in line for line in plan)
        # Static EXPLAIN renders the same shape without running anything.
        static = [r[0] for r in db.execute("EXPLAIN " + sql)]
        assert [line.split(" (actual")[0] for line in plan] == static
        db.execute("DELETE FROM v")
        db.restart()
        trace = db.execute(sql).trace
        assert trace.validate() == []
        (insert,) = trace.roots
        assert insert.name == "Insert" and insert.rows == 40
        # The source's cold reads are charged to its subtree, inclusively.
        assert 0 < sum(c.page_reads for c in insert.children) <= insert.page_reads
        assert db.pool.total_pins() == 0

    def test_trace_collector_nests(self):
        collector = TraceCollector()
        outer = collector.node(("Outer", ""))
        inner = collector.node(("Inner", "detail"), outer, PAGES)
        collector.buf[inner + ROWS] = 3
        collector.window(outer, partial(collector.window, inner, lambda: None))
        (root,) = collector.tree()
        assert root.name == "Outer" and root.rows == 0
        (child,) = root.children
        assert child.label == "Inner detail" and child.rows == 3
        assert root.time_ms >= child.time_ms > 0


class TestRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("q").inc()
        registry.counter("q").inc(2)
        registry.histogram("ms").observe(1.0)
        registry.histogram("ms").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["q"] == 3
        assert snap["histograms"]["ms"]["count"] == 2
        assert snap["histograms"]["ms"]["mean"] == 2.0
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "histograms": {}}

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_histogram_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(95) == 95
        assert Histogram("empty").percentile(50) == 0.0


class TestHistogramIsBounded:
    """A histogram is aggregates, not samples: a worker that observes one
    request time per request must not grow — in memory or in its ``metrics``
    frame — with its uptime."""

    @staticmethod
    def _stream(seed, n):
        import math
        import random

        rng = random.Random(seed)
        low, high = math.log(0.02), math.log(900.0)
        return [math.exp(rng.uniform(low, high)) for _ in range(n)]

    @staticmethod
    def _footprint(registry):
        import json
        import sys

        histogram = registry.histogram("request_ms")
        state = sys.getsizeof(histogram.buckets) + sum(
            sys.getsizeof(v) for v in vars(histogram).values()
        )
        return state, len(json.dumps(registry.to_dict()))

    def test_a_million_observations_leave_state_and_frame_constant(self):
        registry = MetricsRegistry()
        observe = registry.histogram("request_ms").observe
        values = self._stream(3, 50_000)
        for value in values:
            observe(value)
        state, frame = self._footprint(registry)
        for _ in range(19):  # 950,000 more of the same distribution
            for value in values:
                observe(value)
        assert registry.histogram("request_ms").count == 1_000_000
        state_after, frame_after = self._footprint(registry)
        assert state_after == state
        # Only the digits of the counts grow: a frame of 20x the requests
        # is not 1.2x the bytes (raw samples made it 20x).
        assert frame_after < frame * 1.2
        assert frame_after < 64 * 1024

    def test_percentiles_are_the_samples_to_bucket_resolution(self):
        import math

        values = sorted(self._stream(5, 20_000))
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        for p in (0, 1, 25, 50, 90, 95, 99, 99.9, 100):
            exact = values[max(1, math.ceil(p / 100 * len(values))) - 1]
            assert exact * (1 - 1 / 64) <= histogram.percentile(p) <= exact, p
        assert histogram.percentile(0) == values[0]
        assert histogram.percentile(100) == values[-1]
        snap = histogram.snapshot()
        assert set(snap) == {"count", "total", "mean", "p50", "p95", "max"}
        assert snap["max"] == round(values[-1], 3)
        assert snap["mean"] == round(sum(values) / len(values), 3)

    def test_merged_registries_equal_one_fed_both_streams(self):
        import json

        a, b = self._stream(7, 5_000), self._stream(8, 7_000)
        one, left, right = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for registry, stream in ((left, a), (right, b), (one, a), (one, b)):
            for value in stream:
                registry.histogram("request_ms").observe(value)
                registry.counter("requests").inc()
        merged = MetricsRegistry()
        # Across the pipe, as the router receives them.
        merged.merge(json.loads(json.dumps(left.to_dict())))
        merged.merge(json.loads(json.dumps(right.to_dict())))
        got, want = merged.to_dict(), one.to_dict()
        assert got["counters"] == want["counters"]
        got, want = got["histograms"]["request_ms"], want["histograms"]["request_ms"]
        assert got.pop("total") == pytest.approx(want.pop("total"))
        assert json.loads(json.dumps(got)) == json.loads(json.dumps(want))
        for p in (1, 50, 95, 99):
            assert merged.histogram("request_ms").percentile(p) == one.histogram(
                "request_ms"
            ).percentile(p)

    def test_zero_negative_and_out_of_range_values_are_counted(self):
        histogram = Histogram("h")
        for value in (0, -3, 1e-12, 1e30):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.percentile(0) == -3 and histogram.percentile(100) == 1e30
        assert len(histogram.buckets) == 3


class TestRegistryThreadSafety:
    """Racing increments must not be lost (intra-query workers share one
    registry, so an unlocked read-modify-write would drop counts)."""

    THREADS = 8
    ITERATIONS = 2000

    def _hammer(self, fn):
        import threading

        barrier = threading.Barrier(self.THREADS)
        errors = []

        def work():
            try:
                barrier.wait()
                for _ in range(self.ITERATIONS):
                    fn()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        self._hammer(lambda: registry.counter("hot").inc())
        assert registry.counter("hot").value == self.THREADS * self.ITERATIONS

    def test_histogram_observations_are_not_lost(self):
        registry = MetricsRegistry()
        self._hammer(lambda: registry.histogram("hot").observe(1.0))
        assert (
            registry.histogram("hot").count == self.THREADS * self.ITERATIONS
        )

    def test_racing_creation_yields_one_instance(self):
        registry = MetricsRegistry()
        seen = []
        self._hammer(lambda: seen.append(registry.counter("fresh")))
        assert len({id(c) for c in seen}) == 1


class TestClearResetsStats:
    def test_clear_resets_pool_and_disk_counters(self, db):
        db.execute("SELECT COUNT(*) FROM t")
        db.restart()
        db.execute("SELECT COUNT(*) FROM t")  # warm up again
        assert db.pool.stats.accesses > 0
        db.pool.clear()
        assert db.pool.stats.hits == 0
        assert db.pool.stats.misses == 0
        assert db.disk.stats.reads == 0
        assert db.disk.stats.simulated_read_ms == 0.0

    def test_cold_deltas_cannot_mix_warm_runs(self, db):
        db.execute("SELECT COUNT(*) FROM t")  # warm activity
        db.restart()
        db.execute("SELECT COUNT(*) FROM t")
        # after a restart, the global counters describe the cold run only
        assert db.disk.stats.reads == db.last_cost.page_reads
        assert db.pool.stats.misses == db.last_cost.pool_misses
