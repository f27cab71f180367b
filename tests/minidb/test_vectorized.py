"""Tests for the batch (vectorized) executor, readahead and executemany.

The batch executor must be indistinguishable from the row-at-a-time
reference model in everything except CPU time: same columns, same rows,
same page reads, same pool misses. These tests run a corpus of statements
on both (``tests/minidb/reference.py``) and diff all of that, then poke
the edges the fused kernels have to get right (empty arrays, NULL hub
lists, over-long slices, single-row batches).
"""

import pytest

from repro.minidb.disk import DiskManager, hdd_model
from repro.minidb.engine import Database
from repro.minidb.sql import npbatch
from repro.minidb.sql.vectorized import NP_AGG_MIN
from tests.minidb.reference import run_engine, run_reference


def make_db() -> Database:
    db = Database(device="hdd")
    db.execute(
        "CREATE TABLE lab (v BIGINT, hubs BIGINT[], tds BIGINT[], tas BIGINT[], "
        "PRIMARY KEY (v))"
    )
    db.execute(
        "INSERT INTO lab VALUES "
        "(1, ARRAY[0, 1, 3], ARRAY[324, 330, 396], ARRAY[360, 342, 420]), "
        "(2, ARRAY[0, 2, 3], ARRAY[324, 348, 390], ARRAY[366, 360, 402]), "
        "(3, NULL, NULL, NULL), "
        "(4, ARRAY[], ARRAY[], ARRAY[]), "
        "(5, ARRAY[1], ARRAY[300], ARRAY[312])"
    )
    db.execute("CREATE TABLE t (v BIGINT, w BIGINT, PRIMARY KEY (v))")
    # Large enough to span several heap pages, so scans exercise readahead.
    db.executemany(
        "INSERT INTO t VALUES ($1, $2)", [(i, i * 7 % 50) for i in range(1200)]
    )
    return db


# Statements covering every batch emitter: scans, filter+project fusion,
# UNNEST expansion, slices, hub-intersection joins, aggregates, Top-K,
# LIMIT/OFFSET, DISTINCT, UNION and CTE/subquery plumbing.
CORPUS = [
    ("SELECT v, w FROM t", ()),
    ("SELECT v + w FROM t WHERE v % 3 = 0 AND w > 10", ()),
    ("SELECT w FROM t WHERE v = $1", (17,)),
    ("SELECT UNNEST(hubs) AS h, UNNEST(tas) AS ta FROM lab", ()),
    ("SELECT v, UNNEST(hubs) FROM lab WHERE v <> 3", ()),
    ("SELECT hubs[1:2], FLOOR(v / 2) FROM lab", ()),
    (
        "SELECT a.v, b.v FROM lab a JOIN lab b ON a.v = b.v WHERE a.v < 3",
        (),
    ),
    (
        "SELECT l.v, MIN(r.ta - l.td) FROM "
        "(SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td FROM lab) l "
        "JOIN (SELECT v, UNNEST(hubs) AS hub, UNNEST(tas) AS ta FROM lab) r "
        "ON l.hub = r.hub GROUP BY l.v ORDER BY l.v",
        (),
    ),
    ("SELECT COUNT(*), MIN(w), MAX(w), SUM(v), AVG(w) FROM t", ()),
    ("SELECT v % 5, COUNT(*) FROM t GROUP BY v % 5 ORDER BY v % 5", ()),
    ("SELECT v, w FROM t ORDER BY w, v LIMIT 7", ()),
    ("SELECT v, w FROM t ORDER BY w DESC, v LIMIT 5 OFFSET 3", ()),
    ("SELECT v FROM t WHERE w > 25 LIMIT 4", ()),
    ("SELECT v FROM t LIMIT 3 OFFSET 290", ()),
    ("SELECT DISTINCT w FROM t ORDER BY w", ()),
    ("SELECT v FROM lab UNION SELECT w FROM t WHERE w < 4", ()),
    ("SELECT v FROM lab UNION ALL SELECT v FROM lab ORDER BY v", ()),
    (
        "WITH small AS (SELECT v, w FROM t WHERE v < 40) "
        "SELECT s.v, s.w FROM small s WHERE s.w % 2 = 0 ORDER BY s.v",
        (),
    ),
    ("SELECT COUNT(*) FROM t WHERE v > 5000", ()),  # empty input to aggregate
]


class TestRowBatchEquivalence:
    @pytest.fixture(scope="class")
    def db(self):
        return make_db()

    @pytest.mark.parametrize("sql,params", CORPUS, ids=[c[0][:40] for c in CORPUS])
    def test_rows_and_page_io_identical(self, db, sql, params):
        assert run_engine(db, sql, params) == run_reference(db, sql, params)
        assert db.pool.total_pins() == 0

    def test_batch_mode_used_for_corpus(self, db):
        result = db.execute("SELECT v FROM t WHERE v < 5")
        ops = result.trace.find("Seq Scan")
        assert ops and ops[0].pulls > 0  # batch accounting actually engaged

    def test_columns_match_row_path(self, db):
        sql = "SELECT v AS a, w AS b FROM t LIMIT 1"
        batch, row = run_engine(db, sql), run_reference(db, sql)
        assert batch.columns == row.columns == ["a", "b"]


class TestKernelEdgeCases:
    @pytest.fixture()
    def db(self):
        return make_db()

    def test_unnest_empty_and_null_arrays(self, db):
        for sql in (
            "SELECT UNNEST(hubs) FROM lab WHERE v = 3",  # NULL hub list
            "SELECT UNNEST(hubs) FROM lab WHERE v = 4",  # empty array
        ):
            assert run_engine(db, sql).rows == run_reference(db, sql).rows == []

    def test_slice_longer_than_array(self, db):
        sql = "SELECT hubs[1:9] FROM lab ORDER BY v"
        batch_rows = run_engine(db, sql).rows
        assert batch_rows == run_reference(db, sql).rows
        assert batch_rows[0] == ([0, 1, 3],)  # clamped, not padded
        assert batch_rows[2] == (None,)  # slice of NULL stays NULL

    def test_unequal_srf_lengths_pad_with_null(self, db):
        db.execute("INSERT INTO lab VALUES (6, ARRAY[7], ARRAY[1, 2], ARRAY[3])")
        sql = "SELECT UNNEST(hubs), UNNEST(tds) FROM lab WHERE v = 6"
        expected = [(7, 1), (None, 2)]
        assert run_engine(db, sql).rows == run_reference(db, sql).rows == expected

    @pytest.mark.parametrize("batch_size", [1, 2, 1024])
    def test_tiny_batches_identical(self, batch_size):
        db = make_db()
        db.batch_size = batch_size
        for sql, params in CORPUS:
            assert run_engine(db, sql, params) == run_reference(db, sql, params), sql

    @pytest.mark.parametrize("rows", [NP_AGG_MIN - 1, NP_AGG_MIN])
    def test_a_row_batch_takes_the_kernel_from_np_agg_min_rows(
        self, db, monkeypatch, rows
    ):
        """A row batch shorter than ``NP_AGG_MIN`` folds through the
        accumulators; from ``NP_AGG_MIN`` rows it is converted for
        ``group_aggregate``. Rows and page I/O are the same either way."""
        calls = []
        kernel = npbatch.group_aggregate
        monkeypatch.setattr(
            npbatch, "group_aggregate", lambda *a: calls.append(a) or kernel(*a)
        )
        sql = (
            "SELECT w, MIN(v), COUNT(*) FROM "
            f"(SELECT v, w FROM t WHERE v < {rows} ORDER BY v) s "
            "GROUP BY w ORDER BY w"
        )
        assert run_engine(db, sql) == run_reference(db, sql)
        assert len(calls) == (rows >= NP_AGG_MIN)

    def test_window_plan_runs_on_batch_engine(self, db):
        result = db.execute(
            "SELECT v, ROW_NUMBER() OVER (ORDER BY v DESC) AS rn "
            "FROM t WHERE v < 4"
        )
        assert result.rows == [(0, 4), (1, 3), (2, 2), (3, 1)]
        assert result.trace.find("WindowAgg")[0].pulls > 0


class TestPinRelease:
    def test_limit_over_multipage_scan_leaves_no_pins(self):
        # run_reference asserts the reference model's pins are back too.
        db = make_db()
        sql = "SELECT v FROM t LIMIT 1"
        assert run_engine(db, sql).rows == run_reference(db, sql).rows == [(0,)]
        assert db.pool.total_pins() == 0

    def test_topk_over_multipage_scan_leaves_no_pins(self):
        db = make_db()
        sql = "SELECT v FROM t ORDER BY w LIMIT 2"
        assert run_engine(db, sql) == run_reference(db, sql)
        assert db.pool.total_pins() == 0


class TestReadahead:
    def test_read_run_charges_one_seek_per_batch(self):
        disk = DiskManager(device=hdd_model())
        for _ in range(6):
            disk.allocate()
        disk.read_run([2, 3, 5])  # gap: elevator pass, still one run
        assert disk.stats.reads == 3
        assert disk.stats.sequential_reads == 2
        model = hdd_model()
        assert disk.stats.simulated_read_ms == pytest.approx(
            model.random_read_ms + 2 * model.sequential_read_ms
        )
        disk.read_run([4])  # 4 < last page 5: a new seek, not sequential
        assert disk.stats.sequential_reads == 2

    def test_prefetch_counts_misses_not_hits(self):
        db = make_db()
        db.restart()
        table = db.catalog.get("t")
        before = db.pool.stats.snapshot()
        rows = sum(1 for _ in table.scan(readahead=4))
        assert rows == 1200
        delta = db.pool.stats.delta(before)
        assert delta.misses > 0
        # Prefetch already brought the pages in; re-scan is all hits.
        again = db.pool.stats.snapshot()
        sum(1 for _ in table.scan(readahead=4))
        delta2 = db.pool.stats.delta(again)
        assert delta2.misses == 0

    def test_heap_scan_under_readahead_is_mostly_sequential(self):
        db = make_db()
        db.restart()
        before = db.disk.stats.snapshot()
        db.execute("SELECT COUNT(*) FROM t")
        delta = db.disk.stats.delta(before)
        assert delta.reads >= 2  # genuinely multi-page
        # Every read past each prefetch batch's first page is sequential, and
        # consecutive batches extend the same run: at most one random read
        # per scan start, so sequential reads dominate.
        assert delta.sequential_reads >= delta.reads - 2

    def test_readahead_does_not_change_misses_or_results(self):
        slow, fast = make_db(), make_db()
        slow.readahead, fast.readahead = 0, 8
        for db in (slow, fast):
            db.restart()
        q = "SELECT SUM(w) FROM t"
        assert slow.execute(q).scalar() == fast.execute(q).scalar()
        assert slow.last_cost.page_reads == fast.last_cost.page_reads
        assert slow.last_cost.pool_misses == fast.last_cost.pool_misses
        # ... but the simulated latency is cheaper with readahead on HDD.
        assert fast.last_cost.simulated_io_ms <= slow.last_cost.simulated_io_ms

    def test_readahead_scan_faster_than_row_scan_on_hdd(self):
        db = make_db()
        table = db.catalog.get("t")
        io_ms = {}
        for readahead in (0, db.readahead):  # page-at-a-time vs prefetched
            db.restart()
            before = db.disk.stats.snapshot()
            assert sum(1 for _ in table.scan(readahead=readahead)) == 1200
            io_ms[readahead] = db.disk.stats.delta(before).simulated_read_ms
        assert io_ms[db.readahead] <= io_ms[0]


class TestExecuteMany:
    """``executemany``: the batch runs in one statement envelope."""

    INSERT = "INSERT INTO t VALUES ($1, $2)"

    def test_results_match_individual_executes(self):
        batched, single = make_db(), make_db()
        param_rows = [(i, i % 9) for i in range(2000, 2040, 3)]
        assert batched.executemany(self.INSERT, param_rows) == len(param_rows)
        for params in param_rows:
            single.execute(self.INSERT, params)
        sql = "SELECT v, w FROM t WHERE v >= 1990"
        assert batched.execute(sql).rows == single.execute(sql).rows
        assert batched.table_stats() == single.table_stats()

    def test_plan_cache_probed_once(self):
        db = make_db()
        db.execute(self.INSERT, (5000, 0))  # warm the cache
        hits_before = db.plan_cache_hits
        db.session().executemany(self.INSERT, [(5001 + i, i) for i in range(10)])
        assert db.plan_cache_hits == hits_before + 1

    def test_cost_aggregates_whole_batch(self):
        db = make_db()
        db.restart()
        session = db.session()
        assert session.executemany(self.INSERT, [(7001, 1), (7002, 2), (7003, 3)]) == 3
        assert session.last_cost is not None
        assert session.last_cost.page_reads > 0
        assert session.last_trace is None  # traces are a per-execute feature

    def test_empty_batch(self):
        db = make_db()
        assert db.executemany(self.INSERT, []) == 0
        assert not hasattr(db.prepare("SELECT v FROM t"), "execute_many")
        assert not hasattr(db.session(), "execute_many")


class TestBatchTraces:
    def test_batch_stats_recorded_and_valid(self):
        db = make_db()
        db.restart()
        trace = db.execute("SELECT v, w FROM t WHERE v % 2 = 0 LIMIT 10").trace
        assert trace is not None
        assert trace.validate() == []
        scans = trace.find("Seq Scan")
        assert scans and scans[0].pulls >= 1
        assert scans[0].rows_per_pull >= 1
        assert "pulls=" in scans[0].stats_suffix()

    def test_stage_totals_include_pulls(self):
        db = make_db()
        trace = db.execute("SELECT v FROM t WHERE v < 30").trace
        totals = trace.stage_totals()
        assert any(stage.get("pulls", 0) > 0 for stage in totals.values())
