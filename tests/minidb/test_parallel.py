"""Morsel-driven parallel executor: serial == parallel, exactly.

``Database(parallel_workers=N)`` is a pure optimization, so every query
must return byte-identical rows, read the same pages and miss the buffer
pool the same number of times as serial execution and as the row-at-a-time
reference model (``tests/minidb/reference.py``) — and the merged trace
(one ``Gather`` node whose children are the per-worker operator subtrees)
must satisfy every :meth:`QueryTrace.validate` invariant. These tests pin
that equivalence over the batch-emitter corpus plus the edges the fan-out
has to get right: tiny tables (stay serial), LIMIT-bounded plans (serial
fallback keeps page parity with the reference model), ``batch_size=1``,
``parallel_workers=1``, empty inputs, CTE-row morsels.
"""

import pytest

from repro.minidb.engine import Database
from tests.minidb.reference import run_engine, run_reference


def fill(db: Database, rows: int = 3000) -> None:
    db.execute(
        "CREATE TABLE t (id BIGINT, grp BIGINT, val BIGINT, PRIMARY KEY (id))"
    )
    db.executemany(
        "INSERT INTO t VALUES ($1, $2, $3)",
        [(i, i % 13, (i * 37) % 101) for i in range(rows)],
    )
    db.execute("CREATE TABLE empty_t (id BIGINT, x BIGINT, PRIMARY KEY (id))")


def make_db(**kwargs) -> Database:
    db = Database(device="ssd", pool_pages=512, **kwargs)
    fill(db)
    return db


# Every shape the gather has to reproduce: grouped aggregates on the array
# (vals) and accumulator (accs) merge paths, scalar aggregates incl. the
# empty-input default row, plain row regions under Sort/TopK/Distinct, CTE
# row-range morsels, joins above a region, and serial-fallback LIMIT plans.
CORPUS = [
    ("SELECT grp, COUNT(*), MIN(val), MAX(val) FROM t GROUP BY grp ORDER BY grp", ()),
    ("SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY COUNT(*) DESC, grp LIMIT 5", ()),
    ("SELECT grp, SUM(val), AVG(val) FROM t GROUP BY grp ORDER BY grp", ()),
    ("SELECT FLOOR(val/10), COUNT(*) FROM t GROUP BY FLOOR(val/10) ORDER BY FLOOR(val/10)", ()),
    ("SELECT COUNT(*), MIN(val), MAX(val), SUM(id), AVG(val) FROM t", ()),
    ("SELECT COUNT(*) FROM t WHERE val > $1", (50,)),
    ("SELECT MIN(val) FROM t WHERE grp = 999", ()),  # empty scalar input
    ("SELECT COUNT(*), MIN(x) FROM empty_t", ()),  # empty table
    ("SELECT id, val FROM t WHERE grp = 3 ORDER BY val DESC, id LIMIT 20", ()),
    ("SELECT id + val FROM t WHERE val % 2 = 0 ORDER BY id", ()),
    ("SELECT DISTINCT grp FROM t ORDER BY grp", ()),
    ("SELECT id FROM t WHERE val > 90 LIMIT 7", ()),  # hint: serial fallback
    (
        "WITH c AS (SELECT id, grp, val FROM t) "
        "SELECT grp, COUNT(*), MAX(val) FROM c GROUP BY grp ORDER BY grp",
        (),
    ),
    (
        "WITH c AS (SELECT id, val FROM t WHERE val < 60) "
        "SELECT id FROM c WHERE val % 3 = 0 ORDER BY id",
        (),
    ),
    (
        "SELECT a.grp, COUNT(*) FROM t a JOIN t b ON a.id = b.id "
        "WHERE a.val < 30 GROUP BY a.grp ORDER BY a.grp",
        (),
    ),
]


def run_cold(db: Database, sql: str, params=()):
    """One cold engine run plus the trace problems it left behind."""
    run = run_engine(db, sql, params)
    issues = db.last_trace.validate() if db.last_trace is not None else []
    return run, issues


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return make_db()

    @pytest.fixture(scope="class")
    def parallel(self):
        return make_db(parallel_workers=4)

    @pytest.mark.parametrize("sql,params", CORPUS, ids=[c[0][:48] for c in CORPUS])
    def test_rows_io_and_trace(self, serial, parallel, sql, params):
        s_run, s_issues = run_cold(serial, sql, params)
        p_run, p_issues = run_cold(parallel, sql, params)
        assert p_run.rows == s_run.rows, "parallel rows diverge from serial"
        assert p_run.io == s_run.io, "parallel page I/O diverges from serial"
        assert s_run == run_reference(serial, sql, params)
        assert s_issues == [] and p_issues == []
        assert parallel.pool.total_pins() == 0

    def test_parallel_plans_actually_fan_out(self, parallel):
        parallel.execute("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        par = parallel.last_parallel
        assert par is not None and par["workers"] > 1 and par["gathers"] >= 1
        assert par["makespan_ms"] >= par["critical_ms"]
        assert par["busy_ms"] >= par["critical_ms"]

    def test_gather_trace_shape(self, parallel):
        parallel.execute("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        gathers = parallel.last_trace.find("Gather")
        assert gathers, "parallel plan must trace a Gather node"
        gather = gathers[0]
        assert gather.workers == parallel.last_parallel["workers"]
        assert gather.children, "worker subtrees must hang off the Gather"

    def test_explain_analyze_reports_workers(self, parallel):
        rows = parallel.execute(
            "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t GROUP BY grp"
        ).rows
        text = "\n".join(line for (line,) in rows)
        assert "(parallel:" in text and "workers)" in text
        assert "Gather" in text

    def test_limit_hint_stays_serial(self, parallel):
        parallel.execute("SELECT id FROM t WHERE val > 90 LIMIT 7")
        assert parallel.last_parallel is None

    def test_serial_db_never_reports_parallel(self, serial):
        serial.execute("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert serial.last_parallel is None
        assert serial._worker_pool is None


class TestConfigurationEdges:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"parallel_workers": 1},
            {"parallel_workers": 4, "batch_size": 1},
            {"parallel_workers": 2},
        ],
        ids=["workers1", "batch1", "workers2"],
    )
    def test_matches_serial_reference(self, kwargs):
        reference = make_db()
        db = make_db(**kwargs)
        for sql, params in CORPUS:
            run, issues = run_cold(db, sql, params)
            assert run == run_engine(reference, sql, params), sql
            assert issues == [], sql
        db.close()
        reference.close()

    def test_workers_one_creates_no_pool(self):
        db = make_db(parallel_workers=1)
        db.execute("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert db._worker_pool is None
        assert db.last_parallel is None
        db.close()

    def test_tiny_table_stays_serial(self):
        db = Database(parallel_workers=4)
        db.execute("CREATE TABLE tiny (id BIGINT, x BIGINT, PRIMARY KEY (id))")
        db.executemany(
            "INSERT INTO tiny VALUES ($1, $2)", [(i, i) for i in range(10)]
        )
        rows = db.execute("SELECT COUNT(*), SUM(x) FROM tiny").rows
        assert rows == [(10, 45)]
        assert db.last_parallel is None  # below the morsel floor
        db.close()

    def test_close_shuts_worker_pool_down(self):
        db = make_db(parallel_workers=4)
        db.execute("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert db._worker_pool is not None
        db.close()
        assert db._worker_pool is None
        db.close()  # idempotent

    def test_dml_and_row_path_unaffected(self):
        db = make_db(parallel_workers=4)
        db.execute("UPDATE t SET val = val + 1 WHERE id < 10")
        assert db.last_parallel is None
        # The reference model ignores region annotations and the pool.
        assert run_reference(db, "SELECT COUNT(*) FROM t").rows == [(3000,)]
        db.close()

    def test_execute_many_folds_worker_io(self):
        # Worker-side page reads happen off the coordinator thread; the
        # batch cost must still account for them, matching serial exactly.
        sql = "SELECT grp, COUNT(*) FROM t WHERE val > $1 GROUP BY grp"
        batch = [(10,), (20,)]
        costs = {}
        rows = {}
        for workers in (1, 4):
            db = make_db(parallel_workers=workers)
            db.restart()
            session = db.session()
            results = session.execute_many(sql, batch)
            rows[workers] = [r.rows for r in results]
            costs[workers] = (
                session.last_cost.page_reads,
                session.last_cost.pool_misses,
            )
            db.close()
        assert rows[4] == rows[1] and rows[4][0]
        assert costs[4] == costs[1]
        assert costs[4][0] > 0
