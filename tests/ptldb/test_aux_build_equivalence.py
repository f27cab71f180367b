"""The aux-table builders on the engine vs the reference model.

``build_target_set`` fills knn_ea / knn_ld / otm_ea / otm_ld with one
``INSERT … SELECT … ROW_NUMBER() OVER`` statement each. Every one of those
statements must store exactly the rows the row-at-a-time reference model
computes for its source query, read the same pages doing so, and do both
under 1 and 4 parallel workers.
"""

import pytest

from repro.labeling.ttl import build_labels
from repro.ptldb import aux
from repro.ptldb.framework import PTLDB
from repro.timetable.generator import random_timetable
from tests.minidb.reference import run_reference

TABLES = ("knn_ea_aux", "knn_ld_aux", "otm_ea_aux", "otm_ld_aux")


@pytest.fixture(scope="module")
def network():
    timetable = random_timetable(18, 160, seed=11)
    labels, _ = build_labels(timetable, add_dummies=True)
    return timetable, labels


def build_recording(network, workers):
    """Build the target set with every ``INSERT … SELECT`` started cold.

    Returns the PTLDB and, per filled table, the statement text, its
    ``last_cost.page_reads``, the ``(page_reads, pool_misses)`` charged to
    the SELECT subtree under the trace's ``Insert`` node, and whether the
    source fanned out over worker threads.
    """
    timetable, labels = network
    ptldb = PTLDB.from_timetable(
        timetable,
        device="hdd",
        labels=labels,
        parallel_workers=workers,
    )
    db = ptldb.db
    real = db.execute
    builds = {}

    def recording(sql, params=(), analyze=None):
        words = sql.split()
        if words[:2] != ["INSERT", "INTO"] or "SELECT" not in words:
            return real(sql, params, analyze)
        db.restart()
        result = real(sql, params, analyze)
        (insert,) = db.last_trace.roots
        assert db.last_trace.validate() == []
        builds[words[2]] = {
            "sql": sql,
            "page_reads": db.last_cost.page_reads,
            "source_io": (
                sum(c.page_reads for c in insert.children),
                sum(c.pool_misses for c in insert.children),
            ),
            "fanned_out": db.last_parallel is not None,
        }
        return result

    db.execute = recording
    try:
        ptldb.build_target_set("aux", targets={1, 4, 9, 13, 16}, kmax=4)
    finally:
        del db.execute
    assert db.pool.total_pins() == 0
    return ptldb, builds


def table_rows(db, table):
    pk = ", ".join(db.catalog.get(table).schema.primary_key)
    return db.execute(f"SELECT * FROM {table} ORDER BY {pk}").rows


@pytest.fixture(scope="module", params=["columnar"])
def built(request, network):
    """Serial and 4-worker builds; the param is the one layout PTLDB
    gives the tables it fills."""
    serial = build_recording(network, workers=1)
    parallel = build_recording(network, workers=4)
    for ptldb, _ in (serial, parallel):
        stats = ptldb.db.table_stats()
        assert {stats[table]["storage"] for table in TABLES} == {request.param}
    yield serial, parallel
    serial[0].db.close()
    parallel[0].db.close()


@pytest.mark.parametrize("table", TABLES)
def test_table_matches_one_filled_from_reference_rows(built, table):
    (ptldb, builds), _ = built
    db = ptldb.db
    reference = run_reference(db, builds[table]["sql"])
    assert builds[table]["source_io"] == reference.io, (
        f"{table}: source page I/O diverges"
    )
    # Fill a twin table (same DDL) from the reference rows.
    twin = f"{table}_ref"
    ddl = aux.grouped_ea_ddl if "_ea_" in table else aux.grouped_ld_ddl
    db.execute(ddl(twin))
    slots = ", ".join(f"${i + 1}" for i in range(len(reference.columns)))
    db.executemany(f"INSERT INTO {twin} VALUES ({slots})", reference.rows)
    rows = table_rows(db, table)
    assert rows and rows == table_rows(db, twin)
    assert db.table_stats()[table]["data_bytes"] == (
        db.table_stats()[twin]["data_bytes"]
    )


@pytest.mark.parametrize("table", TABLES)
def test_parallel_build_is_identical(built, table):
    (serial, s_builds), (parallel, p_builds) = built
    assert table_rows(parallel.db, table) == table_rows(serial.db, table)
    s_build, p_build = s_builds[table], p_builds[table]
    assert p_build["fanned_out"] and not s_build["fanned_out"]
    for figure in ("page_reads", "source_io"):
        assert p_build[figure] == s_build[figure], (
            f"{table}: {figure} diverges between 1 and 4 workers"
        )
