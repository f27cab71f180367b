"""The aux-table builders on the engine vs the reference model.

``build_target_set`` fills knn_ea / knn_ld / otm_ea / otm_ld with one
``INSERT … SELECT … ROW_NUMBER() OVER`` statement each. Every one of those
statements must store exactly the rows the row-at-a-time reference model
computes for its source query, and read the same pages doing so.
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


def build_recording(network):
    """Build the target set with every ``INSERT … SELECT`` started cold.

    Returns the PTLDB and, per filled table, the statement text and the
    ``(page_reads, pool_misses)`` charged to the SELECT subtree under the
    trace's ``Insert`` node.
    """
    timetable, labels = network
    ptldb = PTLDB.from_timetable(timetable, device="hdd", labels=labels)
    db = ptldb.db
    real = db.execute
    builds = {}

    def recording(sql, params=()):
        words = sql.split()
        if words[:2] != ["INSERT", "INTO"] or "SELECT" not in words:
            return real(sql, params)
        db.restart()
        result = real(sql, params)
        (insert,) = db.last_trace.roots
        assert db.last_trace.validate() == []
        builds[words[2]] = {
            "sql": sql,
            "source_io": (
                sum(c.page_reads for c in insert.children),
                sum(c.pool_misses for c in insert.children),
            ),
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


# One record format: the param only keeps the suite's ``[columnar-…]`` ids.
@pytest.fixture(scope="module", params=["columnar"])
def built(network):
    """One recorded build."""
    ptldb, builds = build_recording(network)
    yield ptldb, builds
    ptldb.db.close()


@pytest.mark.parametrize("table", TABLES)
def test_table_matches_one_filled_from_reference_rows(built, table):
    ptldb, builds = built
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

