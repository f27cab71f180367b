"""The delta-encoded label records over the full PTLDB query corpus.

PTLDB stores ``lout``/``lin`` and every kNN/OTM table with their
``BIGINT[]`` cells as delta segments. For every one of the nine paper
query families the answers must equal the TTL/CSA oracles, and the
engine's ndarray decode and column kernels must stay pure optimizations —
same rows, same page reads, same pool misses as the row-at-a-time
reference model (``tests/minidb/reference.py``).
"""

import pytest

from repro.baselines import csa
from repro.labeling.query import TTLQueryEngine
from repro.labeling.ttl import build_labels
from repro.ptldb.framework import PTLDB
from repro.timetable.generator import random_timetable
from tests.minidb.reference import facade_statement, run_engine, run_reference

NOON = 12 * 3600
TARGETS = {1, 4, 9, 13, 16}

FAMILIES = [
    "v2v_ea", "v2v_ld", "v2v_sd",
    "knn_ea_naive", "knn_ld_naive",
    "knn_ea", "knn_ld",
    "otm_ea", "otm_ld",
]


@pytest.fixture(scope="module")
def timetable():
    return random_timetable(18, 160, seed=11)


@pytest.fixture(scope="module")
def columnar_db(timetable):
    labels, _ = build_labels(timetable, add_dummies=True)
    db = PTLDB.from_timetable(timetable, device="hdd", labels=labels)
    db.build_target_set(
        "col",
        targets=TARGETS,
        kmax=4,
        families=(
            "knn_ea", "knn_ld", "otm_ea", "otm_ld", "naive_ea", "naive_ld",
        ),
    )
    return db


def family_calls(ptldb, source=2):
    return {
        "v2v_ea": lambda: ptldb.earliest_arrival(source, 9, NOON),
        "v2v_ld": lambda: ptldb.latest_departure(source, 9, 2 * NOON),
        "v2v_sd": lambda: ptldb.shortest_duration(source, 9, 0, 2 * NOON),
        "knn_ea_naive": lambda: ptldb.ea_knn_naive("col", source, NOON, 2),
        "knn_ld_naive": lambda: ptldb.ld_knn_naive("col", source, 2 * NOON, 2),
        "knn_ea": lambda: ptldb.ea_knn("col", source, NOON, 2),
        "knn_ld": lambda: ptldb.ld_knn("col", source, 2 * NOON, 2),
        "otm_ea": lambda: ptldb.ea_one_to_many("col", source, NOON),
        "otm_ld": lambda: ptldb.ld_one_to_many("col", source, 2 * NOON),
    }


def oracle_calls(timetable, engine, source):
    return {
        "v2v_ea": lambda: csa.earliest_arrival(timetable, source, 9, NOON),
        "v2v_ld": lambda: csa.latest_departure(timetable, source, 9, 2 * NOON),
        "v2v_sd": lambda: csa.shortest_duration(
            timetable, source, 9, 0, 2 * NOON
        ),
        "knn_ea_naive": lambda: engine.ea_knn(source, TARGETS, NOON, 2),
        "knn_ld_naive": lambda: engine.ld_knn(source, TARGETS, 2 * NOON, 2),
        "knn_ea": lambda: engine.ea_knn(source, TARGETS, NOON, 2),
        "knn_ld": lambda: engine.ld_knn(source, TARGETS, 2 * NOON, 2),
        "otm_ea": lambda: engine.ea_one_to_many(source, TARGETS, NOON),
        "otm_ld": lambda: engine.ld_one_to_many(source, TARGETS, 2 * NOON),
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_columnar_matches_oracles(timetable, columnar_db, family):
    engine = TTLQueryEngine(columnar_db.labels)
    for source in range(timetable.num_stops):
        if source == 9 and family.startswith("v2v"):
            continue  # s == g is outside the paper's query definition
        got = family_calls(columnar_db, source)[family]()
        want = oracle_calls(timetable, engine, source)[family]()
        if family.startswith("knn_ld"):
            # Targets may swap when departure times tie; the times may not.
            got, want = [t for _, t in got], [t for _, t in want]
        assert got == want, f"{family} from {source}"


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_executor_io_parity_on_columnar(columnar_db, family):
    sql, params = facade_statement(
        columnar_db, family_calls(columnar_db)[family]
    )
    batch_exec = run_engine(columnar_db.db, sql, params)
    row_exec = run_reference(columnar_db.db, sql, params)
    assert batch_exec.rows == row_exec.rows, f"{family}: results diverge"
    assert batch_exec.io == row_exec.io, f"{family}: page I/O diverges"


@pytest.mark.parametrize("family", FAMILIES)
def test_no_pins_left_behind(columnar_db, family):
    family_calls(columnar_db)[family]()
    assert columnar_db.db.pool.total_pins() == 0
