"""Engine-vs-reference-model equivalence over the full PTLDB query corpus.

Batching, fusion and the numpy kernels are pure optimizations, so for
every one of the nine paper query families and the five analytics
queries the engine must return the same rows as the row-at-a-time reference model, touch the same number of pages
and miss the buffer pool the same number of times
(``tests/minidb/reference.py``).
"""

import pytest

from repro.labeling.ttl import build_labels
from repro.ptldb.framework import PTLDB
from repro.timetable.generator import random_timetable
from tests.minidb.reference import facade_statement, run_engine, run_reference

NOON = 12 * 3600

FAMILIES = [
    "v2v_ea", "v2v_ld", "v2v_sd",
    "knn_ea_naive", "knn_ld_naive",
    "knn_ea", "knn_ld",
    "otm_ea", "otm_ld",
    "busiest_hubs", "route_trips", "hourly_load", "route_legs", "network_span",
]


@pytest.fixture(scope="module")
def ptldb():
    timetable = random_timetable(18, 160, seed=11)
    labels, _ = build_labels(timetable, add_dummies=True)
    db = PTLDB.from_timetable(timetable, device="hdd", labels=labels)
    db.build_target_set(
        "vec",
        targets={1, 4, 9, 13, 16},
        kmax=4,
        families=(
            "knn_ea", "knn_ld", "otm_ea", "otm_ld", "naive_ea", "naive_ld",
        ),
    )
    return db


def family_calls(ptldb):
    return {
        "v2v_ea": lambda: ptldb.earliest_arrival(2, 9, NOON),
        "v2v_ld": lambda: ptldb.latest_departure(2, 9, 2 * NOON),
        "v2v_sd": lambda: ptldb.shortest_duration(2, 9, 0, 2 * NOON),
        "knn_ea_naive": lambda: ptldb.ea_knn_naive("vec", 2, NOON, 2),
        "knn_ld_naive": lambda: ptldb.ld_knn_naive("vec", 2, 2 * NOON, 2),
        "knn_ea": lambda: ptldb.ea_knn("vec", 2, NOON, 2),
        "knn_ld": lambda: ptldb.ld_knn("vec", 2, 2 * NOON, 2),
        "otm_ea": lambda: ptldb.ea_one_to_many("vec", 2, NOON),
        "otm_ld": lambda: ptldb.ld_one_to_many("vec", 2, 2 * NOON),
        "busiest_hubs": lambda: ptldb.busiest_hubs(5),
        "route_trips": lambda: ptldb.route_trip_stats(),
        "hourly_load": lambda: ptldb.hourly_departures(3600),
        "route_legs": lambda: ptldb.route_leg_volume(),
        "network_span": lambda: ptldb.network_span(),
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_matches_row_executor(ptldb, family):
    sql, params = facade_statement(ptldb, family_calls(ptldb)[family])
    batch = run_engine(ptldb.db, sql, params)
    row = run_reference(ptldb.db, sql, params)
    assert batch.rows == row.rows, f"{family}: results diverge"
    assert batch.io == row.io, f"{family}: page I/O diverges"


@pytest.mark.parametrize("family", FAMILIES)
def test_no_pins_left_behind(ptldb, family):
    family_calls(ptldb)[family]()
    assert ptldb.db.pool.total_pins() == 0


def test_corpus_plans_are_batchable(ptldb):
    """Every family's trace records batch pulls — the operators really
    exchange batches, not one-row chunks in disguise — and every operator
    ran inline on the statement's thread: no EXPLAIN ANALYZE line names a
    ``Gather`` or carries a ``(parallel: …)`` clause."""
    for family, call in family_calls(ptldb).items():
        call()
        trace = ptldb.last_trace
        assert trace is not None, family
        assert any(op.pulls > 0 for op in trace.operators()), (
            f"{family}: no operator recorded batch pulls"
        )
        for line in trace.format(analyze=True).splitlines():
            assert "Gather" not in line and "(parallel:" not in line, line


def test_removed_parallel_workers_option_is_rejected():
    """The intra-query parallelism knob is gone; passing it must fail
    loudly rather than be swallowed."""
    timetable = random_timetable(6, 20, seed=3)
    with pytest.raises(TypeError, match="parallel_workers"):
        PTLDB.from_timetable(timetable, parallel_workers=2)


def test_v2v_band_join_matches_the_in_memory_label_join(ptldb):
    """Code 1 plans to the band-join kernel, and on every stop pair of the
    generated city its EA/LD/SD answers are the ones ``TTLQueryEngine``
    merges out of the same labels in memory — feasible or not."""
    from repro.labeling.query import TTLQueryEngine

    oracle = TTLQueryEngine(ptldb.labels)
    low, high = ptldb.time_low, ptldb.time_high
    early, late = low + (high - low) // 4, high - (high - low) // 4
    answered = 0
    for s in range(ptldb.num_stops):
        for g in range(ptldb.num_stops):
            if s == g:
                continue
            for name, args in (
                ("earliest_arrival", (s, g, early)),
                ("latest_departure", (s, g, late)),
                ("shortest_duration", (s, g, early, late)),
                ("earliest_arrival", (s, g, high + 1)),  # nothing leaves
            ):
                got = getattr(ptldb, name)(*args)
                assert got == getattr(oracle, name)(*args), (name, args)
                (join,) = ptldb.last_trace.find("Hash Join")
                assert " band (outp.ta <= inp.td)" in join.detail
                answered += got is not None
    assert answered > ptldb.num_stops  # the city is connected enough to matter
