"""The paper's access bound for Codes 3-4 under batched key access.

Every kNN/OTM family is one index nested-loop join: the source label
probes the hour-grouped table by its full primary key. The engine resolves
a chunk's distinct keys in key order, so it may never read more pages than
the reference model's one-descent-per-row loop — on a pool that holds
everything the two read the same pages, on a starved pool the per-row loop
re-reads leaves it evicted and the engine does not.
"""

import random

import pytest

from repro.baselines import csa
from repro.labeling.ttl import build_labels
from repro.ptldb.framework import PTLDB
from repro.timetable.generator import random_timetable
from tests.minidb.reference import facade_statement, run_engine, run_reference

K = 4


@pytest.fixture(scope="module")
def world():
    timetable = random_timetable(60, 1500, seed=11)
    labels, _ = build_labels(timetable, add_dummies=True)
    rng = random.Random(3)
    targets = frozenset(rng.sample(range(timetable.num_stops), 8))
    sources = [v for v in range(timetable.num_stops) if v not in targets]
    low, high = timetable.time_range()
    queries = [
        (rng.choice(sources), low + (high - low) // 4 + 900 * i, high - (high - low) // 4)
        for i in range(4)
    ]

    def build(**pool):
        ptldb = PTLDB.from_timetable(timetable, device="hdd", labels=labels, **pool)
        ptldb.build_target_set(
            "s", targets, kmax=K, families=("knn_ea", "knn_ld", "otm_ea", "otm_ld")
        )
        return ptldb

    return timetable, targets, queries, build(), build(pool_pages=6)


def family_calls(ptldb, source, depart_at, arrive_by):
    return {
        "knn_ea": lambda: ptldb.ea_knn("s", source, depart_at, K),
        "knn_ld": lambda: ptldb.ld_knn("s", source, arrive_by, K),
        "otm_ea": lambda: ptldb.ea_one_to_many("s", source, depart_at),
        "otm_ld": lambda: ptldb.ld_one_to_many("s", source, arrive_by),
    }


def cold_runs(ptldb, queries):
    """``(family, answer, engine Run, reference Run)`` per statement, each
    run from a cold pool."""
    for query in queries:
        for family, call in family_calls(ptldb, *query).items():
            sql, params = facade_statement(ptldb, call)
            yield family, call(), run_engine(ptldb.db, sql, params), run_reference(
                ptldb.db, sql, params
            )


def test_answers_are_csa_answers_on_either_pool(world):
    timetable, targets, queries, roomy, starved = world
    for source, depart_at, arrive_by in queries:
        ea = {
            v: csa.earliest_arrival(timetable, source, v, depart_at) for v in targets
        }
        ld = {
            v: csa.latest_departure(timetable, source, v, arrive_by) for v in targets
        }
        ea = {v: t for v, t in ea.items() if t is not None}
        ld = {v: t for v, t in ld.items() if t is not None}
        for ptldb in (roomy, starved):
            got = {
                family: call()
                for family, call in family_calls(
                    ptldb, source, depart_at, arrive_by
                ).items()
            }
            assert got["otm_ea"] == ea and got["otm_ld"] == ld
            # Ties may pick either vertex; the values are determined.
            assert [t for _, t in got["knn_ea"]] == sorted(ea.values())[:K]
            assert [t for _, t in got["knn_ld"]] == sorted(ld.values())[-K:][::-1]
            assert all(ea[v] == t for v, t in got["knn_ea"])
            assert all(ld[v] == t for v, t in got["knn_ld"])


def test_reads_equal_the_per_row_model_when_the_pool_holds_everything(world):
    *_, queries, roomy, _ = world
    for family, _, engine, reference in cold_runs(roomy, queries):
        assert engine == reference, family


def test_reads_never_exceed_the_per_row_model_on_a_starved_pool(world):
    *_, queries, roomy, starved = world
    roomy_answers = [answer for _, answer, _, _ in cold_runs(roomy, queries)]
    engine_reads = reference_reads = 0
    for (family, answer, engine, reference), expected in zip(
        cold_runs(starved, queries), roomy_answers
    ):
        assert answer == expected, family
        assert engine.rows == reference.rows, family
        assert engine.io[0] <= reference.io[0], family
        engine_reads += engine.io[0]
        reference_reads += reference.io[0]
    # The per-row loop comes back to leaves the six frames let go.
    assert engine_reads < reference_reads
    assert starved.db.pool.total_pins() == 0


def test_trace_says_what_the_join_did(world):
    *_, queries, roomy, _ = world
    source, depart_at, _ = queries[0]
    sql, params = facade_statement(
        roomy, lambda: roomy.ea_knn("s", source, depart_at, K)
    )
    roomy.restart()
    trace = roomy.db.execute(sql, params).trace
    (inl,) = trace.find("Index Nested Loop")
    assert inl.rows <= inl.loops  # §3.2.1: loops == |Lout(q)| rows probed
    assert 0 < inl.leaf_visits < inl.probes <= inl.loops
    # Every page the join read, it read once: index levels per descent at
    # most, plus the heap pages (and overflow chains) of the rows it found.
    assert inl.self_pool_misses == inl.self_page_reads
    assert trace.validate() == []
