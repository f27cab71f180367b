"""Concurrent serving stress tests: shared Database, many sessions.

The PTLDB-level stress (mixed v2v / kNN / one-to-many against a sequential
reference) lives here rather than in tests/ptldb because what it exercises
is the minidb concurrency layer: pins, frame latches, the statement latch
and per-thread accounting.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.minidb.engine import Database
from repro.ptldb import PTLDB, sqltext

NOON = 12 * 3600


def counters(trace):
    """Every node's label and counts: what a stray write would move."""
    return [
        (op.label, op.rows, op.loops, op.pulls, op.pool_hits, op.pool_misses,
         op.page_reads)
        for op in trace.operators()
    ]


def mixed_queries(ptldb, api, count=24):
    """Deterministic mixed workload results via *api* (PTLDB or client)."""
    out = []
    for i in range(count):
        source = i % ptldb.num_stops
        goal = (i * 7 + 3) % ptldb.num_stops
        kind = i % 4
        if kind == 0:
            out.append(api.earliest_arrival(source, goal, NOON))
        elif kind == 1:
            out.append(api.latest_departure(source, goal, 2 * NOON))
        elif kind == 2:
            out.append(api.ea_knn("poi", source, NOON, 2))
        else:
            out.append(api.ea_one_to_many("poi", source, NOON))
    return out


class TestConcurrentServing:
    @pytest.mark.parametrize("threads", [4, 8])
    def test_mixed_workload_matches_sequential(self, small_ptldb, threads):
        reference = mixed_queries(small_ptldb, small_ptldb)
        clients = [small_ptldb.client(tracing=False) for _ in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as executor:
            results = list(
                executor.map(
                    lambda c: mixed_queries(small_ptldb, c), clients
                )
            )
        for got in results:
            assert got == reference

    def test_traced_clients_do_not_cross_attribute(self, small_ptldb):
        clients = [small_ptldb.client(tracing=True) for _ in range(4)]

        def run(client):
            client.earliest_arrival(2, 9, NOON)
            trace = client.last_trace
            assert trace is not None
            return trace.validate()

        with ThreadPoolExecutor(max_workers=4) as executor:
            problems = list(executor.map(run, clients))
        assert problems == [[], [], [], []]

    def test_sessions_on_one_cached_plan_keep_their_own_traces(self, small_ptldb):
        """Threads run the same v2v text (one cached plan) with their own
        parameters and hold every trace unread; each is read afterwards
        and must be exactly its own statement's, as a sequential run on
        the warm pool records it."""
        db = small_ptldb.db
        params = [(s, (s * 7 + 3) % small_ptldb.num_stops, NOON) for s in range(12)]
        sequential = db.session()
        stmt = sequential.prepare(sqltext.V2V_EA)
        for p in params:  # warm: every later run reads the same pages
            stmt.execute(p)
        expected = {p: counters(stmt.execute(p).trace) for p in params}

        def run(offset):
            client = db.session()
            mine = params[offset::4] * 3
            return [(p, client.prepare(sqltext.V2V_EA).execute(p).trace) for p in mine]

        with ThreadPoolExecutor(max_workers=4) as executor:
            held = [pair for out in executor.map(run, range(4)) for pair in out]
        assert len(held) == 36
        for p, trace in held:
            assert trace.validate() == [], p
            assert counters(trace) == expected[p], p

    def test_client_costs_are_private(self, small_ptldb):
        a = small_ptldb.client(tracing=False)
        b = small_ptldb.client(tracing=False)
        a.earliest_arrival(2, 9, NOON)
        cost = a.last_cost
        b.ea_one_to_many("poi", 3, NOON)
        assert a.last_cost is cost


class TestPreparedPlansHoldNoParameters:
    """Cached plans are shared and immutable: threads interleaving one kNN
    text with k = 1…4 (its ``vs[1:$3]`` / ``tas[1:$3]`` readers and its
    ``LIMIT $3`` bind per statement) and the v2v texts with their own
    parameters get the sequential answers, before and after a DDL bump
    makes the same prepared handles re-plan."""

    @staticmethod
    def jobs(ptldb, offset, count=12):
        n = ptldb.num_stops
        out = []
        for i in range(count):
            source, goal = (offset * 5 + i) % n, (offset * 3 + i * 7 + 1) % n
            depart = NOON + 300 * (offset + i)
            out += [
                ("knn", (source, depart, 1 + (offset + i) % 4)),
                ("ea", (source, goal, depart)),
                ("ld", (source, goal, depart + 3 * 3600)),
                ("sd", (source, goal, depart, depart + 3 * 3600)),
            ]
        return out

    @staticmethod
    def answer(client, kind, args):
        if kind == "knn":
            source, depart, k = args
            return client.ea_knn("poi", source, depart, k)
        call = {
            "ea": client.earliest_arrival,
            "ld": client.latest_departure,
            "sd": client.shortest_duration,
        }[kind]
        return call(*args)

    def test_threads_get_the_sequential_answers_across_a_ddl_bump(
        self, small_timetable, small_labels, small_engine
    ):
        targets = {1, 4, 9, 13, 16}
        ptldb = PTLDB.from_timetable(small_timetable, labels=small_labels)
        ptldb.build_target_set("poi", targets=targets, kmax=4, families=("knn_ea",))
        db, threads = ptldb.db, 4
        work = [self.jobs(ptldb, offset) for offset in range(threads)]
        sequential = ptldb.client(tracing=False)
        expected = [[self.answer(sequential, *job) for job in jobs] for jobs in work]
        # k binds per statement: the sequential kNN answers are the
        # in-memory oracle's for each k, not those of the first k planned.
        for jobs, answers in zip(work, expected):
            for (_kind, (source, depart, k)), got in zip(jobs[0::4], answers[0::4]):
                assert got == small_engine.ea_knn(source, targets, depart, k)
        clients = [ptldb.client(tracing=bool(i % 2)) for i in range(threads)]

        def run(i):
            return [self.answer(clients[i], *job) for job in work[i]]

        with ThreadPoolExecutor(max_workers=threads) as executor:
            assert list(executor.map(run, range(threads))) == expected
        version = db.catalog.version
        db.execute("CREATE TABLE unrelated (k BIGINT, PRIMARY KEY (k))")
        assert db.catalog.version > version
        misses = db.plan_cache_misses
        with ThreadPoolExecutor(max_workers=threads) as executor:
            assert list(executor.map(run, range(threads))) == expected
        assert db.plan_cache_misses - misses == 4  # each text re-planned once


class TestConcurrentWrites:
    def test_no_lost_inserts(self):
        db = Database(device="ram")
        db.execute("CREATE TABLE scratch (k BIGINT, v BIGINT, PRIMARY KEY (k))")
        threads, per_thread = 6, 25

        def writer(worker):
            session = db.session(tracing=False)
            for i in range(per_thread):
                session.execute(
                    "INSERT INTO scratch VALUES ($1, $2)",
                    (worker * per_thread + i, worker),
                )

        with ThreadPoolExecutor(max_workers=threads) as executor:
            list(executor.map(writer, range(threads)))
        rows = db.execute("SELECT k, v FROM scratch").rows
        assert len(rows) == threads * per_thread
        assert {k for k, _ in rows} == set(range(threads * per_thread))
        for k, v in rows:
            assert v == k // per_thread  # no torn row pairs either

    def test_readers_and_writer_interleave_safely(self):
        db = Database(device="ram")
        db.execute("CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY (k))")
        for i in range(20):
            db.execute("INSERT INTO kv VALUES ($1, $2)", (i, i))
        errors = []

        def reader(_):
            session = db.session(tracing=False)
            try:
                for i in range(40):
                    got = session.execute(
                        "SELECT v FROM kv WHERE k=$1", (i % 20,)
                    ).scalar()
                    assert got == i % 20
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def writer(_):
            session = db.session(tracing=False)
            try:
                for i in range(20):
                    session.execute(
                        "INSERT INTO kv VALUES ($1, $2)", (100 + i, 100 + i)
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=5) as executor:
            jobs = [executor.submit(reader, i) for i in range(4)]
            jobs.append(executor.submit(writer, 0))
            for job in jobs:
                job.result()
        assert errors == []
        assert len(db.execute("SELECT k FROM kv").rows) == 40
