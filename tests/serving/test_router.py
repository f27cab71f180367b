"""Router end-to-end: identical results, cache, admission, recovery.

One module-scoped fixture builds a 2-shard set and an in-process reference
PTLDB over the same labels, so every test compares the process tier's
answers against the single-process ground truth.
"""

import os
import random
import signal
import threading
import time
import types

import numpy as np
import pytest

from repro.errors import (
    BackpressureError,
    ProtocolError,
    ServingError,
    WorkerDiedError,
)
from repro.labeling.ttl import build_labels
from repro.minidb.engine import Database
from repro.ptldb.framework import PTLDB
from repro.minidb.metrics import REGISTRY
from repro.serving import Router, build_shards, protocol
from repro.serving.protocol import recv_message, send_message
from repro.serving.router import WorkerHandle
from repro.timetable.generator import random_timetable

TARGETS = [1, 4, 7, 10, 13, 16]


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    timetable = random_timetable(18, 160, seed=11)
    labels, _ = build_labels(timetable, add_dummies=True)
    ref_db = Database()
    reference = PTLDB(ref_db, labels)
    reference.build_target_set("poi", TARGETS, kmax=4)
    directory = str(tmp_path_factory.mktemp("shards"))
    manifest = build_shards(
        directory,
        labels,
        2,
        target_sets=[{"tag": "poi", "targets": TARGETS, "kmax": 4}],
    )
    router = Router(manifest, max_queue_depth=4).start()
    yield reference, router, labels.num_stops
    router.close()
    ref_db.close()


def assert_matches_reference(router, reference, n, rounds, seed):
    rng = random.Random(seed)
    for _ in range(rounds):
        s, g = rng.randrange(n), rng.randrange(n)
        t = rng.randrange(0, 86400)
        t2 = min(86399, t + 36000)
        k = rng.choice([1, 2, 4])
        assert router.earliest_arrival(s, g, t) == reference.earliest_arrival(s, g, t)
        assert router.latest_departure(s, g, t) == reference.latest_departure(s, g, t)
        assert router.shortest_duration(s, g, t, t2) == reference.shortest_duration(s, g, t, t2)
        assert router.ea_knn("poi", s, t, k) == reference.ea_knn("poi", s, t, k)
        assert router.ld_knn("poi", s, t, k) == reference.ld_knn("poi", s, t, k)
        assert router.ea_one_to_many("poi", s, t) == reference.ea_one_to_many("poi", s, t)
        assert router.ld_one_to_many("poi", s, t) == reference.ld_one_to_many("poi", s, t)


class TestIdenticalResults:
    def test_all_families_match_the_reference(self, fixture):
        reference, router, n = fixture
        assert_matches_reference(router, reference, n, rounds=25, seed=3)

    def test_one_shard_matches_the_reference(self, fixture, tmp_path):
        # the degenerate topology: every stop on one worker, no scatter
        reference, _, n = fixture
        manifest = build_shards(
            str(tmp_path),
            reference.labels,
            1,
            target_sets=[{"tag": "poi", "targets": TARGETS, "kmax": 4}],
        )
        with Router(manifest) as router:
            assert_matches_reference(router, reference, n, rounds=10, seed=5)

    def test_worker_error_surfaces_typed(self, fixture):
        from repro.errors import DatabaseError

        _, router, _ = fixture
        # The worker ships the exception as data; the router re-raises the
        # original type, tagged with the shard it came from.
        with pytest.raises(DatabaseError, match=r"shard0.*kmax"):
            router.ea_knn("poi", 0, 30000, 99)  # k > kmax on every shard


class TestResultCache:
    def test_repeat_query_hits(self, fixture):
        _, router, _ = fixture
        before = router.cache_stats()["hits"]
        first = router.earliest_arrival(2, 3, 30000)
        second = router.earliest_arrival(2, 3, 30000)
        assert first == second
        assert router.cache_stats()["hits"] > before

    def test_execute_invalidates(self, fixture):
        _, router, _ = fixture
        router.earliest_arrival(4, 5, 30000)
        epoch = router.catalog_epoch
        router.execute("SELECT 1", shard=0)
        assert router.catalog_epoch > epoch
        before = router.cache_stats()["invalidations"]
        router.earliest_arrival(4, 5, 30000)  # stale epoch: recomputed
        assert router.cache_stats()["invalidations"] > before


class TestAdmissionControl:
    def test_over_depth_fails_fast(self, fixture):
        _, router, _ = fixture
        handle = router.worker(1)
        handle.pending = handle.max_queue_depth
        try:
            with pytest.raises(BackpressureError) as exc:
                router.ea_knn("poi", 1, 30000, 2)
            assert exc.value.shard == 1
            assert exc.value.limit == handle.max_queue_depth
        finally:
            handle.pending = 0

    def test_single_shard_calls_admit_independently(self, fixture):
        _, router, n = fixture
        handle = router.worker(1)
        handle.pending = handle.max_queue_depth
        try:
            # Shard 0 still has capacity: a v2v routed there must not see
            # shard 1's saturation (no exception is the assertion).
            router.earliest_arrival(1, 0, 30000)
        finally:
            handle.pending = 0


class TestMetrics:
    def test_gather_merges_with_shard_prefixes(self, fixture):
        _, router, _ = fixture
        merged = router.gather_metrics().to_dict()
        counters = merged["counters"]
        assert any(name.startswith("shard0.r0.") for name in counters)
        assert any(name.startswith("shard1.r0.") for name in counters)
        assert any(name.startswith("router.") for name in counters)

    def test_sql_op_round_trips_rows(self, fixture):
        _, router, _ = fixture
        rows = router.execute("SELECT 1", shard=0)
        assert rows == [[1]]


class TestRecovery:
    def test_sigkill_respawn_replays_the_wal(self, fixture):
        _, router, _ = fixture
        router.execute(
            "CREATE TABLE marker (k BIGINT, v BIGINT, PRIMARY KEY (k))",
            shard=0,
        )
        router.execute("INSERT INTO marker VALUES (1, 42)", shard=0)
        router.kill_worker(0)
        with pytest.raises(WorkerDiedError):
            router.execute("SELECT 1", shard=0)
        timing = router.respawn_worker(0)
        assert timing["reattach_seconds"] > 0
        # The row was WAL-committed and never checkpointed: only replay
        # can bring it back.
        assert router.execute("SELECT k, v FROM marker", shard=0) == [[1, 42]]
        router.execute("DROP TABLE marker", shard=0)

    def test_respawned_worker_answers_match_reference(self, fixture):
        reference, router, n = fixture
        rng = random.Random(5)
        for _ in range(10):
            s, g, t = rng.randrange(n), rng.randrange(n), rng.randrange(86400)
            assert router.earliest_arrival(s, g, t) == reference.earliest_arrival(s, g, t)
            assert router.ea_knn("poi", s, t, 2) == reference.ea_knn("poi", s, t, 2)


    def test_unrequested_sigkill_never_blocks_a_caller(self, fixture):
        """The worker dies on its own (``os.kill``, not ``kill_worker``)
        under two calling threads: every call answers or raises the typed
        error, none hangs, and a respawn serves again."""
        reference, router, n = fixture
        stop = threading.Event()
        answers: list[int] = []
        untyped: list[BaseException] = []

        def client(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                # Goal 0 lives on shard 0; distinct params dodge the cache.
                s, t = rng.randrange(n), rng.randrange(86400)
                try:
                    router.earliest_arrival(s, 0, t)
                    answers.append(1)
                except WorkerDiedError:
                    answers.append(0)
                except Exception as exc:  # any other type fails the test below
                    untyped.append(exc)
                    return

        threads = [
            threading.Thread(target=client, args=(seed,), daemon=True)
            for seed in (1, 2)
        ]
        for thread in threads:
            thread.start()
        proc = router.worker(0).proc
        time.sleep(0.2)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert untyped == []
        assert 1 in answers and 0 in answers
        router.respawn_worker(0)
        assert router.earliest_arrival(3, 0, 30000) == reference.earliest_arrival(
            3, 0, 30000
        )


class _Stdin:
    """A worker stdin that accepts frames until told to break."""

    broken = False

    def write(self, data):
        if self.broken:
            raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestSendFailure:
    def test_broken_pipe_fails_every_ticket_without_hanging(self):
        """Regression: ``request`` marked the handle dead while still holding
        ``send_lock``, which draining the tickets takes again — the caller
        (and then the reader thread) hung forever."""
        handle = WorkerHandle(None, shard=0, replica=0, max_queue_depth=4)
        handle.proc = types.SimpleNamespace(stdin=_Stdin())
        handle.alive = True
        deaths = REGISTRY.counter("serving.worker_deaths")
        before = deaths.value
        outstanding = handle.request({"op": "ping"})
        handle.proc.stdin.broken = True
        tickets = []
        sender = threading.Thread(
            target=lambda: tickets.append(handle.request({"op": "ping"})),
            daemon=True,
        )
        sender.start()
        sender.join(timeout=2)
        assert not sender.is_alive(), "request() deadlocked on send_lock"
        for ticket in (tickets[0], outstanding):
            assert ticket.event.wait(timeout=2)
            with pytest.raises(WorkerDiedError, match=r"shard0\.r0 pipe broke"):
                ticket.wait()
        assert not handle.alive
        assert deaths.value == before + 1
        with pytest.raises(WorkerDiedError, match="is dead"):
            handle.request({"op": "ping"}).wait()


def bounded(fn, *args, deadline=30, **kwargs):
    """``fn(*args, **kwargs)`` on a thread joined with a deadline: its value,
    or its exception re-raised — a hung call fails the test instead of
    stalling the suite."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn(*args, **kwargs)))
        except Exception as exc:
            outcome.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(deadline)
    assert outcome, f"{fn.__name__}{args} did not return in {deadline} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


class TestUnframeableRequest:
    def test_pipe_stays_in_step(self, fixture, monkeypatch):
        """Regression: ``request`` queued its ticket before encoding the
        frame, so a numpy argument (``TypeError`` from ``json.dumps``) or a
        frame over ``MAX_FRAME`` left an orphan ticket in the FIFO — the
        next caller hung and the one after it got another request's
        answer."""
        reference, router, _ = fixture
        handle = router.worker(0)
        with pytest.raises(ProtocolError, match=r"shard0\.r0: .*JSON serializable"):
            bounded(router.execute, "SELECT $1", (np.int64(5),), shard=0)
        with pytest.raises(ProtocolError, match=r"shard0\.r0: .*JSON serializable"):
            bounded(router.earliest_arrival, np.int64(3), 0, 30000)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "MAX_FRAME", 1024)
            with pytest.raises(ProtocolError, match=r"shard0\.r0: frame too large"):
                bounded(router.execute, "SELECT $1", ("x" * 4096,), shard=0)
        assert handle.alive and handle._tickets == [] and handle.pending == 0
        # Goal 0 lives on shard 0; kNN and OTM scatter to it as well.
        for s, t in ((3, 30000), (7, 30000), (5, 41000)):
            assert bounded(router.earliest_arrival, s, 0, t) == (
                reference.earliest_arrival(s, 0, t)
            )
            assert bounded(router.ea_knn, "poi", s, t, 2) == reference.ea_knn(
                "poi", s, t, 2
            )
            assert bounded(router.ea_one_to_many, "poi", s, t) == (
                reference.ea_one_to_many("poi", s, t)
            )


class TestProtocol:
    def test_round_trip(self, tmp_path):
        import io

        buf = io.BytesIO()
        send_message(buf, {"op": "ping", "n": 3})
        buf.seek(0)
        assert recv_message(buf) == {"op": "ping", "n": 3}
        assert recv_message(buf) is None  # clean EOF

    def test_mid_frame_eof_raises(self):
        import io

        buf = io.BytesIO()
        send_message(buf, {"op": "ping"})
        truncated = io.BytesIO(buf.getvalue()[:-2])
        with pytest.raises(ServingError):
            recv_message(truncated)

    def test_oversize_frame_rejected(self):
        import io
        import struct

        buf = io.BytesIO(struct.pack("<I", 1 << 30))
        with pytest.raises(ServingError):
            recv_message(buf)
