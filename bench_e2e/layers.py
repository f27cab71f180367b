"""Per-layer probes: each times public calls of one layer, or reads its
public counters, on the workload's own requests — after the timed passes, so
nothing here can leak into an end-to-end number.
"""

from __future__ import annotations

import io
import os
import shutil
import statistics
import time

from repro.minidb import Database
from repro.ptldb import PTLDB, sqltext
from repro.serving import protocol, shard_of
from repro.serving.worker import ShardWorker

from fixtures import TAG
from workloads import KNN_K, ROUTED_FAMILIES

LABEL_FETCH_SQL = "SELECT hubs, tds, tas FROM {table} WHERE v = $1"
FIXED_SQL = "SELECT v FROM lout WHERE v = $1"
V2V_SQL = {"ea": sqltext.V2V_EA, "ld": sqltext.V2V_LD, "sd": sqltext.V2V_SD}
PROBE_ROUNDS = 3


def _timed(fn, *args) -> float:
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def _p50_us(seconds) -> float:
    return statistics.median(seconds) * 1e6


def family_of(request: tuple) -> str:
    return request[0] if request[0] in ("knn", "otm") else "v2v"


def api_call(api, request: tuple, tag: str = TAG):
    """``(bound method, args)`` of the PTLDB/Router call serving *request*."""
    family, *args = request
    if family == "ea":
        return api.earliest_arrival, tuple(args)
    if family == "ld":
        return api.latest_departure, tuple(args)
    if family == "sd":
        return api.shortest_duration, tuple(args)
    if family == "knn":
        return api.ea_knn, (tag, *args)
    if family == "otm":
        return api.ea_one_to_many, (tag, *args)
    if family == "otm_ld":
        return api.ld_one_to_many, (tag, *args)
    raise ValueError(f"no API call for family {family!r}")


def common_hubs_per_op(labels, requests) -> float:
    """Hubs shared by Lout(s) and Lin(g), averaged over the requests —
    Delling et al.'s 'hubs touched', the size of the join's useful input."""
    out_hubs = [{t.hub for t in tuples} for tuples in labels.lout]
    in_hubs = [{t.hub for t in tuples} for tuples in labels.lin]
    return statistics.fmean(
        len(out_hubs[r[1]] & in_hubs[r[2]]) for r in requests
    )


# -- in-process v2v ---------------------------------------------------------
def v2v_probes(ptldb: PTLDB, requests, cold: bool) -> dict[str, float]:
    """Facade, statement, label-fetch and fixed-cost timings on the EA
    requests (one SQL text, so the subtraction compares like with like).

    On the cold workload every round starts from ``restart()`` so the fetch
    and statement costs include the page misses the workload pays."""
    db = ptldb.db
    params = [r[1:] for r in requests if r[0] == "ea"]
    stmt = db.prepare(sqltext.V2V_EA)
    fetch_out = db.prepare(LABEL_FETCH_SQL.format(table="lout"))
    fetch_in = db.prepare(LABEL_FETCH_SQL.format(table="lin"))
    fixed = db.prepare(FIXED_SQL)
    traced, untraced = ptldb.client(), ptldb.client(tracing=False)
    facade, stmts, fetches, fixeds, on, off = [], [], [], [], [], []
    for _ in range(PROBE_ROUNDS):
        if cold:
            ptldb.restart()
        # Interleaved per request, so drift hits both sides of a difference.
        for p in params:
            facade.append(_timed(ptldb.earliest_arrival, *p))
            stmts.append(_timed(stmt.execute, p))
        if cold:
            ptldb.restart()
        for source, goal, _ in params:
            fetches.append(_timed(fetch_out.execute, (source,)))
            fetches.append(_timed(fetch_in.execute, (goal,)))
        for source, _, _ in params:
            fixed.execute((source,))  # warm: the second call is the floor
            fixeds.append(_timed(fixed.execute, (source,)))
        if cold:
            ptldb.restart()
        for p in params:
            on.append(_timed(traced.earliest_arrival, *p))
            off.append(_timed(untraced.earliest_arrival, *p))
    stmt_us, fetch_us, fixed_us = _p50_us(stmts), _p50_us(fetches), _p50_us(fixeds)
    return {
        "ptldb.facade_self_us": _p50_us(facade) - stmt_us,
        "minidb.stmt_us": stmt_us,
        "minidb.label_fetch_us": fetch_us,
        "minidb.session.fixed_us": fixed_us,
        # Two fetches are inside the statement, each with one fixed cost of
        # its own that the statement pays once: what is left is the join.
        "minidb.sql.join_self_us": stmt_us - 2 * fetch_us + fixed_us,
        "minidb.session.tracing_share": 1 - _p50_us(off) / _p50_us(on),
    }


def replay_v2v(ptldb: PTLDB, tracer, requests, first_request_id: int):
    """The ``after`` hook of a traced in-process pass: right after request
    *i*'s ``ptldb.call`` span, replay the statement and the two label
    fetches beneath it and record them as its (replay) children."""
    db = ptldb.db
    stmts = {kind: db.prepare(sql) for kind, sql in V2V_SQL.items()}
    fetch_out = db.prepare(LABEL_FETCH_SQL.format(table="lout"))
    fetch_in = db.prepare(LABEL_FETCH_SQL.format(table="lin"))
    clock = time.perf_counter

    def after(request_id: int, call_span: int) -> None:
        kind, *params = requests[request_id - first_request_id]
        t0 = clock()
        stmts[kind].execute(params)
        t1 = clock()
        fetch_out.execute((params[0],))
        t2 = clock()
        fetch_in.execute((params[1],))
        t3 = clock()
        stmt_span = tracer.add(
            "minidb.stmt", t0, t1, parent=call_span, request=request_id, replay=True
        )
        for start, end in ((t1, t2), (t2, t3)):
            tracer.add(
                "minidb.label_fetch", start, end,
                parent=stmt_span, request=request_id, replay=True,
            )

    return after


# -- serving ----------------------------------------------------------------
def wire_message(request: tuple) -> dict:
    """The frame the Router sends a worker for *request*."""
    family, *args = request
    if family in ("ea", "ld", "sd"):
        return {"op": "query", "family": f"v2v_{family}", "args": args}
    return {"op": "query", "family": f"{family}_ea", "args": [TAG, *args]}


def _codec(message: dict) -> tuple[float, int]:
    """Seconds to frame + parse *message* once, and the frame's size."""
    stream = io.BytesIO()
    started = time.perf_counter()
    protocol.send_message(stream, message)
    stream.seek(0)
    protocol.recv_message(stream)
    return time.perf_counter() - started, stream.getbuffer().nbytes


def replay_workers(manifest, directory: str, tracer, requests, call_spans,
                   routed_us: dict[str, float]) -> dict[str, float]:
    """After the router has closed: serve *requests* again through
    in-process ``ShardWorker``s on a copy of the shard files, recording
    ``serving.worker.handle`` and ``serving.protocol.codec`` spans under
    each request's router-call span.

    A scatter's shards work in parallel, so a request's handle time is its
    slowest shard; the frames are written and parsed one after another on
    the router side, so its codec time is the sum over shards. What is left
    of the routed latency — pipe, thread hand-off, scatter/merge — is the
    router's own."""
    replica = os.path.join(directory, "replay")
    shutil.copytree(manifest.directory, replica)
    workers = [
        ShardWorker(os.path.join(replica, "manifest.json"), shard)
        for shard in range(manifest.num_shards)
    ]
    handle: dict[str, list[float]] = {}
    codec: dict[str, list[float]] = {}
    frames: dict[str, list[int]] = {}
    try:
        for (request_id, call_span), request in zip(call_spans, requests):
            message = wire_message(request)
            if family_of(request) == "v2v":
                shards = [shard_of(request[2], manifest.num_stops, manifest.num_shards)]
            else:
                shards = range(manifest.num_shards)
            slowest = codec_s = 0.0
            frame_bytes = 0
            for shard in shards:
                started = time.perf_counter()
                response = workers[shard].handle(message)
                ended = time.perf_counter()
                tracer.add(
                    "serving.worker.handle", started, ended,
                    parent=call_span, request=request_id, replay=True,
                )
                slowest = max(slowest, ended - started)
                started = time.perf_counter()
                for frame in (message, response):
                    seconds, size = _codec(frame)
                    codec_s += seconds
                    frame_bytes += size
                tracer.add(
                    "serving.protocol.codec", started, time.perf_counter(),
                    parent=call_span, request=request_id, replay=True,
                )
            family = family_of(request)
            handle.setdefault(family, []).append(slowest)
            codec.setdefault(family, []).append(codec_s)
            frames.setdefault(family, []).append(frame_bytes)
    finally:
        for worker in workers:
            worker.db.close()
        shutil.rmtree(replica, ignore_errors=True)
    out = {}
    for family in handle:
        handle_us, codec_us = _p50_us(handle[family]), _p50_us(codec[family])
        out[f"serving.worker.handle_us.{family}"] = handle_us
        out[f"serving.protocol.codec_us.{family}"] = codec_us
        out[f"serving.protocol.frame_bytes.{family}"] = statistics.median(frames[family])
        out[f"serving.router.self_us.{family}"] = routed_us[family] - handle_us - codec_us
    return out


def inproc_reference(labels, targets, v2v_requests) -> tuple[dict[str, float], float]:
    """The same labels and target set in one process: what loading and
    aux-building cost without the shard machinery (as metrics), and the
    in-process v2v p50 in us that ``serving.routed_over_inproc`` divides by."""
    db = Database()
    try:
        started = time.perf_counter()
        ptldb = PTLDB(db, labels)
        load_s = time.perf_counter() - started
        handle = ptldb.build_target_set(
            TAG, targets, kmax=KNN_K, families=ROUTED_FAMILIES
        )
        calls = [api_call(ptldb, r) for r in v2v_requests]
        for fn, args in calls:
            fn(*args)  # warm
        seconds = [_timed(fn, *args) for fn, args in calls]
    finally:
        db.close()
    return {
        "ptldb.load_s": load_s,
        "ptldb.aux_build_s": sum(handle.build_seconds.values()),
    }, _p50_us(seconds)


# -- writes -----------------------------------------------------------------
def insert_probe(db: Database, rows: int = 200) -> float:
    """p50 of a prepared one-row INSERT into a scratch table (WAL commit
    included on a file-backed database)."""
    db.execute("CREATE TABLE bench_scratch (k BIGINT, v BIGINT, PRIMARY KEY (k))")
    stmt = db.prepare("INSERT INTO bench_scratch VALUES ($1, $2)")
    return _p50_us([_timed(stmt.execute, (k, k * k)) for k in range(rows)])


def analytics_probe(ptldb: PTLDB) -> float:
    """Median statement time (ms) over the five analytics methods."""
    calls = (
        (ptldb.busiest_hubs, (5,)),
        (ptldb.route_trip_stats, ()),
        (ptldb.hourly_departures, ()),
        (ptldb.route_leg_volume, ()),
        (ptldb.network_span, ()),
    )
    return statistics.median(_timed(fn, *args) for fn, args in calls) * 1e3
