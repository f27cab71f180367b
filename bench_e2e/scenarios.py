"""One workload, end to end: set up, warm up, time, verify, probe.

A run makes :data:`SETUP_REPEATS` complete set-ups and measures on every one
of them: each fixture gets its own warm-up pass and an equal share of the
timed seconds, then is torn down before the next is built. ``setup_s`` is the
median set-up; the timed passes of all fixtures are pooled. Spreading the
timed passes between the set-ups also spreads them over a longer stretch of
wall clock, which matters on a host whose CPU speed shifts for seconds at a
time (README.md, "Noise protocol").

With ``trace`` off nothing records spans anywhere. With it on, the last
fixture's share is split between an untraced and a traced half, the per-layer
probes run on that fixture after its passes, and the report carries the
per-layer metrics plus the span list.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import shutil
import statistics
import time

from repro.errors import BackpressureError
from repro.minidb import REGISTRY, Database
from repro.ptldb import PTLDB
from repro.ptldb.analytics import load_analytics

import fixtures
import layers
import measure
from oracle import CSA_CHECKS, Oracle, count_failures, normalize
from workloads import BUILD_FAMILIES, BUILD_KMAX, Spec

SETUP_REPEATS = 3


def run(spec: Spec, seed: int, seconds: float, trace: bool, workdir: str,
        repeats: int = SETUP_REPEATS) -> dict:
    """The workload's report: ``metrics`` maps name -> (value, sample count)."""
    scenario = {"routed": _routed, "build": _build}.get(spec.kind, _v2v)
    tracer = measure.Tracer() if trace else None
    segments, stage_sets = [], []
    os.makedirs(workdir, exist_ok=True)
    try:
        for attempt in range(repeats):
            last = attempt == repeats - 1
            fixture = fixtures.build(
                spec, seed, os.path.join(workdir, f"fixture{attempt}"),
                (attempt, repeats),
            )
            try:
                stage_sets.append(fixture.stages)
                segments.append(
                    scenario(spec, fixture, seconds / repeats,
                             tracer if last else None, workdir)
                )
                facts = {
                    "digest": fixture.inputs.digest,
                    "tuples": fixture.labels.total_tuples,
                    "tuples_per_vertex": fixture.labels.tuples_per_vertex,
                    "connections": len(fixture.timetable.connections),
                }
            finally:
                fixture.close()
                del fixture
                gc.collect()  # the next set-up starts from a clean heap
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    final = segments[-1]
    summary = measure.summarize([p for s in segments for p in s["passes"]])
    attempted = sum(s["attempted"] for s in segments)
    failed = sum(s["failed"] for s in segments)
    notes = sorted({note for s in segments for note in s["notes"]})
    metrics = {
        "setup_s": (statistics.median(sum(s.values()) for s in stage_sets), repeats),
        "p50_ms": (summary["p50_ms"], summary["passes"]),
        "qps": (summary["qps"], summary["passes"]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "stored_bytes_per_tuple": (final["stored_bytes"] / facts["tuples"], 1),
        "failed_share": (failed / attempted, attempted),
        "client.p99_ms": (summary["p99_ms"], summary["ops"]),
        "client.cpu_ms_per_op": (summary["cpu_ms_per_op"], summary["ops"]),
        "client.pass_iqr_share": (summary["pass_iqr_share"], summary["passes"]),
        "client.passes": (summary["passes"], 1),
        "client.raw_p50_ms": (summary["raw_p50_ms"], summary["passes"]),
        "client.raw_qps": (summary["raw_qps"], summary["passes"]),
        "client.host_slowdown": (summary["host_slowdown"], summary["passes"]),
        "timetable.connections": (facts["connections"], 1),
        "labeling.tuples": (facts["tuples"], 1),
        "labeling.tuples_per_vertex": (facts["tuples_per_vertex"], 1),
    }
    if "p95_ms" in summary:
        metrics["p95_ms"] = (summary["p95_ms"], summary["passes"])
    for name in stage_sets[0]:
        metrics[name] = (statistics.median(s[name] for s in stage_sets), repeats)
    for name, value in final["metrics"].items():
        metrics[name] = value if isinstance(value, tuple) else (value, 1)
    return {
        "workload": spec.name,
        "why": spec.why,
        "seed": seed,
        "digest": facts["digest"],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not notes,
        "notes": notes,
        "metrics": metrics,
        "config": final["config"],
        "spans": tracer.spans if trace else None,
        "self_times_us": {
            name: statistics.median(values) * 1e6
            for name, values in tracer.self_times().items()
        } if trace else None,
    }


def _trace_overhead(untraced, traced) -> float:
    base = measure.summarize(untraced)["p50_ms"]
    return measure.summarize(traced)["p50_ms"] / base - 1


def _csa_note(refuted: int) -> list[str]:
    return [f"CSA refutes {refuted} of {CSA_CHECKS} TTL answers"] if refuted else []


def db_config(db: Database) -> dict:
    """Effective knob values, read — never set — by the benchmark."""
    names = (
        "vectorize", "batch_size", "numpy_batches", "readahead",
        "parallel_workers", "tracing", "analyze",
    )
    config = {name: getattr(db, name, None) for name in names}
    config["pool_pages"] = getattr(db.pool, "capacity", None)
    config["device"] = getattr(db.disk.device, "name", None)
    config["wal"] = db.wal is not None
    config["wal_checkpoint_bytes"] = getattr(db.wal, "checkpoint_bytes", None)
    return config


# ---------------------------------------------------------------------------
def _counters(db: Database) -> tuple:
    pool, disk, plans = db.pool.stats, db.disk.stats, db.plan_cache_stats()
    return (
        pool.hits, pool.misses, disk.reads, disk.simulated_read_ms,
        plans["hits"], plans["misses"],
    )


def _v2v(spec, fixture, seconds, tracer, workdir) -> dict:
    ptldb, db = fixture.ptldb, fixture.db
    requests = fixture.inputs.passes[0]
    oracle = Oracle(fixture.timetable, fixture.labels)
    expected, join_seconds = oracle.expected_all(requests)
    notes = _csa_note(
        oracle.spot_check(zip(requests, expected, itertools.repeat(())))
    )
    ops = [layers.api_call(ptldb, r) for r in requests]
    started, deltas = [], []

    def before_pass(_):
        if spec.cold:
            ptldb.restart()  # also zeroes the pool and disk counters
        started[:] = _counters(db)

    def after_pass(_):
        deltas.append(
            tuple(round(b - a, 6) for a, b in zip(started, _counters(db)))
        )

    before_pass(None)
    measure.run_pass(ops)  # warm-up, untimed
    with measure.settled():
        passes = measure.timed_passes(
            lambda _: ops, seconds / 2 if tracer else seconds,
            before_pass=before_pass, after_pass=after_pass,
        )
        checked = list(passes)
        if len(set(deltas)) != 1:
            notes.append("page/plan counters differ between passes")
        hits, misses, reads, sim_ms, plan_hits, plan_misses = deltas[0]
        n = len(requests)
        metrics = {
            "pages_read_per_op": (reads / n, n),
            "sim_io_ms_per_op": (sim_ms / n, n),
            "minidb.buffer.misses_per_op": (misses / n, n),
            "minidb.buffer.hit_rate": (hits / (hits + misses), hits + misses),
            "minidb.plan_cache.hit_rate": (
                plan_hits / (plan_hits + plan_misses), plan_hits + plan_misses
            ),
            "labeling.mem_join_us": (statistics.median(join_seconds) * 1e6, n),
            "labeling.common_hubs_per_op": (
                layers.common_hubs_per_op(fixture.labels, requests), n
            ),
        }
        report = ptldb.storage_report()
        metrics["minidb.storage.db_bytes"] = report["total_bytes"]
        metrics["minidb.storage.label_heap_pages"] = sum(
            report["tables"][t]["heap_pages"] for t in ("lout", "lin")
        )
        if tracer is not None:
            def trace(index):
                first_id = index * len(ops)
                after = (
                    layers.replay_v2v(ptldb, tracer, requests, first_id)
                    if index == 0 else None
                )
                return tracer, "ptldb.call", first_id, after

            traced = measure.timed_passes(
                lambda _: ops, seconds / 2, before_pass=before_pass, trace=trace
            )
            checked += traced
            metrics["client.trace_overhead_share"] = _trace_overhead(passes, traced)
            metrics.update(layers.v2v_probes(ptldb, requests, spec.cold))
    return {
        "passes": passes,
        "attempted": sum(p.ops for p in checked),
        "failed": sum(count_failures(p.answers, expected) for p in checked),
        "notes": notes,
        "metrics": metrics,
        "stored_bytes": fixture.stored_bytes(),
        "config": db_config(db),
    }


# ---------------------------------------------------------------------------
def _family_p50_ms(passes, request_passes) -> dict[str, float]:
    by_family: dict[str, list[float]] = {}
    for p, requests in zip(passes, request_passes):
        for latency, request in zip(p.latencies, requests):
            by_family.setdefault(layers.family_of(request), []).append(latency)
    return {f: statistics.median(v) * 1e3 for f, v in by_family.items()}


def _routed(spec, fixture, seconds, tracer, workdir) -> dict:
    router, inputs = fixture.router, fixture.inputs
    oracle = Oracle(fixture.timetable, fixture.labels)
    targets = inputs.targets
    #: The last slice is kept for the cache replay; the rest feed the passes.
    fresh = iter(inputs.passes[:-1])
    used: list[list[tuple]] = []

    def next_ops(_):
        used.append(next(fresh))
        return [layers.api_call(router, r) for r in used[-1]]

    measure.run_pass(
        [layers.api_call(router, r) for r in inputs.warmup], spec.clients
    )  # warm-up, untimed
    with measure.settled(spec.clients):
        cache_before = router.cache_stats()
        passes = measure.timed_passes(
            next_ops, seconds / 2 if tracer else seconds, clients=spec.clients,
            max_passes=len(inputs.passes) // 2,
        )
        cache_after = router.cache_stats()
        checked = list(passes)
        lookups = cache_after["hits"] + cache_after["misses"] - (
            cache_before["hits"] + cache_before["misses"]
        )
        family_ms = _family_p50_ms(passes, used)
        attempted = sum(p.ops for p in passes)
        expected, join_seconds = oracle.expected_all(used[0], targets)
        notes = _csa_note(
            oracle.spot_check(zip(used[0], expected, itertools.repeat(targets)))
        )
        metrics = {
            f"{family}_p50_ms": (value, attempted)
            for family, value in family_ms.items()
        }
        metrics.update(
            {
                "serving.cache.hit_rate_unique": (
                    (cache_after["hits"] - cache_before["hits"]) / lookups, lookups
                ),
                "serving.admission.rejected": (
                    sum(isinstance(a, BackpressureError)
                        for p in passes for a in p.answers),
                    attempted,
                ),
                "labeling.mem_join_us": (
                    statistics.median(
                        s for s, r in zip(join_seconds, used[0])
                        if layers.family_of(r) == "v2v"
                    ) * 1e6,
                    len(used[0]),
                ),
            }
        )
        config = {
            "shards": router.num_shards,
            "replicas": getattr(router, "replicas", None),
            "max_queue_depth": getattr(router, "max_queue_depth", None),
            "cache_capacity": getattr(router.cache, "capacity", None),
            "clients": spec.clients,
            "storage": getattr(fixture.manifest, "storage", None),
            "pool_pages": getattr(fixture.manifest, "pool_pages", None),
            "device": getattr(fixture.manifest, "device", None),
        }
        stored_bytes = fixture.stored_bytes()
        if tracer is not None:
            untraced = len(used)

            def trace(index):
                return (
                    tracer, "serving.router.call",
                    (untraced + index) * spec.pass_ops, None,
                )

            traced = measure.timed_passes(
                next_ops, seconds / 2, clients=spec.clients, trace=trace,
                max_passes=len(inputs.passes) // 2 - 1,
            )
            checked += traced
            metrics["client.trace_overhead_share"] = _trace_overhead(passes, traced)
            metrics.update(
                _serving_probes(spec, fixture, tracer, workdir, used[untraced],
                                untraced * spec.pass_ops, family_ms, used[0])
            )
    return {
        "passes": passes,
        "attempted": sum(p.ops for p in checked),
        "failed": count_failures(checked[0].answers, expected) + sum(
            count_failures(p.answers, oracle.expected_all(requests, targets)[0])
            for p, requests in zip(checked[1:], used[1:])
        ),
        "notes": notes,
        "metrics": metrics,
        "stored_bytes": stored_bytes,
        "config": config,
    }


def _serving_probes(spec, fixture, tracer, workdir, traced_requests,
                    first_request_id, family_ms, first_requests) -> dict:
    """What only a traced run pays for: cache replay, a kill + respawn, the
    worker/codec replay under the first traced pass's spans, and the
    in-process reference. Closes the router on the way."""
    router, inputs = fixture.router, fixture.inputs
    metrics = {}
    # Result cache: one fresh pass twice — all misses, then all hits.
    replay = [layers.api_call(router, r) for r in inputs.passes[-1]]
    measure.run_pass(replay)
    before = router.cache_stats()["hits"]
    hit_pass = measure.run_pass(replay)
    metrics["serving.cache.hit_rate_replay"] = (
        (router.cache_stats()["hits"] - before) / len(replay), len(replay)
    )
    metrics["serving.cache.hit_us"] = (
        statistics.median(hit_pass.latencies) * 1e6, len(replay)
    )
    router.kill_worker(0)
    metrics["serving.respawn_s"] = router.respawn_worker(0)["reattach_seconds"]
    router.close()
    call_spans = sorted(
        (s["request"], s["id"])
        for s in tracer.spans
        if s["name"] == "serving.router.call"
        and s["request"] < first_request_id + spec.pass_ops
    )
    metrics.update(
        layers.replay_workers(
            fixture.manifest, workdir, tracer, traced_requests, call_spans,
            {f: v * 1e3 for f, v in family_ms.items()},
        )
    )
    reference, inproc_us = layers.inproc_reference(
        fixture.labels, inputs.targets,
        [r for r in first_requests if layers.family_of(r) == "v2v"],
    )
    metrics.update(reference)
    metrics["serving.routed_over_inproc"] = family_ms["v2v"] * 1e3 / inproc_us
    return metrics


# ---------------------------------------------------------------------------
def _build(spec, fixture, seconds, tracer, workdir) -> dict:
    ptldb, db, inputs = fixture.ptldb, fixture.db, fixture.inputs
    #: Warm-up first, then the passes in order: checks[i] verifies requests[i].
    requests = inputs.warmup + [r for p in inputs.passes for r in p]
    tags = itertools.count()
    built: list[tuple[str, int]] = []  # (tag, request index), in build order

    def build(index):
        tag = f"b{next(tags)}"
        handle = ptldb.build_target_set(
            tag, requests[index][1], kmax=BUILD_KMAX, families=BUILD_FAMILIES
        )
        built.append((tag, index))
        return handle.build_seconds

    def pass_ops(number):  # 0 is the warm-up
        first = number * spec.pass_ops
        return [(build, (i,)) for i in range(first, first + spec.pass_ops)]

    # Every pass builds fresh target sets, and this fixture takes only its
    # share of them, so a run never builds one set twice.
    attempt, repeats = fixture.share
    mine = iter(range(1 + attempt, 1 + len(inputs.passes), repeats))
    limit = len(inputs.passes) // repeats // 2

    def next_ops(_):
        return pass_ops(next(mine))

    stored_bytes = fixture.stored_bytes()  # labels only: before any build
    config = db_config(db)
    measure.run_pass(pass_ops(0))  # warm-up, untimed
    warm = len(built)
    with measure.settled():
        pages_logged = REGISTRY.counter("wal.pages_logged")
        page_bytes = db.size_bytes() // db.total_pages()
        logged_before, size_before = pages_logged.value, db.size_bytes()
        pool_before = db.pool.stats.snapshot()
        passes = measure.timed_passes(
            next_ops, seconds / 2 if tracer else seconds, max_passes=limit
        )
        checked = list(passes)
        timed_ops = sum(p.ops for p in passes)
        # Before- and after-image of every page a statement dirtied.
        wal_bytes = (pages_logged.value - logged_before) * 2 * page_bytes
        pool = db.pool.stats.delta(pool_before)
        metrics = {
            "wal_bytes_per_stored_byte": (
                wal_bytes / (db.size_bytes() - size_before), timed_ops
            ),
            "minidb.wal.bytes_per_op": (wal_bytes / timed_ops, timed_ops),
            "minidb.buffer.hit_rate": (pool.hits / pool.accesses, pool.accesses),
            "minidb.buffer.misses_per_op": (pool.misses / timed_ops, timed_ops),
            "minidb.storage.db_bytes": db.size_bytes(),
            "minidb.storage.label_heap_pages": sum(
                db.table_stats()[t]["heap_pages"] for t in ("lout", "lin")
            ),
        }
        for family in BUILD_FAMILIES:
            metrics[f"ptldb.aux.build_ms.{family}"] = (
                statistics.median(
                    a[family] for p in passes for a in p.answers
                    if isinstance(a, dict)
                ) * 1e3,
                timed_ops,
            )
        if tracer is not None:
            def trace(index):
                return tracer, "ptldb.call", index * spec.pass_ops, None

            traced = measure.timed_passes(
                next_ops, seconds / 2, trace=trace, max_passes=limit
            )
            checked += traced
            metrics["client.trace_overhead_share"] = _trace_overhead(passes, traced)

    # Durability: die without flushing, reopen from the file + WAL tail, and
    # read every table an acknowledged build produced.
    failed = sum(isinstance(a, Exception) for p in checked for a in p.answers)
    db.simulate_crash()
    started = time.perf_counter()
    reopened = fixture.db = Database.open(fixture.db_path, device=spec.device)
    metrics["minidb.reopen_s"] = time.perf_counter() - started
    attached = PTLDB.attach(
        reopened, ptldb.num_stops, (ptldb.time_low, ptldb.time_high)
    )
    oracle = Oracle(fixture.timetable, fixture.labels)
    verified = []
    for tag, index in built[warm:]:
        targets = requests[index][1]
        attached.attach_target_set(
            tag, kmax=BUILD_KMAX, families=BUILD_FAMILIES, targets=targets
        )
        queries = inputs.checks[index]
        wanted = [normalize(oracle.expected(q, targets)) for q in queries]
        answers = measure.run_pass(
            [layers.api_call(attached, q, tag) for q in queries]
        ).answers
        failed += count_failures(answers, wanted) > 0
        verified.extend(zip(queries, wanted, itertools.repeat(targets)))
    notes = _csa_note(oracle.spot_check(verified))
    if tracer is not None:
        metrics["minidb.insert_us"] = layers.insert_probe(reopened)
        load_analytics(reopened, fixture.timetable)
        metrics["ptldb.analytics.stmt_ms"] = layers.analytics_probe(attached)
        started = time.perf_counter()
        reopened.checkpoint()
        metrics["minidb.checkpoint_s"] = time.perf_counter() - started
    return {
        "passes": passes,
        "attempted": sum(p.ops for p in checked),
        "failed": failed,
        "notes": notes,
        "metrics": metrics,
        "stored_bytes": stored_bytes,
        "config": config,
    }
