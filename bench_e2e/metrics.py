"""The metric vocabulary: every name the benchmark may print, with its unit,
direction and — for per-layer metrics — the end-to-end metric and workload
it is expected to move. ``BENCHMARK.json`` lists the same names (selftest
checks the two agree); the ``moves`` column lives here and in README.md
because the contract fixes BENCHMARK.json's keys.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    moves: str = ""  # per-layer: "<end-to-end metric> @ <workload>"
    bound: float | None = None  # end-to-end only


#: Defined, and never zero, on every workload — the contract requires both.
#: Bounds are sized on the reference host's run-to-run spread (README.md,
#: "What this host allows"), not on what a change is expected to move.
END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("p50_ms", "ms", "lower", bound=0.25),
    Metric("qps", "1/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.25),
    Metric("stored_bytes_per_tuple", "B", "lower", bound=0.06),
)

FAMILIES = ("v2v", "knn", "otm")


def _per_family(prefix, unit, moves):
    return tuple(
        Metric(f"{prefix}.{f}", unit, "lower", moves.format(f=f)) for f in FAMILIES
    )


PER_LAYER = (
    # End-to-end quantities that exist on some workloads only (or read 0 on
    # some), which the contract does not allow among the bounded metrics.
    Metric("failed_share", "share", "lower", "every workload: must stay 0"),
    Metric("p95_ms", "ms", "lower", "tail of p50_ms @ the three read workloads"),
    Metric("pages_read_per_op", "count", "lower", "p50_ms @ v2v_cold; 0 @ v2v_hot"),
    Metric("sim_io_ms_per_op", "ms", "lower", "simulated device time @ v2v_cold"),
    Metric("wal_bytes_per_stored_byte", "share", "lower", "qps @ target_set_build"),
    Metric("v2v_p50_ms", "ms", "lower", "p50_ms @ routed_mix"),
    Metric("knn_p50_ms", "ms", "lower", "qps @ routed_mix"),
    Metric("otm_p50_ms", "ms", "lower", "qps @ routed_mix"),
    # timetable
    Metric("timetable.generate_s", "s", "lower", "setup_s @ all"),
    Metric("timetable.connections", "count", "lower", "setup_s @ all"),
    # labeling
    Metric("labeling.build_s", "s", "lower", "setup_s @ all (largest share)"),
    Metric("labeling.tuples", "count", "lower", "stored_bytes_per_tuple @ all"),
    Metric("labeling.tuples_per_vertex", "count", "lower", "p50_ms @ v2v_hot"),
    Metric("labeling.common_hubs_per_op", "count", "lower", "p50_ms @ v2v_hot"),
    Metric("labeling.mem_join_us", "us", "lower", "floor of p50_ms @ v2v_hot"),
    # ptldb
    Metric("ptldb.load_s", "s", "lower", "setup_s @ all"),
    Metric("ptldb.aux_build_s", "s", "lower", "setup_s @ routed_mix"),
    Metric("ptldb.facade_self_us", "us", "lower", "p50_ms @ v2v_hot, v2v_cold"),
    Metric("ptldb.aux.build_ms.knn_ea", "ms", "lower", "p50_ms @ target_set_build"),
    Metric("ptldb.aux.build_ms.otm_ld", "ms", "lower", "p50_ms @ target_set_build"),
    Metric("ptldb.analytics.stmt_ms", "ms", "lower", "scan-read guard @ target_set_build"),
    # minidb
    Metric("minidb.stmt_us", "us", "lower", "p50_ms @ v2v_hot"),
    Metric("minidb.label_fetch_us", "us", "lower", "p50_ms @ v2v_cold"),
    Metric("minidb.session.fixed_us", "us", "lower", "p50_ms @ v2v_cold; qps @ routed_mix"),
    Metric("minidb.sql.join_self_us", "us", "lower", "p50_ms @ v2v_hot only"),
    Metric("minidb.session.tracing_share", "share", "lower", "p50_ms @ v2v_cold"),
    Metric("minidb.plan_cache.hit_rate", "share", "higher", "p50_ms @ v2v_*: must be 1"),
    Metric("minidb.buffer.hit_rate", "share", "higher", "pages_read_per_op @ v2v_cold"),
    Metric("minidb.buffer.misses_per_op", "count", "lower", "pages_read_per_op @ v2v_cold"),
    Metric("minidb.storage.db_bytes", "B", "lower", "stored_bytes_per_tuple @ all"),
    Metric("minidb.storage.label_heap_pages", "count", "lower", "stored_bytes_per_tuple @ all"),
    Metric("minidb.wal.bytes_per_op", "B", "lower", "qps @ target_set_build"),
    Metric("minidb.insert_us", "us", "lower", "p50_ms @ target_set_build"),
    Metric("minidb.checkpoint_s", "s", "lower", "recovery cost @ target_set_build"),
    Metric("minidb.reopen_s", "s", "lower", "recovery cost @ target_set_build"),
    # serving
    Metric("serving.build_shards_s", "s", "lower", "setup_s @ routed_mix"),
    Metric("serving.router_start_s", "s", "lower", "setup_s @ routed_mix"),
    *_per_family("serving.worker.handle_us", "us", "{f}_p50_ms @ routed_mix"),
    *_per_family("serving.protocol.codec_us", "us", "{f}_p50_ms @ routed_mix"),
    *_per_family("serving.protocol.frame_bytes", "B", "{f}_p50_ms @ routed_mix"),
    *_per_family("serving.router.self_us", "us", "{f}_p50_ms, qps @ routed_mix"),
    Metric("serving.routed_over_inproc", "ratio", "lower", "v2v_p50_ms @ routed_mix"),
    Metric("serving.cache.hit_rate_unique", "share", "lower", "none: must be 0 while timed"),
    Metric("serving.cache.hit_rate_replay", "share", "higher", "none: must be 1 on replay"),
    Metric("serving.cache.hit_us", "us", "lower", "none while timed"),
    Metric("serving.admission.rejected", "count", "lower", "failed_share @ routed_mix"),
    Metric("serving.respawn_s", "s", "lower", "recovery cost @ routed_mix"),
    # client (the benchmark's own loop)
    Metric("client.p99_ms", "ms", "lower", "tail beyond p95_ms"),
    Metric("client.cpu_ms_per_op", "ms", "lower", "qps @ all"),
    Metric("client.pass_iqr_share", "share", "lower", "the run's own noise"),
    Metric("client.passes", "count", "higher", "sample count behind p50_ms"),
    Metric("client.raw_p50_ms", "ms", "lower", "p50_ms before the host-speed correction"),
    Metric("client.raw_qps", "1/s", "higher", "qps before the host-speed correction"),
    Metric("client.host_slowdown", "ratio", "lower", "none: the host, not the code"),
    Metric("client.trace_overhead_share", "share", "lower", "cost of the traced run"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
