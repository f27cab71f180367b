"""Ablation benchmarks (DESIGN.md extensions).

* grouping interval (§3.2.1: 1 h vs 30 min vs 3 h) — smaller intervals mean
  more rows, larger intervals mean fatter exp arrays;
* vertex-ordering strategy — label size / preprocessing time trade-off;
* buffer-pool size — cold-cache behaviour of v2v queries.
"""

import pytest

from repro.bench.workload import batch_workload, v2v_workload
from repro.labeling.ttl import build_labels
from repro.ptldb.framework import PTLDB
from repro.timetable.datasets import load_dataset

from conftest import attach_cold_stats, cycle_calls, ensure_targets, get_bundle, get_ptldb, query_count

DATASET = "Madrid"


@pytest.mark.parametrize("interval", [1800, 3600, 10_800])
def test_interval_ablation(benchmark, interval):
    bundle = get_bundle(DATASET)
    ptldb = get_ptldb(DATASET, "hdd")
    tag = ensure_targets(
        ptldb, bundle.timetable, 0.1, 4, ("knn_ea",), interval_s=interval
    )
    queries = batch_workload(bundle.timetable, n=query_count(), seed=42)
    calls = [
        (lambda q=q: ptldb.ea_knn(tag, q.source, q.depart_at, 4))
        for q in queries
    ]
    table = ptldb.db.catalog.get(ptldb.handle(tag).aux.knn_ea)
    benchmark.extra_info["table_rows"] = table.row_count
    benchmark.extra_info["heap_pages"] = len(table.heap.page_ids())
    attach_cold_stats(benchmark, ptldb, f"{DATASET}/interval={interval}", calls)
    benchmark.pedantic(cycle_calls(calls), rounds=8, iterations=2)


@pytest.mark.parametrize(
    "ordering", ["event_degree", "neighbor_degree", "hub_sample", "random"]
)
def test_ordering_ablation(benchmark, ordering):
    timetable = load_dataset("Austin")

    def build():
        labels, _ = build_labels(timetable, ordering=ordering)
        return labels

    labels = benchmark.pedantic(build, rounds=3, iterations=1)
    benchmark.extra_info["HL_per_V"] = round(labels.tuples_per_vertex, 1)


@pytest.mark.parametrize("pool_pages", [16, 256, 4096])
def test_bufferpool_ablation(benchmark, pool_pages):
    bundle = get_bundle(DATASET)
    ptldb = PTLDB.from_timetable(
        bundle.timetable, device="hdd", pool_pages=pool_pages, labels=bundle.labels
    )
    queries = v2v_workload(bundle.timetable, n=query_count(), seed=42)
    calls = [
        (lambda q=q: ptldb.earliest_arrival(q.source, q.goal, q.depart_at))
        for q in queries
    ]
    cold = attach_cold_stats(benchmark, ptldb, f"{DATASET}/pool={pool_pages}", calls)
    benchmark.extra_info["page_reads"] = cold.page_reads
    benchmark.pedantic(cycle_calls(calls), rounds=8, iterations=2)
