"""Experiment drivers: one function per table/figure of the paper's §4.

Each driver returns a list of result-row dicts and is consumed by
``python -m repro.bench.run_all``, which regenerates EXPERIMENTS.md, and by
``repro bench --experiment``.

Dataset bundles (timetable + TTL labels) are cached per process because TTL
preprocessing is the expensive part of every experiment.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.bench.runner import run_batch
from repro.bench.workload import batch_workload, random_targets, v2v_workload
from repro.labeling.io import load_or_build
from repro.labeling.labels import TTLLabels
from repro.labeling.ttl import BuildReport, build_labels
from repro.ptldb.framework import PTLDB
from repro.timetable.datasets import DATASET_NAMES, load_dataset, paper_row
from repro.timetable.model import Timetable

# A diverse default subset for quick runs: lightest (Salt Lake City),
# densest (Madrid), largest (Sweden) plus two mid-range cities.
QUICK_DATASETS = ["Austin", "Denver", "Madrid", "Salt Lake City"]
FULL_DATASETS = list(DATASET_NAMES)

PAPER_DENSITIES = [0.001, 0.005, 0.01, 0.05, 0.1]
PAPER_KS = [1, 2, 4, 8, 16]


@dataclass
class DatasetBundle:
    name: str
    timetable: Timetable
    labels: TTLLabels
    report: BuildReport


_BUNDLES: dict[tuple[str, str], DatasetBundle] = {}
_PTLDBS: dict[tuple[str, str, str], PTLDB] = {}


def get_bundle(name: str, scale: str = "small") -> DatasetBundle:
    """Timetable + labels for one dataset, preprocessed at most once.

    Honors ``REPRO_LABEL_CACHE`` (a directory; labels persist across
    processes, keyed by the dataset digest) so bench runs share
    preprocessing with the CLI — see docs/PREPROCESSING.md.
    """
    key = (name, scale)
    if key not in _BUNDLES:
        timetable = load_dataset(name, scale=scale)
        cache_dir = os.environ.get("REPRO_LABEL_CACHE") or None
        labels, report, _ = load_or_build(
            timetable, cache_dir=cache_dir, add_dummies=True
        )
        _BUNDLES[key] = DatasetBundle(name, timetable, labels, report)
    return _BUNDLES[key]


def get_ptldb(name: str, device: str = "hdd", scale: str = "small") -> PTLDB:
    """A cached PTLDB instance per (dataset, device)."""
    key = (name, scale, device)
    if key not in _PTLDBS:
        bundle = get_bundle(name, scale)
        _PTLDBS[key] = PTLDB.from_timetable(
            bundle.timetable, device=device, labels=bundle.labels
        )
    return _PTLDBS[key]


def clear_caches() -> None:
    _BUNDLES.clear()
    _PTLDBS.clear()


# ---------------------------------------------------------------------------
# Table 7 — dataset statistics and preprocessing time
# ---------------------------------------------------------------------------
def experiment_table7(datasets=None, scale: str = "small") -> list[dict]:
    rows = []
    for name in datasets or QUICK_DATASETS:
        bundle = get_bundle(name, scale)
        stats = bundle.timetable.stats()
        paper = paper_row(name)
        rows.append(
            {
                "dataset": name,
                "V": stats["stops"],
                "E": stats["connections"],
                "avg_degree": stats["avg_degree"],
                "HL_per_V": round(bundle.labels.tuples_per_vertex, 1),
                "preproc_s": round(bundle.report.seconds, 2),
                "paper_V": paper.stops,
                "paper_degree": paper.avg_degree,
                "paper_HL_per_V": paper.labels_per_vertex,
                "paper_preproc_s": paper.preprocessing_s,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 2 and 7 — vertex-to-vertex queries on HDD / SSD
# ---------------------------------------------------------------------------
def experiment_v2v(
    datasets=None,
    device: str = "hdd",
    n_queries: int = 200,
    scale: str = "small",
    seed: int = 42,
) -> list[dict]:
    rows = []
    for name in datasets or QUICK_DATASETS:
        bundle = get_bundle(name, scale)
        ptldb = get_ptldb(name, device, scale)
        queries = v2v_workload(bundle.timetable, n=n_queries, seed=seed)
        ea = run_batch(
            ptldb,
            f"{name}/EA/{device}",
            (
                (lambda q=q: ptldb.earliest_arrival(q.source, q.goal, q.depart_at))
                for q in queries
            ),
        )
        ld = run_batch(
            ptldb,
            f"{name}/LD/{device}",
            (
                (lambda q=q: ptldb.latest_departure(q.source, q.goal, q.arrive_by))
                for q in queries
            ),
        )
        sd = run_batch(
            ptldb,
            f"{name}/SD/{device}",
            (
                (
                    lambda q=q: ptldb.shortest_duration(
                        q.source, q.goal, q.depart_at, q.arrive_by
                    )
                )
                for q in queries
            ),
        )
        rows.append(
            {
                "dataset": name,
                "device": device,
                "EA_ms": round(ea.avg_total_ms, 3),
                "LD_ms": round(ld.avg_total_ms, 3),
                "SD_ms": round(sd.avg_total_ms, 3),
                "EA_io_ms": round(ea.avg_io_ms, 3),
                "EA_cpu_ms": round(ea.avg_cpu_ms, 3),
                "empty": ea.empty_results + ld.empty_results + sd.empty_results,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# kNN experiments (Figures 3, 4, 5, 8)
# ---------------------------------------------------------------------------
def _ensure_targets(
    ptldb: PTLDB,
    timetable: Timetable,
    density: float,
    kmax: int,
    families: tuple[str, ...],
    interval_s: int = 3600,
    seed: int = 7,
) -> str:
    """Build (or reuse) the aux tables for one (D, kmax) configuration."""
    tag = f"d{str(density).replace('.', '_')}_k{kmax}_i{interval_s}"
    existing = ptldb._handles.get(tag)
    if existing is not None:
        missing = tuple(f for f in families if f not in existing.built)
        if not missing:
            return tag
        targets = existing.targets
        previously_built = set(existing.built)
    else:
        missing = families
        targets = random_targets(timetable, density, seed=seed)
        previously_built = set()
    ptldb.build_target_set(
        tag, targets, kmax=kmax, interval_s=interval_s, families=missing
    )
    ptldb.handle(tag).built.update(previously_built)
    return tag


def experiment_knn(
    datasets=None,
    device: str = "hdd",
    density: float = 0.01,
    ks=(1, 2, 4, 8, 16),
    n_queries: int = 100,
    scale: str = "small",
    naive: bool = False,
    seed: int = 42,
) -> list[dict]:
    """EA/LD kNN times for varying k (Figure 4; Figure 8 with device=ssd;
    with ``naive=True`` also runs Code 2 and reports speedups — Figure 3)."""
    rows = []
    for name in datasets or QUICK_DATASETS:
        bundle = get_bundle(name, scale)
        ptldb = get_ptldb(name, device, scale)
        queries = batch_workload(bundle.timetable, n=n_queries, seed=seed)
        for k in ks:
            kmax = 4 if k <= 4 else 16
            families = ["knn_ea", "knn_ld"]
            if naive:
                families += ["naive_ea", "naive_ld"]
            tag = _ensure_targets(
                ptldb, bundle.timetable, density, kmax, tuple(families)
            )
            ea = run_batch(
                ptldb,
                f"{name}/EA-kNN/k={k}",
                (
                    (lambda q=q: ptldb.ea_knn(tag, q.source, q.depart_at, k))
                    for q in queries
                ),
            )
            ld = run_batch(
                ptldb,
                f"{name}/LD-kNN/k={k}",
                (
                    (lambda q=q: ptldb.ld_knn(tag, q.source, q.arrive_by, k))
                    for q in queries
                ),
            )
            row = {
                "dataset": name,
                "device": device,
                "D": density,
                "k": k,
                "EA_kNN_ms": round(ea.avg_total_ms, 3),
                "LD_kNN_ms": round(ld.avg_total_ms, 3),
            }
            if naive:
                ea_naive = run_batch(
                    ptldb,
                    f"{name}/EA-kNN-naive/k={k}",
                    (
                        (
                            lambda q=q: ptldb.ea_knn_naive(
                                tag, q.source, q.depart_at, k
                            )
                        )
                        for q in queries
                    ),
                )
                ld_naive = run_batch(
                    ptldb,
                    f"{name}/LD-kNN-naive/k={k}",
                    (
                        (
                            lambda q=q: ptldb.ld_knn_naive(
                                tag, q.source, q.arrive_by, k
                            )
                        )
                        for q in queries
                    ),
                )
                row["EA_naive_ms"] = round(ea_naive.avg_total_ms, 3)
                row["LD_naive_ms"] = round(ld_naive.avg_total_ms, 3)
                row["EA_speedup"] = round(
                    ea_naive.avg_total_ms / max(ea.avg_total_ms, 1e-9), 1
                )
                row["LD_speedup"] = round(
                    ld_naive.avg_total_ms / max(ld.avg_total_ms, 1e-9), 1
                )
            rows.append(row)
    return rows


def experiment_knn_density(
    datasets=None,
    device: str = "hdd",
    densities=PAPER_DENSITIES,
    k: int = 4,
    n_queries: int = 100,
    scale: str = "small",
    seed: int = 42,
) -> list[dict]:
    """Figure 5: kNN for k=4 and varying density D."""
    rows = []
    for name in datasets or QUICK_DATASETS:
        bundle = get_bundle(name, scale)
        ptldb = get_ptldb(name, device, scale)
        queries = batch_workload(bundle.timetable, n=n_queries, seed=seed)
        for density in densities:
            tag = _ensure_targets(
                ptldb, bundle.timetable, density, 4, ("knn_ea", "knn_ld")
            )
            ea = run_batch(
                ptldb,
                f"{name}/EA-kNN/D={density}",
                (
                    (lambda q=q: ptldb.ea_knn(tag, q.source, q.depart_at, k))
                    for q in queries
                ),
            )
            ld = run_batch(
                ptldb,
                f"{name}/LD-kNN/D={density}",
                (
                    (lambda q=q: ptldb.ld_knn(tag, q.source, q.arrive_by, k))
                    for q in queries
                ),
            )
            rows.append(
                {
                    "dataset": name,
                    "device": device,
                    "D": density,
                    "k": k,
                    "EA_kNN_ms": round(ea.avg_total_ms, 3),
                    "LD_kNN_ms": round(ld.avg_total_ms, 3),
                }
            )
    return rows


def experiment_otm(
    datasets=None,
    device: str = "hdd",
    densities=PAPER_DENSITIES,
    n_queries: int = 50,
    scale: str = "small",
    seed: int = 42,
) -> list[dict]:
    """Figure 6: EA/LD one-to-many for varying density D."""
    rows = []
    for name in datasets or QUICK_DATASETS:
        bundle = get_bundle(name, scale)
        ptldb = get_ptldb(name, device, scale)
        queries = batch_workload(bundle.timetable, n=n_queries, seed=seed)
        for density in densities:
            tag = _ensure_targets(
                ptldb, bundle.timetable, density, 4, ("otm_ea", "otm_ld")
            )
            ea = run_batch(
                ptldb,
                f"{name}/EA-OTM/D={density}",
                (
                    (lambda q=q: ptldb.ea_one_to_many(tag, q.source, q.depart_at))
                    for q in queries
                ),
            )
            ld = run_batch(
                ptldb,
                f"{name}/LD-OTM/D={density}",
                (
                    (lambda q=q: ptldb.ld_one_to_many(tag, q.source, q.arrive_by))
                    for q in queries
                ),
            )
            rows.append(
                {
                    "dataset": name,
                    "device": device,
                    "D": density,
                    "EA_OTM_ms": round(ea.avg_total_ms, 3),
                    "LD_OTM_ms": round(ld.avg_total_ms, 3),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# §4.3 — storage footprint
# ---------------------------------------------------------------------------
def experiment_storage(datasets=None, scale: str = "small") -> list[dict]:
    rows = []
    for name in datasets or QUICK_DATASETS:
        ptldb = get_ptldb(name, "ram", scale)
        bundle = get_bundle(name, scale)
        # make sure a representative aux family exists
        _ensure_targets(
            ptldb, bundle.timetable, 0.05, 4, ("knn_ea", "knn_ld", "otm_ea", "otm_ld")
        )
        report = ptldb.storage_report()
        rows.append(
            {
                "dataset": name,
                "tables": len(report["tables"]),
                "total_pages": report["total_pages"],
                "total_MiB": round(report["total_bytes"] / (1024 * 1024), 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md extensions)
# ---------------------------------------------------------------------------
def experiment_interval_ablation(
    dataset: str = "Madrid",
    intervals=(1800, 3600, 10800),
    density: float = 0.05,
    k: int = 4,
    n_queries: int = 50,
    scale: str = "small",
    seed: int = 42,
) -> list[dict]:
    """§3.2.1: the one-hour grouping interval vs smaller/larger intervals."""
    bundle = get_bundle(dataset, scale)
    ptldb = get_ptldb(dataset, "hdd", scale)
    queries = batch_workload(bundle.timetable, n=n_queries, seed=seed)
    rows = []
    for interval in intervals:
        tag = _ensure_targets(
            ptldb, bundle.timetable, density, 4, ("knn_ea",), interval_s=interval
        )
        ea = run_batch(
            ptldb,
            f"{dataset}/EA-kNN/interval={interval}",
            (
                (lambda q=q: ptldb.ea_knn(tag, q.source, q.depart_at, k))
                for q in queries
            ),
        )
        table = ptldb.db.catalog.get(ptldb.handle(tag).aux.knn_ea)
        rows.append(
            {
                "dataset": dataset,
                "interval_s": interval,
                "EA_kNN_ms": round(ea.avg_total_ms, 3),
                "table_rows": table.row_count,
                "heap_pages": len(table.heap.page_ids()),
            }
        )
    return rows


def experiment_ordering_ablation(
    dataset: str = "Austin",
    orderings=("event_degree", "neighbor_degree", "hub_sample", "random"),
    scale: str = "small",
) -> list[dict]:
    """Effect of the vertex-ordering strategy on label size and build time."""
    timetable = load_dataset(dataset, scale=scale)
    rows = []
    for ordering in orderings:
        started = time.perf_counter()
        labels, report = build_labels(timetable, ordering=ordering)
        rows.append(
            {
                "dataset": dataset,
                "ordering": ordering,
                "HL_per_V": round(labels.tuples_per_vertex, 1),
                "preproc_s": round(time.perf_counter() - started, 2),
                "pruned": report.pruned_tuples,
            }
        )
    return rows


def experiment_transfers(
    dataset: str = "Austin",
    max_trips: int = 3,
    n_queries: int = 100,
    scale: str = "small",
    seed: int = 42,
) -> list[dict]:
    """Future-work extension: transfer-bounded queries.

    Reports label size / build time of the transfer-aware labeling and, per
    trips budget, the SQL query time plus the measured exactness rate
    against the round-limited CSA oracle.
    """
    import random

    from repro.transfers import (
        TransferPTLDB,
        build_transfer_labels,
        earliest_arrival_bounded,
    )

    bundle = get_bundle(dataset, scale)
    labels, build = build_transfer_labels(
        bundle.timetable, max_trips=max_trips, add_dummies=True
    )
    ptldb = TransferPTLDB.from_timetable(
        bundle.timetable, device="hdd", labels=labels
    )
    rng = random.Random(seed)
    queries = v2v_workload(bundle.timetable, n=n_queries, seed=seed)
    rows = []
    for budget in range(1, max_trips + 1):
        batch = run_batch(
            _PtldbShim(ptldb),
            f"{dataset}/EA<=${budget}trips",
            (
                (
                    lambda q=q: ptldb.earliest_arrival(
                        q.source, q.goal, q.depart_at, budget
                    )
                )
                for q in queries
            ),
            cold_start=False,
        )
        sample = rng.sample(queries, min(30, len(queries)))
        exact = sum(
            1
            for q in sample
            if q.source == q.goal
            or ptldb.earliest_arrival(q.source, q.goal, q.depart_at, budget)
            == earliest_arrival_bounded(
                bundle.timetable, q.source, q.goal, q.depart_at, budget
            )
        )
        rows.append(
            {
                "dataset": dataset,
                "max_trips": budget,
                "EA_ms": round(batch.avg_total_ms, 3),
                "exact_rate": round(exact / len(sample), 3),
                "label_tuples_per_V": round(labels.tuples_per_vertex, 1),
                "build_s": round(build.seconds, 2),
            }
        )
    return rows


class _PtldbShim:
    """Adapts TransferPTLDB to run_batch's restart/cost interface."""

    def __init__(self, inner):
        self.db = inner.db

    def restart(self) -> None:
        self.db.restart()


def experiment_bufferpool_ablation(
    dataset: str = "Madrid",
    pool_sizes=(16, 64, 256, 4096),
    n_queries: int = 100,
    scale: str = "small",
    seed: int = 42,
) -> list[dict]:
    """Cold vs warm cache: EA v2v time as the buffer pool shrinks."""
    bundle = get_bundle(dataset, scale)
    rows = []
    for pool_pages in pool_sizes:
        ptldb = PTLDB.from_timetable(
            bundle.timetable, device="hdd", pool_pages=pool_pages, labels=bundle.labels
        )
        queries = v2v_workload(bundle.timetable, n=n_queries, seed=seed)
        ea = run_batch(
            ptldb,
            f"{dataset}/EA/pool={pool_pages}",
            (
                (lambda q=q: ptldb.earliest_arrival(q.source, q.goal, q.depart_at))
                for q in queries
            ),
        )
        rows.append(
            {
                "dataset": dataset,
                "pool_pages": pool_pages,
                "EA_ms": round(ea.avg_total_ms, 3),
                "EA_io_ms": round(ea.avg_io_ms, 3),
                "page_reads": ea.page_reads,
            }
        )
    return rows
