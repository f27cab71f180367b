"""Columnar vs row label storage on the one engine (footprint + CPU gate).

Two PTLDB instances are loaded from the same preprocessed bundle and
differ in the ``STORAGE`` axis only:

* **baseline** — ``STORAGE=row`` label/aux tables;
* **candidate** — ``STORAGE=COLUMNAR`` tables: delta-compressed column
  segments, decoded straight into int64 ndarrays where the planner allows
  it (docs/STORAGE.md, docs/PERFORMANCE.md).

Both run the same v2v / kNN / one-to-many workloads and must return
identical results; the run **fails** unless the candidate's label-table
bytes are at most ``--max-bytes-ratio`` (default 0.6x) of the baseline's,
and unless its CPU per query is at least ``--min-speedup`` (default
0.75x) of the baseline's on every family — the compression may not be
bought with more than a third extra CPU.

The default configuration is the paper-scale Madrid feed with a dense
target set (``k=16``, target density 0.1): its per-hub label arrays sit
well above the ``NP_DECODE_MIN`` crossover, so the ndarray decode is what
gets measured.

Usage::

    PYTHONPATH=src python -m repro.bench.experiment_columnar \
        --queries 60 --out BENCH_columnar.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.runner import run_batch
from repro.bench.workload import batch_workload, v2v_workload
from repro.minidb.values import is_array_type
from repro.ptldb.framework import PTLDB

FAMILIES = ("v2v", "knn", "otm")
#: Label tables proper (the aux target tables are derived from them).
LABEL_TABLES = ("lout", "lin")


def _build(bundle, device: str, storage: str, density: float, kmax: int):
    """One fully loaded PTLDB + target-set tag for the given configuration."""
    from repro.bench.experiments import _ensure_targets

    ptldb = PTLDB.from_timetable(
        bundle.timetable,
        device=device,
        labels=bundle.labels,
        storage=storage,
    )
    tag = _ensure_targets(
        ptldb, bundle.timetable, density, kmax, ("knn_ea", "otm_ea")
    )
    return ptldb, tag


def _thunks(ptldb: PTLDB, tag: str, timetable, k: int, n_queries: int,
            seed: int) -> dict:
    v2v = v2v_workload(timetable, n=n_queries, seed=seed)
    batch = batch_workload(timetable, n=n_queries, seed=seed + 1)
    return {
        "v2v": [
            (lambda q=q: ptldb.earliest_arrival(q.source, q.goal, q.depart_at))
            for q in v2v
        ],
        "knn": [
            (lambda q=q: ptldb.ea_knn(tag, q.source, q.depart_at, k))
            for q in batch
        ],
        "otm": [
            (lambda q=q: ptldb.ea_one_to_many(tag, q.source, q.depart_at))
            for q in batch
        ],
    }


def _measure(ptldb: PTLDB, name: str, thunks, warmup: int):
    """Run the family, returning (BenchResult, per-query result values).

    ``warmup`` unmeasured passes come first (prepared-statement compile,
    plan cache, branch-predictor warmth); the measured pass then starts
    from a cold buffer pool like every other bench in this repo.
    """
    for _ in range(warmup):
        for thunk in thunks:
            thunk()
    values: list = []

    def observed(call):
        def wrapped():
            value = call()
            values.append(value)
            return value

        return wrapped

    result = run_batch(
        ptldb, name, (observed(t) for t in thunks), registry=None
    )
    return result, values


def label_bytes(ptldb: PTLDB) -> dict[str, int]:
    """Stored record bytes of every array-bearing table (labels + aux)."""
    catalog = ptldb.db.catalog
    out = {}
    for name in catalog.table_names():
        table = catalog.get(name)
        if any(is_array_type(col.type_tag) for col in table.schema.columns):
            out[name] = table.data_bytes
    return out


def _label_count(ptldb: PTLDB) -> int:
    """Total label entries (one (hub, t) pair) across lout and lin."""
    total = 0
    for name in LABEL_TABLES:
        table = ptldb.db.catalog.get(name)
        hubs = [c.name for c in table.schema.columns].index("hubs")
        total += sum(len(row[hubs]) for row in table.scan())
    return total


def _footprint_report(base: PTLDB, cand: PTLDB, max_ratio: float) -> dict:
    base_bytes = label_bytes(base)
    cand_bytes = label_bytes(cand)
    base_total = sum(base_bytes.values())
    cand_total = sum(cand_bytes.values())
    labels = _label_count(base)
    ratio = cand_total / base_total if base_total else 0.0
    return {
        "row_bytes": base_total,
        "columnar_bytes": cand_total,
        "bytes_ratio": round(ratio, 4),
        "max_bytes_ratio": max_ratio,
        "label_entries": labels,
        "row_bytes_per_label": round(base_total / labels, 2) if labels else 0.0,
        "columnar_bytes_per_label": (
            round(cand_total / labels, 2) if labels else 0.0
        ),
        "tables": {
            name: {"row": base_bytes[name], "columnar": cand_bytes[name]}
            for name in sorted(base_bytes)
        },
        "ok": ratio <= max_ratio,
    }


def run_columnar_experiment(
    dataset: str = "Madrid",
    scale: str = "paper",
    device: str = "ram",
    k: int = 16,
    density: float = 0.1,
    n_queries: int = 60,
    seed: int = 42,
    warmup: int = 1,
    min_speedup: float = 0.75,
    max_bytes_ratio: float = 0.6,
) -> dict:
    from repro.bench.experiments import get_bundle

    bundle = get_bundle(dataset, scale)
    kmax = 4 if k <= 4 else 16
    base, base_tag = _build(bundle, device, "row", density, kmax)
    cand, cand_tag = _build(bundle, device, "columnar", density, kmax)
    base_thunks = _thunks(base, base_tag, bundle.timetable, k, n_queries, seed)
    cand_thunks = _thunks(cand, cand_tag, bundle.timetable, k, n_queries, seed)

    families = []
    for family in FAMILIES:
        row, row_values = _measure(
            base, f"{dataset}/{family}/row", base_thunks[family], warmup
        )
        col, col_values = _measure(
            cand, f"{dataset}/{family}/columnar", cand_thunks[family], warmup
        )
        speedup = row.avg_cpu_ms / col.avg_cpu_ms if col.avg_cpu_ms else 0.0
        identical = row_values == col_values
        families.append(
            {
                "family": family,
                "queries": row.queries,
                "row_cpu_ms": round(row.avg_cpu_ms, 3),
                "columnar_cpu_ms": round(col.avg_cpu_ms, 3),
                "cpu_speedup": round(speedup, 2),
                "min_speedup": min_speedup,
                "results_identical": identical,
                "ok": identical and speedup >= min_speedup,
            }
        )
    footprint = _footprint_report(base, cand, max_bytes_ratio)
    return {
        "dataset": dataset,
        "scale": scale,
        "device": device,
        "k": k,
        "target_density": density,
        "queries_per_family": n_queries,
        "families": families,
        "footprint": footprint,
        "ok": footprint["ok"] and all(f["ok"] for f in families),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Columnar vs row label storage on the one engine "
            "(fails outside the footprint/CPU gates)"
        )
    )
    parser.add_argument("--dataset", default="Madrid")
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--device", default="ram", choices=["hdd", "ssd", "ram"])
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--density", type=float, default=0.1)
    parser.add_argument("--queries", type=int, default=60, help="per family")
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--min-speedup", type=float, default=0.75)
    parser.add_argument("--max-bytes-ratio", type=float, default=0.6)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    report = run_columnar_experiment(
        args.dataset,
        scale=args.scale,
        device=args.device,
        k=args.k,
        density=args.density,
        n_queries=args.queries,
        warmup=args.warmup,
        min_speedup=args.min_speedup,
        max_bytes_ratio=args.max_bytes_ratio,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    for fam in report["families"]:
        print(
            f"{fam['family']:4s} row={fam['row_cpu_ms']:8.3f} ms "
            f"columnar={fam['columnar_cpu_ms']:8.3f} ms "
            f"speedup={fam['cpu_speedup']:5.2f}x "
            f"(gate {fam['min_speedup']:.1f}x) "
            f"identical={fam['results_identical']} ok={fam['ok']}"
        )
    foot = report["footprint"]
    print(
        f"footprint: columnar {foot['columnar_bytes']} / "
        f"row {foot['row_bytes']} bytes = {foot['bytes_ratio']:.3f}x "
        f"(gate {foot['max_bytes_ratio']:.2f}x, "
        f"{foot['columnar_bytes_per_label']} vs "
        f"{foot['row_bytes_per_label']} bytes/label) ok={foot['ok']}"
    )
    if not report["ok"]:
        print("columnar perf/footprint gate FAILED", file=sys.stderr)
        return 1
    print("columnar perf/footprint gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
