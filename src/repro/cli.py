"""Command-line interface.

Subcommands::

    python -m repro.cli datasets
    python -m repro.cli generate  --dataset Austin --gtfs ./feed
    python -m repro.cli preprocess --dataset Austin --labels austin.ttl
    python -m repro.cli preprocess --dataset Denver --scale table7 \\
        --workers 4 --cache-dir .label-cache --labels denver.ttl
    python -m repro.cli preprocess --gtfs ./feed --labels feed.ttl
    python -m repro.cli query ea  --labels austin.ttl --dataset Austin \\
        --source 5 --goal 17 --time 32400
    python -m repro.cli query knn --labels austin.ttl --dataset Austin \\
        --source 5 --time 32400 --k 3 --targets 2,4,18
    python -m repro.cli bench --experiment table7 --datasets Austin,Madrid
    python -m repro.cli serve --dataset Austin --shards 2 --queries 20
    python -m repro.cli lint --corpus
    python -m repro.cli lint --sql "SELECT v FROM lout WHERE v=1"
    python -m repro.cli lint --file queries.sql
    python -m repro.cli sanitize --strict
    python -m repro.cli sanitize --path src/repro/minidb --json

``lint`` (SQL statements) and ``sanitize`` (storage-layer concurrency
discipline, docs/SANITIZER.md) share one reporting convention: exit code 1
when any error-severity diagnostic fires (0 otherwise, 2 for usage
errors), and ``--json`` emits ``{"tool", "diagnostics": [{code, severity,
message, file, line, col}], "errors", "warnings", "ok"}`` for CI.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import format_table
from repro.errors import ReproError
from repro.labeling.io import load_labels, load_or_build, save_labels
from repro.ptldb.framework import PTLDB
from repro.timetable.datasets import (
    DATASET_NAMES,
    SCALE_NAMES,
    load_dataset,
    paper_row,
)
from repro.timetable.gtfs import load_feed, write_feed


def _load_timetable(args):
    if getattr(args, "gtfs", None) and getattr(args, "dataset", None):
        raise ReproError("pass either --dataset or --gtfs, not both")
    if getattr(args, "gtfs", None):
        return load_feed(args.gtfs)
    if getattr(args, "dataset", None):
        return load_dataset(args.dataset, scale=getattr(args, "scale", "small"))
    raise ReproError("one of --dataset or --gtfs is required")


def cmd_datasets(_args) -> int:
    rows = []
    for name in DATASET_NAMES:
        paper = paper_row(name)
        tt = load_dataset(name)
        rows.append(
            [
                name,
                tt.num_stops,
                tt.num_connections,
                round(tt.average_degree, 1),
                paper.stops,
                paper.avg_degree,
            ]
        )
    print(
        format_table(
            ["dataset", "V", "E", "deg", "paper V", "paper deg"],
            rows,
            title="Table 7 datasets (scaled / paper)",
        )
    )
    return 0


def cmd_generate(args) -> int:
    timetable = _load_timetable(args)
    write_feed(timetable, args.gtfs_out, city=args.dataset or "synthetic")
    print(f"wrote GTFS feed ({timetable.stats()}) to {args.gtfs_out}")
    return 0


def cmd_preprocess(args) -> int:
    timetable = _load_timetable(args)
    labels, report, hit = load_or_build(
        timetable,
        cache_dir=args.cache_dir,
        ordering=args.ordering,
        workers=args.workers,
    )
    save_labels(labels, args.labels)
    source = "cache hit" if hit else f"built in {report.seconds:.2f}s"
    print(f"labels: {labels.stats()} -> {args.labels} ({source})")
    if not hit:
        print(
            f"  tuples: {report.kept_tuples} kept of "
            f"{report.candidate_tuples} candidates "
            f"({report.pruned_tuples} pruned)"
        )
        print(
            f"  stages: workers={report.workers} "
            f"setup={report.setup_s:.2f}s pipeline={report.pipeline_s:.2f}s "
            f"finalize={report.finalize_s:.2f}s"
        )
        print(
            f"  cpu: scans={report.scan_cpu_s:.2f}s "
            f"coordinator={report.coordinator_cpu_s:.2f}s "
            f"cpu/wall={report.cpu_to_wall:.2f}"
        )
    return 0


def _build_ptldb(args) -> PTLDB:
    timetable = _load_timetable(args)
    labels = load_labels(args.labels) if args.labels else None
    return PTLDB.from_timetable(timetable, device=args.device, labels=labels)


def _print_trace(args, ptldb) -> None:
    if getattr(args, "trace", False) and ptldb.last_trace is not None:
        print(ptldb.last_trace.format(), file=sys.stderr)


def cmd_query(args) -> int:
    ptldb = _build_ptldb(args)
    kind = args.kind
    if kind in ("ea", "ld", "sd"):
        if args.goal is None:
            raise ReproError(f"{kind} queries need --goal")
        if kind == "ea":
            value = ptldb.earliest_arrival(args.source, args.goal, args.time)
        elif kind == "ld":
            value = ptldb.latest_departure(args.source, args.goal, args.time)
        else:
            if args.time2 is None:
                raise ReproError("sd queries need --time2")
            value = ptldb.shortest_duration(
                args.source, args.goal, args.time, args.time2
            )
        print("no journey" if value is None else value)
        _print_trace(args, ptldb)
        return 0
    # batched queries need a target set
    if not args.targets:
        raise ReproError(f"{kind} queries need --targets")
    targets = {int(t) for t in args.targets.split(",")}
    families = {
        "knn": ("knn_ea", "knn_ld"),
        "otm": ("otm_ea", "otm_ld"),
    }[kind]
    ptldb.build_target_set("cli", targets, kmax=max(args.k, 1), families=families)
    if kind == "knn":
        if args.ld:
            result = ptldb.ld_knn("cli", args.source, args.time, args.k)
        else:
            result = ptldb.ea_knn("cli", args.source, args.time, args.k)
        for stop, value in result:
            print(f"{stop}\t{value}")
    else:
        if args.ld:
            result = ptldb.ld_one_to_many("cli", args.source, args.time)
        else:
            result = ptldb.ea_one_to_many("cli", args.source, args.time)
        for stop in sorted(result):
            print(f"{stop}\t{result[stop]}")
    _print_trace(args, ptldb)
    return 0


def cmd_bench(args) -> int:
    from repro.bench import experiments as exp

    datasets = args.datasets.split(",") if args.datasets else None
    runners = {
        "table7": lambda: exp.experiment_table7(datasets),
        "v2v": lambda: exp.experiment_v2v(datasets, args.device, args.queries),
        "knn": lambda: exp.experiment_knn(
            datasets, args.device, 0.1, (1, 4, 16), args.queries, naive=True
        ),
        "otm": lambda: exp.experiment_otm(
            datasets, args.device, (0.01, 0.1), args.queries
        ),
        "storage": lambda: exp.experiment_storage(datasets),
    }
    if args.experiment not in runners:
        raise ReproError(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {sorted(runners)}"
        )
    rows = runners[args.experiment]()
    if rows:
        headers = list(rows[0].keys())
        print(
            format_table(
                headers, [[r[h] for h in headers] for r in rows],
                title=f"experiment: {args.experiment}",
            )
        )
    return 0


def cmd_serve(args) -> int:
    """Build (or reuse) a shard set and serve a sample workload through the
    multi-process router, printing per-shard metrics on the way out."""
    import os
    import shutil
    import tempfile

    from repro.bench.workload import (
        TAG,
        build_workload,
        random_targets,
        run_query,
    )
    from repro.labeling.ttl import build_labels
    from repro.serving import Router, build_shards, load_manifest

    timetable = _load_timetable(args)
    directory = args.dir or tempfile.mkdtemp(prefix="repro_serve_")
    manifest_path = os.path.join(directory, "manifest.json")
    if args.dir and os.path.exists(manifest_path):
        manifest = load_manifest(directory)
        print(f"reusing shard set in {directory}")
    else:
        labels, _ = build_labels(timetable, add_dummies=True)
        targets = sorted(random_targets(timetable, density=0.1, seed=7))
        manifest = build_shards(
            directory,
            labels,
            args.shards,
            target_sets=[
                {"tag": TAG, "targets": targets, "kmax": max(args.k, 1)}
            ],
        )
        print(
            f"built {args.shards} shard(s) in {directory} "
            f"({len(targets)} targets)"
        )
    try:
        with Router(
            manifest, replicas=args.replicas, max_queue_depth=args.depth
        ) as router:
            items = build_workload(timetable, args.queries, args.k, seed=17)
            for item in items:
                run_query(router, item)
            merged = router.gather_metrics().to_dict()
            counters = merged["counters"]
            rows = [
                [name, counters[name]]
                for name in sorted(counters)
                if "worker.requests" in name or "result_cache" in name
            ]
            print(
                format_table(
                    ["counter", "value"],
                    rows,
                    title=(
                        f"served {len(items)} queries over "
                        f"{manifest.num_shards} shard(s) x {args.replicas} "
                        f"replica(s)"
                    ),
                )
            )
    finally:
        if not args.dir:
            shutil.rmtree(directory, ignore_errors=True)
    return 0


def _lint_database():
    """In-memory database whose catalog mirrors a full PTLDB deployment:
    the label tables plus every auxiliary table family the corpus queries
    reference (built from the same DDL helpers the real builders use)."""
    from repro.minidb.engine import Database
    from repro.ptldb import aux
    from repro.ptldb.analytics import CONNECTIONS_DDL, TRIPS_DDL
    from repro.ptldb.schema import LIN_DDL, LOUT_DDL
    from repro.ptldb.sqltext import CORPUS_TAG

    db = Database()
    tag = CORPUS_TAG
    for ddl in (
        LOUT_DDL,
        LIN_DDL,
        CONNECTIONS_DDL,
        TRIPS_DDL,
        aux.targets_ddl(f"tgt_{tag}"),
        aux.hours_ddl(f"hours_{tag}"),
        aux.naive_ea_ddl(f"knn_ea_naive_{tag}"),
        aux.naive_ld_ddl(f"knn_ld_naive_{tag}"),
        aux.grouped_ea_ddl(f"knn_ea_{tag}"),
        aux.grouped_ld_ddl(f"knn_ld_{tag}"),
        aux.grouped_ea_ddl(f"otm_ea_{tag}"),
        aux.grouped_ld_ddl(f"otm_ld_{tag}"),
    ):
        db.execute(ddl)
    # Comma joins order base tables by row count, so give the catalog a
    # deployment's shape: label rows for two vertices, one of them a target.
    for table in ("lout", "lin"):
        db.execute(f"INSERT INTO {table} (v) VALUES (0), (1)")
    db.execute(f"INSERT INTO tgt_{tag} VALUES (1)")
    return db


def _split_statements(text: str) -> list[str]:
    """Split a SQL script on top-level semicolons (quote-aware)."""
    out, buf, in_str = [], [], False
    for ch in text:
        if ch == "'":
            in_str = not in_str
        if ch == ";" and not in_str:
            stmt = "".join(buf).strip()
            if stmt:
                out.append(stmt)
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        out.append(tail)
    return out


def _diag_record(diag, file: str, sql: str | None = None) -> dict:
    """One diagnostic in the shared ``lint``/``sanitize`` JSON shape."""
    from repro.minidb.sql.diagnostics import line_col

    line = col = 0
    if diag.span is not None and sql is not None:
        line, col = line_col(sql, diag.span.start)
    return {
        "code": diag.code,
        "severity": diag.severity,
        "message": diag.message,
        "file": file,
        "line": line,
        "col": col,
    }


def _emit_json(tool: str, records: list[dict], ok: bool) -> None:
    import json

    print(
        json.dumps(
            {
                "tool": tool,
                "diagnostics": records,
                "errors": sum(1 for r in records if r["severity"] == "error"),
                "warnings": sum(
                    1 for r in records if r["severity"] == "warning"
                ),
                "ok": ok,
            },
            indent=2,
        )
    )


def cmd_lint(args) -> int:
    from repro.errors import SQLError
    from repro.minidb.sql import ast
    from repro.minidb.sql.analyzer import analyze, check_paper_bounds
    from repro.minidb.sql.parser import parse
    from repro.ptldb.sqltext import build_corpus, corpus

    db = _lint_database()
    if args.corpus:
        cases = [(q.name, q.sql, q.family) for q in corpus() + build_corpus()]
    elif args.sql:
        cases = [
            (f"stmt{i + 1}", sql, None)
            for i, sql in enumerate(_split_statements(args.sql))
        ]
    elif args.file:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
        cases = [
            (f"{args.file}:{i + 1}", sql, None)
            for i, sql in enumerate(_split_statements(text))
        ]
    else:
        raise ReproError("lint needs one of --corpus, --sql or --file")

    as_json = getattr(args, "json", False)
    records: list[dict] = []
    failures = 0
    for name, sql, family in cases:
        try:
            stmt = parse(sql)
        except SQLError as exc:
            if not as_json:
                print(f"{name}: SYNTAX {exc}")
            records.append(
                {
                    "code": "SYN001",
                    "severity": "error",
                    "message": str(exc),
                    "file": name,
                    "line": 0,
                    "col": 0,
                }
            )
            failures += 1
            continue
        analysis = analyze(stmt, db.catalog, sql=sql)
        if family is not None:
            check_paper_bounds(analysis, family)
        for diag in analysis.diagnostics:
            record = _diag_record(diag, name, sql)
            # APL diagnostics are warnings for execution but failures for
            # lint: the whole point is proving the access bounds hold.
            if diag.code.startswith("APL"):
                record["severity"] = "error"
            records.append(record)
        bad = analysis.errors or any(
            d.code.startswith("APL") for d in analysis.diagnostics
        )
        if bad:
            failures += 1
            if not as_json:
                print(f"{name}: FAIL")
                print(analysis.render())
        elif not as_json:
            paths = ", ".join(p.describe() for p in analysis.access_paths)
            print(f"{name}: ok — {paths or 'no table access'}")
            for diag in analysis.warnings:
                print(diag.render(sql))
            if args.plan and analysis.plan is not None:
                from repro.minidb.sql.plan import explain_lines

                for line in explain_lines(analysis.plan):
                    print(f"    {line}")
        # Apply DDL so later statements in the same script see the table.
        if isinstance(stmt, (ast.CreateTable, ast.DropTable)) and analysis.ok:
            db.execute(sql)
    if as_json:
        _emit_json("lint", records, ok=failures == 0)
        return 1 if failures else 0
    if failures:
        print(f"lint: {failures} of {len(cases)} statement(s) failed")
        return 1
    print(f"lint: {len(cases)} statement(s) ok")
    return 0


def cmd_sanitize(args) -> int:
    """Run the static concurrency-discipline checks (docs/SANITIZER.md)."""
    from pathlib import Path

    import repro
    from repro.minidb.sanitize.static import check_tree

    root = Path(args.path) if args.path else Path(repro.__file__).parent
    if not root.exists():
        raise ReproError(f"sanitize: no such path {str(root)!r}")
    reports = check_tree(root)
    records = []
    errors = warnings = 0
    for report in reports:
        for diag in report.diagnostics:
            records.append(_diag_record(diag, report.path, report.source))
        errors += len(report.errors)
        warnings += len(report.warnings)
    # --strict promotes warnings to failures (the CI gate); the exit-code
    # convention otherwise matches lint: nonzero on any error diagnostic.
    failing = errors + (warnings if args.strict else 0)
    if args.json:
        _emit_json("sanitize", records, ok=failing == 0)
        return 1 if failing else 0
    for report in reports:
        if report.diagnostics:
            print(report.render())
    checked = len(reports)
    if failing:
        print(
            f"sanitize: {errors} error(s), {warnings} warning(s) "
            f"in {checked} file(s)"
        )
        return 1
    print(f"sanitize: {checked} file(s) clean ({warnings} warning(s))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table 7 dataset profiles")

    p = sub.add_parser("generate", help="write a dataset as a GTFS feed")
    p.add_argument("--dataset", choices=DATASET_NAMES)
    p.add_argument("--gtfs", help="input GTFS dir (instead of --dataset)")
    p.add_argument("--gtfs-out", required=True)
    p.add_argument("--scale", default="small", choices=SCALE_NAMES)

    p = sub.add_parser("preprocess", help="run TTL preprocessing, save labels")
    p.add_argument("--dataset", choices=DATASET_NAMES)
    p.add_argument("--gtfs")
    p.add_argument("--labels", required=True, help="output label file")
    p.add_argument("--ordering", default="event_degree")
    p.add_argument("--scale", default="small", choices=SCALE_NAMES)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the per-hub profile scans: 1 scans in this "
        "process, more scan ahead of the pruning on a pool (overlap on "
        "multi-core hosts; the labels are identical either way)",
    )
    p.add_argument(
        "--cache-dir",
        help="label cache directory keyed by dataset digest; a repeat run "
        "over the same timetable reuses the cached labels",
    )

    p = sub.add_parser("query", help="answer a PTLDB query")
    p.add_argument("kind", choices=["ea", "ld", "sd", "knn", "otm"])
    p.add_argument("--dataset", choices=DATASET_NAMES)
    p.add_argument("--gtfs")
    p.add_argument("--labels", help="precomputed label file (else preprocess)")
    p.add_argument("--device", default="ram", choices=["ram", "hdd", "ssd"])
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--goal", type=int)
    p.add_argument("--time", type=int, required=True)
    p.add_argument("--time2", type=int, help="window end for sd")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--targets", help="comma-separated target stops")
    p.add_argument("--ld", action="store_true", help="LD variant for knn/otm")
    p.add_argument("--scale", default="small", choices=SCALE_NAMES)
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the per-operator query trace (stderr) after the result",
    )

    p = sub.add_parser("bench", help="run one experiment, print its table")
    p.add_argument("--experiment", required=True)
    p.add_argument("--datasets")
    p.add_argument("--device", default="hdd", choices=["ram", "hdd", "ssd"])
    p.add_argument("--queries", type=int, default=50)

    p = sub.add_parser(
        "serve",
        help="serve queries through the sharded multi-process router",
    )
    p.add_argument("--dataset", choices=DATASET_NAMES)
    p.add_argument("--gtfs")
    p.add_argument("--scale", default="small", choices=SCALE_NAMES)
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--queries", type=int, default=20, help="sample workload size")
    p.add_argument("--k", type=int, default=2)
    p.add_argument(
        "--depth", type=int, default=8, help="per-worker admission bound"
    )
    p.add_argument(
        "--dir",
        help="shard directory (kept and reused across runs; default: temp)",
    )

    p = sub.add_parser(
        "lint",
        help="statically analyze SQL and check the paper's access bounds",
    )
    p.add_argument(
        "--corpus",
        action="store_true",
        help="lint the canned paper query corpus and the target-set builds",
    )
    p.add_argument("--sql", help="ad-hoc SQL text (';'-separated)")
    p.add_argument("--file", help="path to a SQL script")
    p.add_argument(
        "--plan",
        action="store_true",
        help="print each clean statement's physical plan (planner output)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable diagnostic report",
    )

    p = sub.add_parser(
        "sanitize",
        help="statically check the storage layer's concurrency discipline",
    )
    p.add_argument(
        "--path",
        help="file or directory to check (default: the repro package)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (the CI gate)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable diagnostic report",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "generate": cmd_generate,
        "preprocess": cmd_preprocess,
        "query": cmd_query,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "lint": cmd_lint,
        "sanitize": cmd_sanitize,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
