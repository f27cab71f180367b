"""Where a target-set build's time goes: parse + plan, SELECT, row insert,
commit.

Builds target sets as ``bench_e2e``'s ``target_set_build`` workload does:
Salt Lake City ``paper``, a file-backed database (so every write statement
commits to the WAL), five targets per build from disjoint random draws,
families ``knn_ea`` + ``otm_ld``, ``kmax`` 4. Each build's wall time is
split by timers around four engine entry points:

* parse + plan — ``Database._ensure_cached`` (parse, bind, plan);
* SELECT — ``BatchExecutor._drain`` (an ``INSERT … SELECT``'s source rows);
* row insert — the ``InsertPlan`` runner minus the SELECT it drained;
* commit — ``Database._commit`` (catalog rows, then the WAL commit);
* other — the rest of ``build_target_set``.

Two more columns count instead of time: *log bytes*, the bytes each build
appends to the ``.wal`` (``WriteAheadLog.commit`` is the one appender, so
bytes a checkpoint later truncates count too), and *tables*, the catalog's
size after the build (each build adds four).

Every seed gets a fresh database; its first ``--warmup`` builds are not
timed. The output is a markdown table: per seed, the median over its
builds of each column (ms per build for the stages), then the median over
the seeds.

Run from the repository root::

    PYTHONPATH=src python scripts/build_stages.py --seeds 1 2 3 --builds 22

``--warmup 19 --builds 5`` measures builds at ≈ 86 tables, ``--warmup 97
--builds 5`` at ≈ 400.
"""

from __future__ import annotations

import argparse
import random
import statistics
import tempfile
import time
from pathlib import Path

from repro.labeling import preprocess
from repro.minidb import Database
from repro.minidb.sql import plan as phys
from repro.minidb.sql.vectorized import BatchExecutor
from repro.minidb.wal import WriteAheadLog
from repro.ptldb import PTLDB
from repro.timetable import load_dataset

STAGES = ("parse + plan", "SELECT", "row insert", "commit", "other", "build")
COLUMNS = STAGES + ("log bytes", "tables")
DATASET = "Salt Lake City"
SCALE = "paper"
TARGETS = 5
FAMILIES = ("knn_ea", "otm_ld")
KMAX = 4


class StageClock:
    """Timers around the engine's entry points, summed per build."""

    def __init__(self):
        self.totals = dict.fromkeys(STAGES, 0.0)
        self.log_bytes = 0

    def wrap(self, owner, name, stage, table=None):
        """Time ``owner.name`` (or the entry *name* of the dict *table*)
        into *stage*; returns the undo."""
        original = table[name] if table is not None else getattr(owner, name)
        totals = self.totals

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                totals[stage] += time.perf_counter() - started

        if table is not None:
            table[name] = timed
            return lambda: table.__setitem__(name, original)
        setattr(owner, name, timed)
        return lambda: setattr(owner, name, original)

    def install(self):
        return [
            self.wrap(Database, "_ensure_cached", "parse + plan"),
            self.wrap(BatchExecutor, "_drain", "SELECT"),
            self.wrap(None, phys.InsertPlan, "row insert", BatchExecutor._RUN),
            self.wrap(Database, "_commit", "commit"),
            self.count_log_bytes(),
        ]

    def count_log_bytes(self):
        """Add what each ``WriteAheadLog.commit`` appends to ``log_bytes``;
        returns the undo."""
        original = WriteAheadLog.commit

        def counted(wal, *args):
            size = wal.size_bytes()
            try:
                return original(wal, *args)
            finally:
                self.log_bytes += wal.size_bytes() - size

        WriteAheadLog.commit = counted
        return lambda: setattr(WriteAheadLog, "commit", original)

    def take(self, build_s: float) -> dict:
        """This build's stages in ms and its log bytes; resets both."""
        t = self.totals
        out = {
            "parse + plan": t["parse + plan"],
            "SELECT": t["SELECT"],
            "row insert": t["row insert"] - t["SELECT"],
            "commit": t["commit"],
            "build": build_s,
        }
        out["other"] = build_s - sum(
            out[s] for s in ("parse + plan", "SELECT", "row insert", "commit")
        )
        for stage in t:
            t[stage] = 0.0
        out = {stage: value * 1e3 for stage, value in out.items()}
        out["log bytes"], self.log_bytes = self.log_bytes, 0
        return out


def target_sets(num_stops: int, seed: int, count: int):
    """*count* sets of ``TARGETS`` stops, disjoint until the stops run out."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        stops = list(range(num_stops))
        rng.shuffle(stops)
        sets += [
            stops[i : i + TARGETS] for i in range(0, num_stops - TARGETS + 1, TARGETS)
        ]
    return sets[:count]


def run_seed(labels, num_stops, seed, warmup, builds, clock) -> list[dict]:
    with tempfile.TemporaryDirectory() as directory:
        db = Database(path=str(Path(directory) / "stages.minidb"))
        ptldb = PTLDB(db, labels)
        rows = []
        for i, targets in enumerate(target_sets(num_stops, seed, warmup + builds)):
            clock.take(0.0)
            started = time.perf_counter()
            ptldb.build_target_set(f"b{i}", targets, kmax=KMAX, families=FAMILIES)
            stages = clock.take(time.perf_counter() - started)
            stages["tables"] = len(db.catalog.table_names())
            if i >= warmup:
                rows.append(stages)
        db.close()
    return rows


def cells(median: dict) -> str:
    """One table row's cells: ms to two places, the counts whole."""
    return " | ".join(
        f"{median[c]:.2f}" if c in STAGES else f"{median[c]:.0f}" for c in COLUMNS
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--builds", type=int, default=22, help="timed builds per seed")
    parser.add_argument("--warmup", type=int, default=2, help="untimed builds first")
    args = parser.parse_args(argv)

    timetable = load_dataset(DATASET, scale=SCALE)
    labels = preprocess(timetable, workers=1)
    clock = StageClock()
    undo = clock.install()
    medians = []
    try:
        print("| seed | " + " | ".join(COLUMNS) + " |")
        print("|---" * (len(COLUMNS) + 1) + "|")
        for seed in args.seeds:
            rows = run_seed(
                labels, timetable.num_stops, seed, args.warmup, args.builds, clock
            )
            median = {c: statistics.median(r[c] for r in rows) for c in COLUMNS}
            medians.append(median)
            print(f"| {seed} | {cells(median)} |")
    finally:
        for restore in undo:
            restore()
    overall = {c: statistics.median(m[c] for m in medians) for c in COLUMNS}
    print(f"| median | {cells(overall)} |")


if __name__ == "__main__":
    main()
