"""What building the operator pipeline costs a statement, per query family.

Builds Madrid ``paper`` (the ``v2v_hot`` labels) in memory with a pool that
holds every page, registers one random target set for kNN and OTM, and runs
every request on one untraced client, each once untimed to warm its rows
and then once timed. While the timed call runs, timers wrap the
executor's constructor (``BatchExecutor.__init__``) and the outermost
``BatchExecutor._emit`` calls — the ones no other ``_emit`` is inside,
which build an operator and, through it, its children — so their sum is
the time the statement spends building its pipeline, not pulling it
(each wrapper adds well under a microsecond). Printed per family (EA, kNN,
OTM): the median statement µs, the median construction µs and their
ratio, and the Python calls ``cProfile`` counts per warm *traced*
statement.

Run from the repository root (to compare two checkouts, copy the script
into the other one and alternate the runs)::

    PYTHONPATH=src python scripts/construction_cost.py --requests 400
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
import statistics
import time

from repro.minidb.sql.vectorized import BatchExecutor
from repro.ptldb import PTLDB
from repro.timetable import load_dataset

DATASET = "Madrid"
SCALE = "paper"
TARGETS = 20
K = 4
TAG = "cost"
PROFILED = 100  # traced statements per family under cProfile


def requests(ptldb, rng, n):
    """*n* ``(source, goal, departure)`` triples, uniform over stops and
    the timetable's span."""
    low, high = ptldb.time_low, ptldb.time_high
    stops = ptldb.num_stops
    return [
        (rng.randrange(stops), rng.randrange(stops), rng.randint(low, high))
        for _ in range(n)
    ]


def calls(client, family):
    """``fn(source, goal, departure)`` running *family* on *client*."""
    if family == "EA":
        return client.earliest_arrival
    if family == "kNN":
        return lambda s, _g, t: client.ea_knn(TAG, s, t, K)
    return lambda s, _g, t: client.ea_one_to_many(TAG, s, t)


class ConstructionTimer:
    """Seconds spent in ``BatchExecutor.__init__`` and the outermost
    ``BatchExecutor._emit`` calls since the last :meth:`reset`, while
    installed."""

    def __init__(self):
        self.spent = 0.0
        self.depth = 0
        self.saved = BatchExecutor.__init__, BatchExecutor._emit

    def install(self):
        init, emit = self.saved
        clock = time.perf_counter

        def timed_init(executor, *args, **kwargs):
            started = clock()
            init(executor, *args, **kwargs)
            self.spent += clock() - started

        def timed_emit(executor, node, env, hint):
            if self.depth:
                return emit(executor, node, env, hint)
            self.depth += 1
            started = clock()
            try:
                return emit(executor, node, env, hint)
            finally:
                self.spent += clock() - started
                self.depth -= 1

        BatchExecutor.__init__, BatchExecutor._emit = timed_init, timed_emit

    def uninstall(self):
        BatchExecutor.__init__, BatchExecutor._emit = self.saved

    def reset(self):
        self.spent = 0.0


def measure(run, reqs, timer):
    """Per-request ``(statement s, construction s)`` of *run*."""
    out = []
    clock = time.perf_counter
    for req in reqs:
        run(*req)  # warm: untimed
        timer.reset()
        started = clock()
        run(*req)
        out.append((clock() - started, timer.spent))
    return out


def profiled_calls(run, reqs) -> float:
    """Python calls ``cProfile`` counts per warm statement of *run*."""
    for req in reqs:
        run(*req)
    profile = cProfile.Profile()
    profile.enable()
    for req in reqs:
        run(*req)
    profile.disable()
    return pstats.Stats(profile).total_calls / len(reqs)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    ptldb = PTLDB.from_timetable(
        load_dataset(DATASET, scale=SCALE), pool_pages=1 << 16
    )
    targets = rng.sample(range(ptldb.num_stops), TARGETS)
    ptldb.build_target_set(TAG, targets, kmax=K, families=("knn_ea", "otm_ea"))
    reqs = requests(ptldb, rng, args.requests)
    untraced, traced = ptldb.client(tracing=False), ptldb.client(tracing=True)
    print(f"{DATASET} {SCALE}, {args.requests} requests, seed {args.seed}")
    print("| family | statement µs | construction µs | share | calls/statement (traced) |")
    print("|---|---:|---:|---:|---:|")
    timer = ConstructionTimer()
    for family in ("EA", "kNN", "OTM"):
        timer.install()
        try:
            times = measure(calls(untraced, family), reqs, timer)
        finally:
            timer.uninstall()
        total = statistics.median(t for t, _ in times) * 1e6
        built = statistics.median(c for _, c in times) * 1e6
        count = profiled_calls(calls(traced, family), reqs[:PROFILED])
        print(f"| {family} | {total:.1f} | {built:.1f} | {built / total:.3f} | {count:.0f} |")
    ptldb.db.close()


if __name__ == "__main__":
    main()
