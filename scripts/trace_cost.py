"""What the default-on operator trace costs a statement, per query family.

Builds Madrid ``paper`` (the ``v2v_hot`` labels) in memory with a pool that
holds every page, registers one random target set for kNN and OTM, and
opens two clients on the same database: one traced (``PTLDB.client()``,
the default) and one untraced (``client(tracing=False)``). Every request
runs once on each client, the order alternating from request to request
(traced first on even requests, untraced first on odd ones), so neither
side always gets the other's warm caches; one untimed call per client and
request warms the rows first. Printed per family (EA, kNN, OTM): the
median wall time of each side in µs and the tracing share,
``1 - untraced / traced``.

Run from the repository root::

    PYTHONPATH=src python scripts/trace_cost.py --requests 400
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.ptldb import PTLDB
from repro.timetable import load_dataset

DATASET = "Madrid"
SCALE = "paper"
TARGETS = 20
K = 4
TAG = "cost"


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


def measure(ptldb, family, reqs):
    """Per-request wall times (s) of the traced and the untraced client."""
    on, off = ptldb.client(), ptldb.client(tracing=False)
    sides = {"on": calls(on, family), "off": calls(off, family)}
    times = {"on": [], "off": []}
    clock = time.perf_counter
    for i, req in enumerate(reqs):
        order = ("on", "off") if i % 2 == 0 else ("off", "on")
        for side in order:
            sides[side](*req)  # warm: untimed
        for side in order:
            started = clock()
            sides[side](*req)
            times[side].append(clock() - started)
    assert on.last_trace is not None and off.last_trace is None
    return times


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
    print(f"{DATASET} {SCALE}, {args.requests} requests, seed {args.seed}")
    print("| family | traced µs | untraced µs | tracing_share |")
    print("|---|---:|---:|---:|")
    for family in ("EA", "kNN", "OTM"):
        times = measure(ptldb, family, reqs)
        on = statistics.median(times["on"]) * 1e6
        off = statistics.median(times["off"]) * 1e6
        print(f"| {family} | {on:.1f} | {off:.1f} | {1 - off / on:.3f} |")
    ptldb.db.close()


if __name__ == "__main__":
    main()
