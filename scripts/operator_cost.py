"""Where a kNN or OTM statement's time goes, operator by operator.

Builds Salt Lake City ``paper`` in memory with a pool that holds every
page, registers one random 24-target set (``kmax=4``, the EA families) and
runs *requests* random ``(source, departure)`` requests per family on a
traced client: each request once untimed (it warms the rows), then once
traced. Printed per family (kNN, OTM):

* each plan node's median self time in µs over the traced runs, in plan
  order (an operator fused into its parent reads 0);
* the statement total (the traced statement's wall time);
* ``TTLQueryEngine``'s in-memory answer time for the same requests (one
  label join per target; the median of one timed run per request) and the
  ratio of the statement total to it.

Run from the repository root::

    PYTHONPATH=src python scripts/operator_cost.py --requests 200
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.labeling import TTLQueryEngine
from repro.ptldb import PTLDB
from repro.timetable import load_dataset

DATASET = "Salt Lake City"
SCALE = "paper"
TARGETS = 24
K = 4
TAG = "cost"


def families(client, engine, targets):
    """Per family: ``(sql(source, departure), memory(source, departure))``."""
    return {
        "kNN": (
            lambda s, t: client.ea_knn(TAG, s, t, K),
            lambda s, t: engine.ea_knn(s, targets, t, K),
        ),
        "OTM": (
            lambda s, t: client.ea_one_to_many(TAG, s, t),
            lambda s, t: engine.ea_one_to_many(s, targets, t),
        ),
    }


def measure(client, sql, memory, reqs):
    """Per node label (in plan order) its self µs per request, the traced
    statement totals (µs) and the in-memory answer times (µs)."""
    nodes: dict[str, list[float]] = {}
    totals, mem = [], []
    clock = time.perf_counter
    for source, depart in reqs:
        sql(source, depart)  # warm: untimed
        sql(source, depart)
        trace = client.last_trace
        totals.append(trace.total_ms * 1e3)
        for i, op in enumerate(trace.operators()):
            nodes.setdefault(f"{i:02d} {op.label}", []).append(op.self_time_ms * 1e3)
        started = clock()
        memory(source, depart)
        mem.append((clock() - started) * 1e6)
    return nodes, totals, mem


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    ptldb = PTLDB.from_timetable(
        load_dataset(DATASET, scale=SCALE), pool_pages=1 << 16
    )
    targets = rng.sample(range(ptldb.num_stops), TARGETS)
    ptldb.build_target_set(TAG, targets, kmax=K, families=("knn_ea", "otm_ea"))
    engine = TTLQueryEngine(ptldb.labels)
    low, high = ptldb.time_low, ptldb.time_high
    reqs = [
        (rng.randrange(ptldb.num_stops), rng.randint(low, high))
        for _ in range(args.requests)
    ]
    client = ptldb.client(tracing=True)
    print(f"{DATASET} {SCALE}, {TARGETS} targets, kmax={K}, "
          f"{args.requests} traced requests, seed {args.seed}")
    for family, (sql, memory) in families(client, engine, targets).items():
        nodes, totals, mem = measure(client, sql, memory, reqs)
        total, floor = statistics.median(totals), statistics.median(mem)
        print(f"\n{family}\n\n| node | self µs |\n|---|---:|")
        for label, values in nodes.items():
            if len(values) == len(reqs):  # every request planned this node
                print(f"| {label} | {statistics.median(values):.1f} |")
        print(f"| statement total | {total:.1f} |")
        print(f"| TTLQueryEngine | {floor:.1f} |")
        print(f"| total / in-memory | {total / floor:.1f}x |")
    ptldb.db.close()


if __name__ == "__main__":
    main()
