"""Query workload generation following the paper's protocol (§4).

"For each experiment, we used 1,000 random start vertices (and goal
vertices for vertex-to-vertex queries) ... Starting timestamps for EA and
SD queries are randomly selected from the first quarter of timestamp
ranges, whereas ending timestamps for LD and SD queries are randomly
selected from the fourth quarter of timestamp ranges."
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.timetable.model import Timetable


@dataclass(frozen=True)
class V2VQuery:
    source: int
    goal: int
    depart_at: int  # first-quartile timestamp (EA / SD)
    arrive_by: int  # fourth-quartile timestamp (LD / SD)


@dataclass(frozen=True)
class BatchQuery:
    """A kNN / one-to-many query instance."""

    source: int
    depart_at: int
    arrive_by: int


def _quartiles(low: int, high: int) -> tuple[tuple[int, int], tuple[int, int]]:
    span = high - low
    if span <= 4:
        raise BenchmarkError("timestamp range too small for quartile sampling")
    first = (low, low + span // 4)
    fourth = (low + 3 * span // 4, high)
    return first, fourth


def v2v_workload(
    timetable: Timetable, n: int = 1000, seed: int = 42
) -> list[V2VQuery]:
    """Random vertex-to-vertex queries per the paper's protocol."""
    rng = random.Random(seed)
    low, high = timetable.time_range()
    first, fourth = _quartiles(low, high)
    queries = []
    for _ in range(n):
        queries.append(
            V2VQuery(
                source=rng.randrange(timetable.num_stops),
                goal=rng.randrange(timetable.num_stops),
                depart_at=rng.randint(*first),
                arrive_by=rng.randint(*fourth),
            )
        )
    return queries


def batch_workload(
    timetable: Timetable, n: int = 1000, seed: int = 42
) -> list[BatchQuery]:
    """Random kNN / one-to-many query instances."""
    rng = random.Random(seed)
    low, high = timetable.time_range()
    first, fourth = _quartiles(low, high)
    return [
        BatchQuery(
            source=rng.randrange(timetable.num_stops),
            depart_at=rng.randint(*first),
            arrive_by=rng.randint(*fourth),
        )
        for _ in range(n)
    ]


def random_targets(
    timetable: Timetable, density: float, seed: int = 7, minimum: int = 2
) -> frozenset[int]:
    """``D * |V|`` random target stops (the paper's density parameter D).

    The scaled-down datasets have ~30-400 stops, so very low densities are
    floored at *minimum* targets to stay meaningful.
    """
    if not 0 < density <= 1:
        raise BenchmarkError(f"density must be in (0, 1], got {density}")
    count = max(minimum, round(density * timetable.num_stops))
    count = min(count, timetable.num_stops)
    rng = random.Random(seed)
    return frozenset(rng.sample(range(timetable.num_stops), count))


#: Tag of the target set the mixed serving workload queries.
TAG = "serving"
FAMILIES = ("v2v_ea", "v2v_ld", "knn_ea", "otm_ea")


def build_workload(timetable, total: int, k: int, seed: int) -> list[tuple]:
    """``total`` (family, query, k) items, families round-robin interleaved."""
    v2v = v2v_workload(timetable, n=total, seed=seed)
    batch = batch_workload(timetable, n=total, seed=seed + 1)
    items = []
    for i in range(total):
        family = FAMILIES[i % len(FAMILIES)]
        query = v2v[i] if family.startswith("v2v") else batch[i]
        items.append((family, query, k))
    return items


def run_query(api, item):
    """Run one workload item through *api* (a PTLDB, a client or a Router)."""
    family, query, k = item
    if family == "v2v_ea":
        return api.earliest_arrival(query.source, query.goal, query.depart_at)
    if family == "v2v_ld":
        return api.latest_departure(query.source, query.goal, query.arrive_by)
    if family == "knn_ea":
        return api.ea_knn(TAG, query.source, query.depart_at, k)
    if family == "otm_ea":
        return api.ea_one_to_many(TAG, query.source, query.depart_at)
    raise ValueError(f"unknown family {family!r}")
