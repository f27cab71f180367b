"""Vertex-ordering strategies for TTL preprocessing.

TTL assumes a strict vertex order expressing importance (paper §2.2). The
original authors ship precomputed ordering files; offline we compute orders
ourselves. Degree-style orders work well on transit networks because
interchange stations dominate journeys, the same intuition as Pruned
Landmark Labeling's degree order.
"""

from __future__ import annotations

import random

from repro.errors import LabelingError
from repro.timetable.model import Timetable


def event_degree_order(timetable: Timetable) -> list[int]:
    """Stops by number of incident connections (the Table 7 'degree'),
    busiest first. The default order used throughout the reproduction."""
    degree = [0] * timetable.num_stops
    for c in timetable.connections:
        degree[c.u] += 1
        degree[c.v] += 1
    return sorted(range(timetable.num_stops), key=lambda v: (-degree[v], v))


def neighbor_degree_order(timetable: Timetable) -> list[int]:
    """Stops by number of distinct neighbors, busiest first."""
    neighbors: list[set[int]] = [set() for _ in range(timetable.num_stops)]
    for c in timetable.connections:
        neighbors[c.u].add(c.v)
        neighbors[c.v].add(c.u)
    return sorted(
        range(timetable.num_stops), key=lambda v: (-len(neighbors[v]), v)
    )


def hub_sample_order(timetable: Timetable, samples: int = 32, seed: int = 7) -> list[int]:
    """Stops by how often they appear as transfer points in sampled optimal
    journeys — a cheap betweenness estimate.

    Runs earliest-arrival scans from *samples* random (stop, time) states and
    counts, for every stop, how many other stops' optimal arrival was relayed
    through it (i.e. it was the arrival stop of a connection that improved
    someone downstream within the same scan). A timetable without
    connections has nothing to sample and keeps the stop-id order.
    """
    from repro.baselines.csa import INF

    if not timetable.connections:
        return list(range(timetable.num_stops))
    rng = random.Random(seed)
    score = [0.0] * timetable.num_stops
    low, high = timetable.time_range()
    for _ in range(samples):
        source = rng.randrange(timetable.num_stops)
        depart_at = rng.randrange(low, max(low + 1, high))
        ea = [INF] * timetable.num_stops
        ea[source] = depart_at
        parent = [-1] * timetable.num_stops
        boarded: dict[int, bool] = {}
        for c in timetable.connections:
            if c.dep < depart_at:
                continue
            if boarded.get(c.trip) or ea[c.u] <= c.dep:
                boarded[c.trip] = True
                if c.arr < ea[c.v]:
                    ea[c.v] = c.arr
                    parent[c.v] = c.u
        for v in range(timetable.num_stops):
            stop = parent[v]
            hops = 0
            while stop not in (-1, source) and hops < timetable.num_stops:
                score[stop] += 1.0
                stop = parent[stop]
                hops += 1
    return sorted(range(timetable.num_stops), key=lambda v: (-score[v], v))


def random_order(timetable: Timetable, seed: int = 0) -> list[int]:
    """A random permutation — the ablation's worst-case order."""
    order = list(range(timetable.num_stops))
    random.Random(seed).shuffle(order)
    return order


ORDERINGS = {
    "event_degree": event_degree_order,
    "neighbor_degree": neighbor_degree_order,
    "hub_sample": hub_sample_order,
    "random": random_order,
}


def make_order(timetable: Timetable, strategy: str = "event_degree") -> list[int]:
    try:
        fn = ORDERINGS[strategy]
    except KeyError:
        raise LabelingError(
            f"unknown ordering {strategy!r}; choose from {sorted(ORDERINGS)}"
        ) from None
    return fn(timetable)
