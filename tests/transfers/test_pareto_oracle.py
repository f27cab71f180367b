"""The round-limited CSA and both transfer-label query paths against the
independent BFS oracle of :mod:`tests.transfers.pareto_oracle`.

``earliest_arrival_bounded`` must equal the oracle exactly;
``TransferQueryEngine`` and ``TransferPTLDB`` must meet the documented
contract (``repro.transfers.labels``) for every budget K from 1 to
``max_trips``: sound (never earlier than the oracle's K-trip arrival) and
(K-1)-complete (never later than its (K-1)-trip arrival).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timetable.datasets import load_dataset
from repro.timetable.generator import random_timetable
from repro.transfers.csa import earliest_arrival_bounded
from repro.transfers.query import TransferQueryEngine
from repro.transfers.sql import TransferPTLDB
from repro.transfers.ttl import build_transfer_labels

from tests.transfers.pareto_oracle import bounded_arrivals, earliest_arrival
from tests.transfers.test_label_identity import chained_timetable


@st.composite
def timetables(draw):
    """Single-leg random timetables and multi-leg ones on a narrow grid."""
    stops = draw(st.integers(2, 9))
    connections = draw(st.integers(0, 50))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return random_timetable(stops, connections, seed=seed)
    return chained_timetable(random.Random(seed), stops, connections)


def departures(timetable, count, rng):
    """Query times: before everything, and at sampled departures."""
    deps = sorted({c.dep for c in timetable.connections})
    return [0] + rng.sample(deps, min(count, len(deps)))


def assert_contract(query, timetable, source, goal, depart_at, max_trips):
    arrivals = [earliest_arrival(timetable, source, goal, depart_at, k)
                for k in range(max_trips + 1)]
    for k in range(1, max_trips + 1):
        got = query(source, goal, depart_at, k)
        if got is not None:  # sound
            assert arrivals[k] is not None and got >= arrivals[k], k
        if arrivals[k - 1] is not None:  # (K-1)-complete
            assert got is not None and got <= arrivals[k - 1], k


@settings(max_examples=100, deadline=None)
@given(timetable=timetables(), seed=st.integers(0, 999))
def test_round_csa_equals_oracle(timetable, seed):
    rng = random.Random(seed)
    for source in range(timetable.num_stops):
        for depart_at in departures(timetable, 2, rng):
            for k in range(5):
                arrivals = bounded_arrivals(timetable, source, depart_at, k)
                for goal in range(timetable.num_stops):
                    expected = arrivals[goal] if source != goal else depart_at
                    got = earliest_arrival_bounded(
                        timetable, source, goal, depart_at, k)
                    assert (float("inf") if got is None else got) == expected


@settings(max_examples=40, deadline=None)
@given(timetable=timetables(), max_trips=st.integers(1, 4),
       seed=st.integers(0, 999))
def test_label_queries_meet_the_contract(timetable, max_trips, seed):
    labels, _ = build_transfer_labels(timetable, max_trips=max_trips,
                                      add_dummies=True)
    engine = TransferQueryEngine(labels)
    sql = TransferPTLDB.from_timetable(timetable, max_trips=max_trips,
                                       labels=labels)
    rng = random.Random(seed)
    for source in range(timetable.num_stops):
        for goal in range(timetable.num_stops):
            if source == goal:  # SQL answers the next event at the stop
                continue
            for depart_at in departures(timetable, 1, rng):
                for query in (engine.earliest_arrival, sql.earliest_arrival):
                    assert_contract(query, timetable, source, goal,
                                    depart_at, max_trips)


@pytest.fixture(scope="module")
def austin():
    timetable = load_dataset("Austin")
    labels, _ = build_transfer_labels(timetable, max_trips=4,
                                      add_dummies=True)
    return (timetable, TransferQueryEngine(labels),
            TransferPTLDB.from_timetable(timetable, labels=labels))


def test_austin_small_meets_the_contract(austin):
    timetable, engine, sql = austin
    rng = random.Random(7)
    for _ in range(40):
        source, goal = rng.sample(range(timetable.num_stops), 2)
        depart_at = rng.randrange(6 * 3600, 20 * 3600)
        for query in (engine.earliest_arrival, sql.earliest_arrival):
            assert_contract(query, timetable, source, goal, depart_at, 4)
