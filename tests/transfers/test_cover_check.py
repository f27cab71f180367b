"""The transfer tier's batched cover check against the every-pair checks.

``transfers.ttl._covered`` answers every candidate of one hub and direction
in one numpy pass per candidate budget. Here both directions run on random
label groups of the shape a build produces — per (vertex, hub, trips),
strictly increasing departures and arrivals — with times from a short
range and hub-side trips from three vehicles, so that boundary equalities
and seams (both tuples riding one vehicle through the hub) are common. The
reference is the per-candidate test the object builder ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling.ttl import _CoverIndex
from repro.transfers.ttl import _covered

LAST = 30  # latest time; the index radix is LAST + 2
HUB = 9  # the vertex being processed; the others are 0..4, hubs 0..3
MAX_TRIPS = 3
VEHICLES = 3  # hub-side trip ids 0..2


@st.composite
def pareto_groups(draw):
    """One vertex's labels: [(hub, td, ta, trips, bt), ...], Pareto per
    (hub, trips)."""
    rows = []
    for x in draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)):
        for r in draw(st.sets(st.integers(1, MAX_TRIPS), min_size=1)):
            tds = sorted(draw(st.sets(st.integers(0, 20), min_size=1,
                                      max_size=3)))
            prev = -1
            for td in tds:
                low = max(td, prev + 1)
                prev = draw(st.integers(low, low + 2))
                rows.append((x, td, prev, r,
                             draw(st.integers(0, VEHICLES - 1))))
    return rows


def label_sides():
    """A label side: {vertex: rows}."""
    return st.dictionaries(st.integers(0, 3), pareto_groups(), max_size=4)


def candidates():
    """Journeys (v, dep, arr, trips); v = 4 never has index entries."""
    journey = st.tuples(st.integers(0, 4), st.integers(0, LAST),
                        st.integers(0, LAST), st.integers(1, MAX_TRIPS))
    return st.lists(journey, max_size=30).map(
        lambda js: [(v, min(a, b), max(a, b), r) for v, a, b, r in js])


def every_pair(vertex_rows, hub_rows, dep, arr, trips):
    """Forward terms: l1 in Lout(v) then l2 in Lin(h) at one hub."""
    return any(
        x1 == x2 and td1 >= dep and ta1 <= td2 and ta2 <= arr
        and r1 + r2 - (b1 == b2) <= trips
        for x1, td1, ta1, r1, b1 in vertex_rows
        for x2, td2, ta2, r2, b2 in hub_rows)


def index(side, reverse):
    """An index over *side*; a Lin index keeps reversed times."""
    ix = _CoverIndex(LAST + 2, payload=2)
    for v, rows in side.items():
        for x, td, ta, r, bt in rows:
            t, o = (LAST - ta, LAST - td) if reverse else (td, ta)
            ix.add(np.array([v]), np.array([t]), np.array([o]), x,
                   np.array([r]), np.array([bt]))
    return ix


def check_both_directions(side, hub_side, journeys):
    """*side* as Lout(v) with *hub_side* as Lin(h), then *side* as Lin(v)
    with *hub_side* as Lout(h); each against its every-pair check."""
    vs, deps, arrs, trips = np.array(journeys, np.int64).reshape(-1, 4).T

    lout = index(side, reverse=False)
    lin_h = index({HUB: hub_side}, reverse=True).pop(HUB)
    got = _covered(lout, lin_h, vs, deps, arrs, trips, VEHICLES, MAX_TRIPS)
    assert got.tolist() == [every_pair(side.get(v, []), hub_side, dep, arr, r)
                            for v, dep, arr, r in journeys]

    # h -> v: l1 in Lout(h) then l2 in Lin(v); in reversed time that is
    # the forward check with the roles swapped
    lin = index(side, reverse=True)
    lout_h = index({HUB: hub_side}, reverse=False).pop(HUB)
    got = _covered(lin, lout_h, vs, LAST - arrs, LAST - deps, trips,
                   VEHICLES, MAX_TRIPS)
    mirror = [(x, LAST - ta, LAST - td, r, b) for x, td, ta, r, b in hub_side]
    assert got.tolist() == [
        every_pair([(x, LAST - ta, LAST - td, r, b)
                    for x, td, ta, r, b in side.get(v, [])],
                   mirror, LAST - arr, LAST - dep, r)
        for v, dep, arr, r in journeys]


@settings(max_examples=300, deadline=None)
@given(side=label_sides(), hub=pareto_groups(), journeys=candidates())
def test_matches_every_pair_checks(side, hub, journeys):
    check_both_directions(side, hub, journeys)


@pytest.mark.parametrize(
    "journey, covered",
    [
        ((0, 5, 9, 2), True),  # 1 + 1 trips on two vehicles
        ((0, 5, 9, 1), False),  # two vehicles do not fit one trip
        ((1, 5, 9, 1), True),  # seated through the hub: 1 + 1 - 1
        ((1, 6, 9, 3), False),  # departs after the only Lout tuple
        ((4, 5, 9, 3), False),  # a vertex with no entries
    ],
    ids=["two-vehicles", "over-budget", "seam", "late-departure",
         "no-entries"],
)
def test_boundaries(journey, covered):
    side = {0: [(2, 5, 7, 1, 0)], 1: [(2, 5, 7, 1, 1)]}
    hub = [(2, 7, 9, 1, 1), (3, 1, 2, 1, 0)]  # hub 3: one side only
    check_both_directions(side, hub, [journey])
    v, dep, arr, r = journey
    assert every_pair(side.get(v, []), hub, dep, arr, r) is covered


def test_empty_sides():
    check_both_directions({}, [(2, 7, 9, 1, 0)], [(0, 5, 9, 2)])
    check_both_directions({0: [(2, 5, 7, 1, 0)]}, [], [(0, 5, 9, 2)])
