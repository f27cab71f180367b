"""The batched cover check on its own, against the every-pair checks of
``tests/labeling/reference_build.py``.

``_CoverIndex.covered`` answers every candidate of one hub and direction
in one numpy pass. Here both directions run on random Pareto label groups
— the shape a build produces: per (vertex, hub), strictly increasing
departures and arrivals — with times drawn from a short range so that
``td == dep``, transfers at ``ta == td`` and ``ta == arr`` are common,
with hubs that only one side knows, empty sides and candidate vertices
that have no index entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling.labels import LabelTuple
from repro.labeling.ttl import _CoverIndex

from tests.labeling.reference_build import _by_hub, _covered, _covered_in

LAST = 30  # latest time; the index radix is LAST + 2
HUB = 9  # the vertex being processed; the others are 0..4, hubs 0..3


@st.composite
def pareto_groups(draw):
    """One vertex's label list: {hub: Pareto [(td, ta), ...]}."""
    groups = {}
    for x in draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)):
        tds = sorted(draw(st.sets(st.integers(0, 20), min_size=1, max_size=4)))
        group, prev = [], -1
        for td in tds:
            low = max(td, prev + 1)
            prev = draw(st.integers(low, low + 2))
            group.append((td, prev))
        groups[x] = group
    return groups


def label_sides():
    """A label side: {vertex: {hub: Pareto [(td, ta), ...]}}."""
    return st.dictionaries(st.integers(0, 3), pareto_groups(), max_size=4)


def candidates():
    """Journeys (v, dep, arr); v = 4 never has index entries."""
    journey = st.tuples(st.integers(0, 4), st.integers(0, LAST),
                        st.integers(0, LAST))
    return st.lists(journey, max_size=30).map(
        lambda js: [(v, min(a, b), max(a, b)) for v, a, b in js])


def tuples(groups):
    return [LabelTuple(hub=x, td=td, ta=ta)
            for x, group in groups.items() for td, ta in group]


def index(side, reverse):
    """An index over *side*; a Lin index keeps reversed times."""
    ix = _CoverIndex(LAST + 2)
    for v, groups in side.items():
        for x, group in groups.items():
            td, ta = np.array(group, np.int64).T
            if reverse:
                td, ta = LAST - ta, LAST - td
            ix.add(np.full(len(group), v), td, ta, x)
    return ix


def check_both_directions(side, hub_side, journeys):
    """*side* as Lout(v) with *hub_side* as Lin(h), then *side* as Lin(v)
    with *hub_side* as Lout(h); each against its every-pair check."""
    vs, deps, arrs = np.array(journeys, np.int64).reshape(-1, 3).T
    hub_tuples = tuples(hub_side)

    lout = index(side, reverse=False)
    lin_h = index({HUB: hub_side}, reverse=True).pop(HUB)
    got = lout.covered(lin_h, vs, deps, arrs).tolist()
    assert got == [
        _covered(tuples(side.get(v, {})), _by_hub(hub_tuples), dep, arr)
        for v, dep, arr in journeys
    ]

    lin = index(side, reverse=True)
    lout_h = index({HUB: hub_side}, reverse=False).pop(HUB)
    got = lin.covered(lout_h, vs, LAST - arrs, LAST - deps).tolist()
    assert got == [
        _covered_in(_by_hub(hub_tuples), tuples(side.get(v, {})), dep, arr)
        for v, dep, arr in journeys
    ]


@settings(max_examples=300, deadline=None)
@given(side=label_sides(), hub=pareto_groups(), journeys=candidates())
def test_matches_every_pair_checks(side, hub, journeys):
    check_both_directions(side, hub, journeys)


@pytest.mark.parametrize(
    "journey, covered",
    [
        ((0, 5, 9), True),  # td == dep, transfer at ta == td, ta == arr
        ((0, 6, 9), False),  # departs after the only Lout tuple
        ((0, 5, 8), False),  # arrives before the only Lin tuple
        ((1, 5, 9), False),  # a vertex with no entries
    ],
    ids=["all-equalities", "late-departure", "early-arrival", "no-entries"],
)
def test_boundaries(journey, covered):
    side = {0: {2: [(5, 7)], 3: [(1, 2)]}}
    hub = {2: [(7, 9)], 4: [(2, 3)]}  # hubs 3 and 4: one side each
    check_both_directions(side, hub, [journey])
    v, dep, arr = journey
    assert _covered(tuples(side.get(v, {})), _by_hub(tuples(hub)),
                    dep, arr) is covered


def test_empty_sides():
    check_both_directions({}, {2: [(7, 9)]}, [(0, 5, 9)])
    check_both_directions({0: {2: [(5, 7)]}}, {}, [(0, 5, 9)])


def test_pop_drops_only_that_vertex():
    ix = index({0: {1: [(2, 4)]}, 3: {1: [(5, 6), (7, 8)]}}, reverse=False)
    x, t, o = ix.pop(3)
    # returned in the other side's (reversed) frame: (LAST - ta, LAST - td)
    assert (x.tolist(), t.tolist(), o.tolist()) == (
        [1, 1], [LAST - 6, LAST - 8], [LAST - 5, LAST - 7])
    assert ix.pop(3)[0].tolist() == []
    assert ix.pop(0)[0].tolist() == [1]
