"""Definitional model of TTL label construction (a test fixture).

Not on any build path: every build runs
:func:`repro.labeling.ttl.build_labels` (decoded scan rows,
:func:`repro.labeling.scan.profile_scan`, batched cover checks). This
module keeps the obviously-correct reading the shipped pipeline is pinned
against — object profiles filled from `Connection` attributes over a real
reversed :class:`~repro.timetable.model.Timetable`, and cover checks that
test every label pair — so the identity suite
(``tests/labeling/test_parallel.py``) can require the same labels byte for
byte and the same kept counter. Its scans do not skip the stops ranked
above the hub, so it yields (and prunes) more candidates than the builder;
``prune=False`` keeps every Pareto journey, the unpruned labels. Its
dummy tuples and its sort are per-tuple loops too, the reference for the
builder's ``np.unique`` and ``lexsort``. It is
slow (linear cover scans: Madrid ``paper`` takes minutes); use it on
test-sized timetables.
"""

from __future__ import annotations

from operator import attrgetter

from repro.labeling.labels import LabelTuple, TTLLabels
from repro.labeling.ordering import make_order
from repro.labeling.ttl import BuildReport
from repro.timetable.model import Timetable

INF = float("inf")


# ---------------------------------------------------------------------------
# Profile scan with journey information
# ---------------------------------------------------------------------------
class JourneyProfile:
    """Pareto (dep, arr) pairs plus (trip, exit stop) journey witnesses.

    Insertions arrive in decreasing *dep* order (profile CSA invariant), so
    arrivals are strictly decreasing along the pair list.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, int, int]] = []  # dep, arr, trip, exit

    def insert(self, dep: int, arr: int, trip: int, pivot: int) -> bool:
        entries = self.entries
        if entries and entries[-1][1] <= arr:
            return False  # dominated by a later-departing journey
        while entries and entries[-1][0] == dep:
            entries.pop()
        entries.append((dep, arr, trip, pivot))
        return True

    def evaluate(self, not_before: int) -> float:
        """Earliest arrival among entries with dep >= not_before."""
        entries = self.entries
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][0] >= not_before:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return INF
        return entries[lo - 1][1]


def journey_profiles(timetable: Timetable, target: int) -> list[JourneyProfile]:
    """All-to-one profile CSA that also records journey witnesses.

    Each Pareto pair carries the first boarded trip and the *pivot* — the
    next stop along the journey (the first connection's arrival stop). This
    matches the paper's Table 1, where the pivot of a direct connection is
    the hub itself and dummies use NULL.
    """
    profiles = [JourneyProfile() for _ in range(timetable.num_stops)]
    max_trip = max((c.trip for c in timetable.connections), default=-1)
    trip_arrival = [INF] * (max_trip + 1)
    for c in reversed(timetable.connections):  # decreasing (dep, arr)
        best = INF
        if c.v == target:
            best = c.arr
        via_transfer = profiles[c.v].evaluate(c.arr)
        if via_transfer < best:
            best = via_transfer
        if trip_arrival[c.trip] < best:
            best = trip_arrival[c.trip]
        if best == INF:
            continue
        if best < trip_arrival[c.trip]:
            trip_arrival[c.trip] = best
        profiles[c.u].insert(c.dep, int(best), c.trip, c.v)
    return profiles


# ---------------------------------------------------------------------------
# Cover checks (PLL pruning), testing every pair
# ---------------------------------------------------------------------------
def _covered(
    lout_v: list[LabelTuple],
    lin_h_by_hub: dict[int, list[tuple[int, int]]],
    dep: int,
    arr: int,
) -> bool:
    """Can the existing labels answer "journey departing >= dep, arriving
    <= arr" by joining ``Lout(v)`` with ``Lin(h)``?"""
    for l1 in lout_v:
        if l1.td < dep or l1.ta > arr:
            continue
        candidates = lin_h_by_hub.get(l1.hub)
        if not candidates:
            continue
        for td2, ta2 in candidates:
            if td2 >= l1.ta and ta2 <= arr:
                return True
    return False


def _by_hub(tuples: list[LabelTuple]) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for t in tuples:
        out.setdefault(t.hub, []).append((t.td, t.ta))
    return out


def _covered_in(
    lout_h_by_hub: dict[int, list[tuple[int, int]]],
    lin_v: list[LabelTuple],
    dep: int,
    arr: int,
) -> bool:
    """Cover check for a candidate h -> v journey: join Lout(h) x Lin(v)."""
    for l2 in lin_v:
        if l2.ta > arr:
            continue
        candidates = lout_h_by_hub.get(l2.hub)
        if not candidates:
            continue
        for td1, ta1 in candidates:
            if td1 >= dep and ta1 <= l2.td:
                return True
    return False


# ---------------------------------------------------------------------------
# Dummy tuples, one timestamp set per vertex
# ---------------------------------------------------------------------------
def add_dummy_tuples(lout: list[list[LabelTuple]],
                     lin: list[list[LabelTuple]]) -> None:
    """DESIGN.md's dummy rule as the loop the builder's one ``np.unique``
    replaces: vertex v gets a dummy for every distinct arrival at v in any
    Lout tuple, departure from v in any Lin tuple and arrival of its own
    Lin tuples."""
    stamps: list[set[int]] = [set() for _ in lout]
    for v, (out_v, in_v) in enumerate(zip(lout, lin)):
        for t in out_v:
            if not t.is_dummy:
                stamps[t.hub].add(t.ta)
        for t in in_v:
            if not t.is_dummy:
                stamps[t.hub].add(t.td)
                stamps[v].add(t.ta)
    for v, times in enumerate(stamps):
        for stamp in times:
            lout[v].append(LabelTuple(hub=v, td=stamp, ta=stamp))
            lin[v].append(LabelTuple(hub=v, td=stamp, ta=stamp))


# ---------------------------------------------------------------------------
# The naive loop
# ---------------------------------------------------------------------------
def reference_build(
    timetable: Timetable,
    order: list[int] | None = None,
    ordering: str = "event_degree",
    prune: bool = True,
    add_dummies: bool = False,
) -> tuple[TTLLabels, BuildReport]:
    """What :func:`repro.labeling.ttl.build_labels` must return (the
    report's timing fields stay 0)."""
    if order is None:
        order = make_order(timetable, ordering)
    rank = TTLLabels(timetable.num_stops, order).rank
    lout: list[list[LabelTuple]] = [[] for _ in range(timetable.num_stops)]
    lin: list[list[LabelTuple]] = [[] for _ in range(timetable.num_stops)]
    reverse = timetable.reverse()

    candidates = pruned = 0
    for h in order:
        # --- journeys v -> h: tuples for Lout(v) ------------------------
        lin_h_by_hub = _by_hub(lin[h])
        for v, prof in enumerate(journey_profiles(timetable, h)):
            if v == h or rank[v] <= rank[h]:
                continue
            for dep, arr, trip, pivot in prof.entries:
                candidates += 1
                if prune and _covered(lout[v], lin_h_by_hub, dep, arr):
                    pruned += 1
                    continue
                lout[v].append(
                    LabelTuple(hub=h, td=dep, ta=arr, pivot=pivot, trip=trip)
                )

        # --- journeys h -> v: tuples for Lin(v) -------------------------
        lout_h_by_hub = _by_hub(lout[h])
        for v, prof in enumerate(journey_profiles(reverse, h)):
            if v == h or rank[v] <= rank[h]:
                continue
            for rev_dep, rev_arr, trip, pivot in prof.entries:
                dep, arr = -rev_arr, -rev_dep  # undo the time reversal
                candidates += 1
                if prune and _covered_in(
                    lout_h_by_hub, lin[v], dep, arr
                ):
                    pruned += 1
                    continue
                lin[v].append(
                    LabelTuple(hub=h, td=dep, ta=arr, pivot=pivot, trip=trip)
                )

    if add_dummies:
        add_dummy_tuples(lout, lin)
    key = attrgetter("hub", "td", "ta")
    labels = TTLLabels.from_tuples(
        timetable.num_stops, order,
        [sorted(tuples, key=key) for tuples in lout],
        [sorted(tuples, key=key) for tuples in lin],
        has_dummies=add_dummies,
    )
    report = BuildReport(
        seconds=0.0,
        candidate_tuples=candidates,
        pruned_tuples=pruned,
        kept_tuples=candidates - pruned,
    )
    return labels, report
