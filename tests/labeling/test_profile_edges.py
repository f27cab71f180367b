"""Edge cases of the profile-CSA building block.

The per-stop profile is the inner data structure of preprocessing; its
invariants (insertions in decreasing departure order, Pareto entries,
equal-departure replacement) are stated on the definitional model
(``JourneyProfile`` in ``tests/labeling/reference_build.py``) and every
case is replayed through :func:`repro.labeling.scan.profile_scan`, the
kernel that ships, on a timetable built to perform the same insertions.
"""

from repro.labeling.scan import ConnectionColumns, profile_scan
from repro.timetable.model import Connection, Timetable

from tests.labeling.reference_build import INF, JourneyProfile

STOP, TARGET, PROBE = 0, 1, 2


def kernel_profile(inserts, not_before=None):
    """Run the shipped kernel on a timetable whose scan inserts *inserts*
    — ``(dep, arr, trip, pivot)``, in this order — into ``STOP``'s profile.

    Insert *i* is a two-leg trip ``STOP -> pivot -> TARGET``; the change
    time at the pivot falls with *i*, which is the tie-break that puts
    equal departures in the given order. With *not_before*, a connection
    ``PROBE -> STOP`` arriving then reads the profile the way the scan
    does. Returns (``STOP``'s entries, the probe's arrival or ``INF``).
    """
    connections = []
    for i, (dep, arr, trip, pivot) in enumerate(inserts):
        change = dep + len(inserts) - i
        connections.append(Connection(dep, change, STOP, pivot, trip))
        connections.append(Connection(change, arr, pivot, TARGET, trip))
    if not_before is not None:
        connections.append(
            Connection(not_before - 1000, not_before, PROBE, STOP, trip=0)
        )
    pivots = [pivot for _, _, _, pivot in inserts]
    tt = Timetable(num_stops=max(pivots, default=PROBE) + 1,
                   connections=connections)
    cols = ConnectionColumns.from_timetable(tt)
    scanned = {
        v: list(zip(deps, arrs, trips, pivots))
        for v, deps, arrs, trips, pivots in profile_scan(
            cols.scan_rows(reverse=False), cols.num_stops, cols.num_trips,
            TARGET,
        )
    }
    probe = scanned.get(PROBE)
    return scanned.get(STOP, []), probe[0][1] if probe else INF


def filled(*inserts):
    """The model profile after *inserts*; the kernel must agree after
    every one of them."""
    prof = JourneyProfile()
    for done, insert in enumerate(inserts, start=1):
        prof.insert(*insert)
        assert kernel_profile(inserts[:done])[0] == prof.entries
    return prof


def evaluate(prof, inserts, not_before):
    """``prof.evaluate(not_before)``, checked against the kernel."""
    value = prof.evaluate(not_before)
    assert kernel_profile(inserts, not_before)[1] == value
    return value


class TestInsert:
    def test_first_insert_accepted(self):
        prof = JourneyProfile()
        assert prof.insert(100, 200, trip=1, pivot=5)
        assert prof.entries == [(100, 200, 1, 5)]
        assert filled((100, 200, 1, 5)).entries == prof.entries

    def test_dominated_insert_rejected(self):
        """An earlier departure that arrives no earlier adds nothing."""
        prof = JourneyProfile()
        prof.insert(100, 200, 1, 5)
        assert not prof.insert(90, 200, 2, 6)
        assert not prof.insert(80, 250, 3, 7)
        assert prof.entries == [(100, 200, 1, 5)]
        assert filled(
            (100, 200, 1, 5), (90, 200, 2, 6), (80, 250, 3, 7)
        ).entries == prof.entries

    def test_equal_departure_pop_chain(self):
        """A better journey at the same departure replaces the old entry —
        the witness (trip, pivot) must switch to the better journey's."""
        prof = JourneyProfile()
        prof.insert(100, 220, trip=1, pivot=5)
        assert prof.insert(100, 210, trip=2, pivot=6)
        assert prof.entries == [(100, 210, 2, 6)]
        # chain: the replacement itself can be replaced again
        assert prof.insert(100, 205, trip=3, pivot=7)
        assert prof.entries == [(100, 205, 3, 7)]
        assert filled(
            (100, 220, 1, 5), (100, 210, 2, 6), (100, 205, 3, 7)
        ).entries == prof.entries

    def test_pareto_entries_accumulate(self):
        prof = filled((120, 240, 1, 5), (100, 200, 2, 6), (80, 150, 3, 7))
        assert prof.entries == [
            (120, 240, 1, 5),
            (100, 200, 2, 6),
            (80, 150, 3, 7),
        ]


class TestEvaluate:
    def test_empty_profile(self):
        assert evaluate(JourneyProfile(), (), 0) == INF

    def test_not_before_beyond_all_entries(self):
        inserts = ((120, 240, 1, 5), (100, 200, 2, 6))
        assert evaluate(filled(*inserts), inserts, 121) == INF

    def test_picks_latest_feasible_departure(self):
        inserts = ((120, 240, 1, 5), (100, 200, 2, 6), (80, 150, 3, 7))
        prof = filled(*inserts)
        # dep >= 110 leaves only the (120, 240) journey
        assert evaluate(prof, inserts, 110) == 240
        # dep >= 90 -> (100, 200) has the earliest arrival
        assert evaluate(prof, inserts, 90) == 200
        assert evaluate(prof, inserts, 0) == 150

    def test_boundary_is_inclusive(self):
        inserts = ((100, 200, 1, 5),)
        prof = filled(*inserts)
        assert evaluate(prof, inserts, 100) == 200
        assert evaluate(prof, inserts, 101) == INF
