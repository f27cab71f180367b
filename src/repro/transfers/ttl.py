"""Transfer-aware TTL construction.

Same hub-by-hub scheme, on the same machinery, as :mod:`repro.labeling.ttl`:
the connections are decoded once (:class:`ConnectionColumns`), each hub's
profile scan (:func:`bounded_scan`) runs per trips budget, and each hub's
candidates are pruned in one numpy pass per direction. The tuple set for a
(vertex, hub) pair is the three-criteria Pareto front over
``(td max, ta min, trips min)``: a tuple for budget r is kept only when the
budget-(r-1) profile cannot match its (td, ta) — i.e. the extra vehicle
buys an earlier arrival or later departure.

Pruning is trips-aware: a candidate is covered only if an existing two-hop
combination dominates it in time *and* total trips (:func:`_covered`).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import LabelingError
from repro.labeling.ordering import make_order
from repro.labeling.scan import ConnectionColumns
from repro.labeling.ttl import _CoverIndex
from repro.timetable.model import Timetable
from repro.transfers.labels import TransferLabels

INF = float("inf")
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class TransferBuildReport:
    seconds: float
    candidate_tuples: int
    pruned_tuples: int

    @property
    def kept_tuples(self) -> int:
        return self.candidate_tuples - self.pruned_tuples


def bounded_scan(
    rows: list[tuple[int, int, int, int, int]],
    num_stops: int,
    num_trips: int,
    target: int,
    max_trips: int,
    rank: list[int],
) -> tuple[np.ndarray, ...]:
    """Trip-bounded all-to-one profile CSA over :meth:`ConnectionColumns.scan_rows`.

    One pass over the rows (decreasing departure) updates every budget r:
    per stop, the Pareto ``(dep, arr)`` journeys to *target* using at most
    r trips with their first and last trip, kept as parallel lists over
    negated departures as in :func:`repro.labeling.scan.profile_scan`.
    Returns the candidate columns ``(v, r, dep, arr, first, last)`` of the
    stops ranked below *target*: every budget-r entry that no budget-(r-1)
    journey departing no earlier matches, per v by r, then as listed.
    """
    # per budget 0..max_trips: per stop -dep (ascending), arr, first, last
    layers = [tuple([[] for _ in range(num_stops)] for _ in range(4))
              for _ in range(max_trips + 1)]
    steps = [(*layers[r], [INF] * num_trips, [-1] * num_trips,
              layers[r - 1][0], layers[r - 1][1], layers[r - 1][3])
             for r in range(1, max_trips + 1)]
    br = bisect_right
    for cd, ca, cu, cv, ct in rows:
        nd = -cd
        for sdeps, sarrs, sfirst, slast, tarr, tlast, pdeps, parrs, plast in steps:
            best, last = (ca, ct) if cv == target else (INF, -1)
            tb = tarr[ct]
            if tb < best:  # stay seated
                best, last = tb, tlast[ct]
            pd = pdeps[cv]  # transfer at cv onto a journey of one trip less
            if pd:
                hi = br(pd, -ca)
                if hi and parrs[cv][hi - 1] < best:
                    best, last = parrs[cv][hi - 1], plast[cv][hi - 1]
            if best == INF:
                continue
            if best < tb:
                tarr[ct], tlast[ct] = best, last
            sa = sarrs[cu]
            if sa and sa[-1] <= best:
                continue  # dominated by a later-departing journey
            sd, sf, sl = sdeps[cu], sfirst[cu], slast[cu]
            while sd and sd[-1] == nd:  # equal-departure pop chain
                sd.pop()
                sa.pop()
                sf.pop()
                sl.pop()
            sd.append(nd)
            sa.append(best)
            sf.append(ct)
            sl.append(last)

    out = []
    floor = rank[target]
    for v in range(num_stops):
        if rank[v] <= floor:
            continue
        for r in range(1, max_trips + 1):
            sdeps, sarrs, sfirst, slast = layers[r]
            pd, pa = layers[r - 1][0][v], layers[r - 1][1][v]
            for nd, arr, first, last in zip(sdeps[v], sarrs[v], sfirst[v], slast[v]):
                if pd:
                    hi = br(pd, nd)
                    if hi and pa[hi - 1] <= arr:
                        continue  # achievable with fewer trips
                out.append((v, r, -nd, arr, first, last))
    return tuple(np.array(out, np.int64).reshape(-1, 6).T)


def _first_after(pgroup: np.ndarray, pt: np.ndarray, po: np.ndarray,
                 group: np.ndarray, o: np.ndarray, m: int) -> np.ndarray:
    """Per query ``(group, o)``: the arrival *po* of the first partner
    tuple of that group departing ``pt >= o`` — the earliest arrival, as a
    group's tuples are Pareto; ``m - 1`` when there is none."""
    order = np.lexsort((pt, pgroup))
    groups, pid = np.unique(pgroup[order], return_inverse=True)
    pkey, po = pid * m + pt[order], po[order]
    gid = np.minimum(np.searchsorted(groups, group), len(groups) - 1)
    j = np.searchsorted(pkey, gid * m + o)
    jc = np.minimum(j, len(pkey) - 1)
    hit = (groups[gid] == group) & (j < len(pkey)) & (pkey[jc] < (gid + 1) * m)
    return np.where(hit, po[jc], m - 1)


def _covered(index: _CoverIndex, partner: tuple, vs: np.ndarray,
             t: np.ndarray, o: np.ndarray, trips: np.ndarray,
             num_trips: int, max_trips: int) -> np.ndarray:
    """Which candidate journeys ``vs -> h`` (departing *t*, arriving *o*,
    boarding *trips*) can the tuples in *index*, joined with *partner*
    (h's other side, from :meth:`_CoverIndex.pop`), answer within their
    trips? Both carry the payload ``(trips, bt)``, where *bt* is the trip
    at the tuple's hub: ``last_trip`` in ``Lout``, ``first_trip`` in
    ``Lin``. A join costs ``r1 + r2`` trips, one fewer when both *bt* are
    the same vehicle.

    Per index entry e and budget r2, ``g[r2](e)`` is the earliest arrival
    of a partner tuple via e's hub with r2 trips departing at or after
    ``e.o``, and ``seam[r2](e)`` the same over those that board e's *bt*.
    A candidate of budget r is covered iff ``H_r(e) = min(g[r2] for
    r1 + r2 <= r, seam[r2] for r1 + r2 - 1 <= r)`` is at most its arrival
    for some entry of its vertex departing no earlier
    (:meth:`_CoverIndex.reaches`). Candidates of one hub never cover each
    other: neither side of h holds hub h.
    """
    covered = np.zeros(len(vs), bool)
    key, eo, ex, er, eb = index.cols
    px, pt, po, pr, pb = partner
    m = index.m
    if not len(key) or not len(px):
        return covered
    sel = np.flatnonzero(np.isin(ex, px))  # the rest never reach: m - 1
    ex, eo, er, eb = ex[sel], eo[sel], er[sel], eb[sel]
    budgets = np.arange(1, max_trips + 1)[:, None]
    pgroup, group = px * (max_trips + 1) + pr, ex * (max_trips + 1) + budgets
    # g[k - 1]: partners of at most k trips (each budget's set is Pareto)
    g = np.minimum.accumulate(_first_after(pgroup, pt, po, group, eo, m))
    seam = _first_after(pgroup * num_trips + pb, pt, po,
                        group * num_trips + eb, eo, m)
    entries = np.arange(len(sel))
    reach = np.full(len(key), m - 1)
    for r in np.unique(trips).tolist():
        spare = r - er  # partner trips within r; one more across a seam
        reach[sel] = np.minimum(
            np.where(spare >= 1, g[np.maximum(spare - 1, 0), entries], m - 1),
            np.where(spare >= 0, seam[np.maximum(spare, 0), entries], m - 1))
        pick = trips == r
        covered[pick] = index.reaches(reach, vs[pick], t[pick], o[pick])
    return covered


def build_transfer_labels(
    timetable: Timetable,
    max_trips: int = 4,
    ordering: str = "event_degree",
    add_dummies: bool = False,
) -> tuple[TransferLabels, TransferBuildReport]:
    """Run transfer-aware TTL preprocessing (see module docstring)."""
    started = time.perf_counter()
    n = timetable.num_stops
    order = make_order(timetable, ordering)
    rank = TransferLabels(n, order, max_trips=max_trips).rank  # checks both
    cols = ConnectionColumns.from_timetable(timetable)
    num_trips = max(cols.num_trips, 1)
    low, high = timetable.time_range() if timetable.connections else (0, 0)
    m = high - low + 2  # key radix: times relative to low, m - 1 = none
    if (n * m > _INT64_MAX or min(low, -high) < -_INT64_MAX
            or n * (max_trips + 1) * num_trips > _INT64_MAX):
        raise LabelingError(
            f"times {low}..{high} over {n} stops, {num_trips} trips and "
            f"{max_trips} trips a journey do not fit int64 label keys")
    rows = cols.scan_rows(reverse=False), cols.scan_rows(reverse=True)

    candidates = pruned = 0
    out_ix, in_ix = _CoverIndex(m, payload=2), _CoverIndex(m, payload=2)
    # per side, each hub's kept (vertices, records)
    kept = [([np.empty(0, np.int64)], [np.empty((0, 6), np.int64)])
            for _ in range(2)]
    for h in order:
        lin_h, lout_h = in_ix.pop(h), out_ix.pop(h)
        # journeys v -> h: tuples for Lout(v), forward times;
        # journeys h -> v: tuples for Lin(v), reversed times
        for reverse, index, partner, (kept_v, kept_rows) in (
            (False, out_ix, lin_h, kept[0]),
            (True, in_ix, lout_h, kept[1]),
        ):
            vs, r, dep, arr, first, last = bounded_scan(
                rows[reverse], n, num_trips, h, max_trips, rank)
            shift = high if reverse else -low
            t, o = dep + shift, arr + shift
            keep = np.flatnonzero(~_covered(
                index, partner, vs, t, o, r, num_trips, max_trips))
            index.add(vs[keep], t[keep], o[keep], rank[h], r[keep], last[keep])
            candidates += len(vs)
            pruned += len(vs) - len(keep)
            if reverse:  # undo the time reversal: the scan's first trip
                dep, arr, first, last = -arr, -dep, last, first  # is the last
            kept_v.append(vs[keep])
            kept_rows.append(np.column_stack((
                np.full(len(keep), h), dep[keep], arr[keep], r[keep],
                first[keep], last[keep])))

    labels = TransferLabels.from_rows(
        n, order, *(tuple(map(np.concatenate, side)) for side in kept),
        add_dummies=add_dummies, max_trips=max_trips)
    return labels, TransferBuildReport(
        time.perf_counter() - started, candidates, pruned)
