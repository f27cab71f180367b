"""Timetable Labeling (TTL) construction.

Re-implements the preprocessing of Wang et al. (SIGMOD'15) that the paper
consumes: given a timetable and a strict vertex order, compute for every
vertex the label sets ``Lout(v)`` (fast journeys from v to higher-ranked
hubs) and ``Lin(v)`` (fast journeys from higher-ranked hubs to v) such that
the **cover property** holds: every optimal journey s -> g is witnessed by
some hub in ``Lout(s) x Lin(g)`` with a feasible transfer
(``l1.ta <= l2.td``).

Construction processes hubs from most to least important. For hub *h* a
profile connection scan (:mod:`repro.labeling.scan`) yields the Pareto
``(td, ta)`` journey set between *h* and every lower-ranked vertex over
the stops ranked at or below *h* (a journey through a higher stop is that
stop's to cover); each candidate tuple is kept only if the labels built so
far (which reference strictly higher-ranked hubs only) cannot already
answer it — PLL-style pruning adapted to the temporal setting. The scans
never read the labels, so they may run ahead of the pruning on a process
pool; the pruning is order-dependent and stays in this one loop, which
consumes candidates in (hub rank, vertex, entry) order wherever the scans
ran. The labels are therefore the same bytes at every worker count.

Each kept tuple also records the first boarded trip and the *pivot* — the
next stop along the journey from the label's vertex side (the hub itself
for direct connections), matching the paper's Table 1. For ``Lin`` tuples
these refer to the journey's final trip / penultimate stop, mirroring the
reversed search that produced them.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import LabelingError
from repro.labeling.labels import TA, TD, TTLLabels
from repro.labeling.ordering import make_order
from repro.labeling.scan import (
    ConnectionColumns,
    in_process_scans,
    pooled_scans,
)
from repro.timetable.model import Timetable

_INT64_MAX = np.iinfo(np.int64).max

# ---------------------------------------------------------------------------
# Cover checks (PLL pruning): one numpy pass per hub and direction
# ---------------------------------------------------------------------------
class _CoverIndex:
    """One label side of the vertices not yet processed as hubs, as flat
    int64 columns sorted by ``key = v * m + t``.

    *t* is a tuple's departure and *o* its arrival, relative to the side's
    own time frame — forward for ``Lout``, reversed for ``Lin`` — so both
    lie in ``0 .. m - 2``; *x* is the hub's rank. In that frame a ``Lin``
    check is a ``Lout`` check, and one :meth:`covered` serves both.
    *payload* more columns ride along, the same in either frame.
    """

    def __init__(self, m: int, payload: int = 0):
        self.m = m
        self.cols = [np.empty(0, np.int64)] * (3 + payload)  # key, o, x, ...

    def pop(self, v: int) -> tuple[np.ndarray, ...]:
        """Drop v's tuples; return them as ``(x, t, o, *payload)`` in the
        *other* side's time frame, where departure and arrival swap."""
        m, last = self.m, self.m - 2
        lo, hi = np.searchsorted(self.cols[0], (v * m, (v + 1) * m))
        key, o, x, *payload = (col[lo:hi] for col in self.cols)
        self.cols = [np.delete(col, slice(lo, hi)) for col in self.cols]
        return (x, last - o, last - (key - v * m), *payload)

    def add(self, vs: np.ndarray, t: np.ndarray, o: np.ndarray, x: int,
            *payload: np.ndarray) -> None:
        """Insert one hub's kept tuples in one batch."""
        key = vs * self.m + t
        order = np.argsort(key)
        at = np.searchsorted(self.cols[0], key[order])
        self.cols = [np.insert(col, at, new if np.ndim(new) == 0 else new[order])
                     for col, new in zip(self.cols, (key, o, x, *payload))]

    def covered(self, partner: tuple, vs: np.ndarray, t: np.ndarray,
                o: np.ndarray) -> np.ndarray:
        """Which candidate journeys ``vs -> h`` (departing *t*, arriving
        *o*) can the tuples already here, joined with *partner* (h's other
        side, from :meth:`pop`), answer?

        Per entry *e*, ``g(e)`` is the earliest partner arrival via e's hub
        departing at or after ``e.o`` (``m - 1``: none) — the first such
        partner tuple, as a hub's tuples are Pareto. A candidate is
        covered iff ``min g`` over its vertex's entries with ``e.t >= t``
        — a segmented suffix-min read at the first such entry — is
        ``<= o``: the same answer as testing every pair of tuples.
        """
        px, pt, po = partner
        key, eo, ex = self.cols
        m, n = self.m, len(key)
        if not n or not len(px):
            return np.zeros(len(vs), bool)
        pk = px * m + pt
        order = np.argsort(pk)
        pk, px, po = pk[order], px[order], po[order]
        j = np.searchsorted(pk, ex * m + eo)
        jc = np.minimum(j, len(pk) - 1)
        g = np.where((j < len(pk)) & (px[jc] == ex), po[jc], m - 1)
        return self.reaches(g, vs, t, o)

    def reaches(self, g: np.ndarray, vs: np.ndarray, t: np.ndarray,
                o: np.ndarray) -> np.ndarray:
        """Is ``min g`` over vertex ``vs``'s entries with ``e.t >= t`` at
        most *o*? *g* holds one arrival per entry (``m - 1``: none)."""
        key, m, n = self.cols[0], self.m, len(self.cols[0])
        # segmented suffix-min: adding v * m to values below m keeps every
        # later vertex's segment above the current one
        base = key - key % m
        best = np.minimum.accumulate((base + g)[::-1])[::-1] - base
        at = np.searchsorted(key, vs * m + t)
        atc = np.minimum(at, n - 1)
        return (at < n) & (base[atc] == vs * m) & (best[atc] <= o)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
@dataclass
class BuildReport:
    """What happened during label construction, and where the time went.

    Wall-clock split: ``setup_s`` (ordering + column decode),
    ``pipeline_s`` (profile scans overlapped with the coordinator's
    pruning, producer start-up included), ``finalize_s`` (sort + dummy
    tuples). CPU split: ``scan_cpu_s`` is summed over every process that
    scanned, ``coordinator_cpu_s`` is the calling process's CPU outside
    the scans. ``cpu_to_wall`` > 1 means a pool achieved real parallelism
    (CPU-seconds burned per wall-second). The stage fields are 0 on a
    report that does not come from a build in this process.
    """

    seconds: float
    candidate_tuples: int
    pruned_tuples: int
    kept_tuples: int
    workers: int = 0
    setup_s: float = 0.0
    pipeline_s: float = 0.0
    finalize_s: float = 0.0
    scan_cpu_s: float = 0.0
    coordinator_cpu_s: float = 0.0
    cpu_to_wall: float = 0.0


def build_labels(
    timetable: Timetable,
    order: list[int] | None = None,
    ordering: str = "event_degree",
    add_dummies: bool = False,
    workers: int = 1,
) -> tuple[TTLLabels, BuildReport]:
    """Run TTL preprocessing.

    Args:
        timetable: the input network.
        order: explicit vertex order (most important first); computed with
            *ordering* when omitted.
        ordering: strategy name from :mod:`repro.labeling.ordering`.
        add_dummies: also add PTLDB's dummy tuples before returning.
        workers: where the per-hub profile scans run: 1 scans in the
            calling process and starts no other, more scans ahead of the
            pruning on a pool of that many processes. The labels and the
            tuple counters do not depend on it.

    Returns:
        (labels, build report).
    """
    if workers < 1:
        raise LabelingError(f"need at least one worker, got {workers}")
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    if order is None:
        order = make_order(timetable, ordering)
    rank = TTLLabels(timetable.num_stops, order).rank  # checks the order
    low, high = timetable.time_range() if timetable.connections else (0, 0)
    m = high - low + 2  # key radix: times relative to low, m - 1 = none
    if timetable.num_stops * m > _INT64_MAX or min(low, -high) < -_INT64_MAX:
        raise LabelingError(
            f"times {low}..{high} (span {high - low}) over "
            f"{timetable.num_stops} stops do not fit int64 label keys"
        )
    cols = ConnectionColumns.from_timetable(timetable)
    if workers == 1:
        scans = in_process_scans(cols, rank, order)
    else:
        scans = pooled_scans(cols, rank, order, workers)
    setup_s = time.perf_counter() - wall_started

    candidates = pruned = 0
    scan_cpu_s = 0.0
    out_ix, in_ix = _CoverIndex(m), _CoverIndex(m)
    # per side, each hub's kept (vertices, records), then the two sides
    kept = [([np.empty(0, np.int64)], [np.empty((0, 5), np.int64)])
            for _ in range(2)]
    pipeline_started = time.perf_counter()
    with closing(scans):  # an error below must not leave a pool running
        for results, cpu_s in scans:
            scan_cpu_s += cpu_s
            for h, fwd, rev in results:
                lin_h, lout_h = in_ix.pop(h), out_ix.pop(h)
                # journeys v -> h: tuples for Lout(v), forward times;
                # journeys h -> v: tuples for Lin(v), reversed times
                for entries, index, partner, (kept_v, kept_rows), forward in (
                    (fwd, out_ix, lin_h, kept[0], True),
                    (rev, in_ix, lout_h, kept[1], False),
                ):
                    if not entries:
                        continue
                    vids, *lists = zip(*entries)
                    dep, arr, trip, pivot = (
                        np.fromiter(chain.from_iterable(col), np.int64)
                        for col in lists)
                    vs = np.repeat(vids, [len(d) for d in lists[0]])
                    shift = -low if forward else high
                    t, o = dep + shift, arr + shift
                    keep = np.flatnonzero(~index.covered(partner, vs, t, o))
                    index.add(vs[keep], t[keep], o[keep], rank[h])
                    candidates += len(vs)
                    pruned += len(vs) - len(keep)
                    # undo the reverse scan's time reversal
                    td, ta = ((dep, arr) if forward else (-arr, -dep))
                    kept_v.append(vs[keep])
                    kept_rows.append(np.column_stack((
                        np.full(len(keep), h), td[keep], ta[keep],
                        pivot[keep], trip[keep])))
    pipeline_s = time.perf_counter() - pipeline_started

    finalize_started = time.perf_counter()
    sides = [tuple(map(np.concatenate, kept.pop(0))) for _ in range(2)]
    if any((rows[:, TA] < rows[:, TD]).any() for _, rows in sides):
        raise LabelingError("a label tuple arrives before it departs")
    labels = TTLLabels.from_rows(timetable.num_stops, order, *sides,
                                 add_dummies=add_dummies)
    finalize_s = time.perf_counter() - finalize_started

    wall_s = time.perf_counter() - wall_started
    coordinator_cpu_s = time.process_time() - cpu_started
    if workers == 1:  # the scans ran in this process: count them once
        coordinator_cpu_s -= scan_cpu_s
    report = BuildReport(
        seconds=wall_s,
        candidate_tuples=candidates,
        pruned_tuples=pruned,
        kept_tuples=candidates - pruned,
        workers=workers,
        setup_s=setup_s,
        pipeline_s=pipeline_s,
        finalize_s=finalize_s,
        scan_cpu_s=scan_cpu_s,
        coordinator_cpu_s=coordinator_cpu_s,
        cpu_to_wall=(scan_cpu_s + coordinator_cpu_s) / wall_s if wall_s else 0.0,
    )
    return labels, report


def preprocess(
    timetable: Timetable,
    ordering: str = "event_degree",
    workers: int = 1,
) -> TTLLabels:
    """One-call preprocessing with dummy tuples, ready for PTLDB loading."""
    labels, _ = build_labels(
        timetable, ordering=ordering, add_dummies=True, workers=workers
    )
    return labels
