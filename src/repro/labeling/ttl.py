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
``(td, ta)`` journey set between *h* and every other vertex; each candidate
tuple is kept only if the labels built so far (which reference strictly
higher-ranked hubs only) cannot already answer it — PLL-style pruning
adapted to the temporal setting. The scans never read the labels, so they
may run ahead of the pruning on a process pool; the pruning is
order-dependent and stays in this one loop, which consumes candidates in
(hub rank, vertex, entry) order wherever the scans ran. The labels are
therefore the same bytes at every worker count.

Each kept tuple also records the first boarded trip and the *pivot* — the
next stop along the journey from the label's vertex side (the hub itself
for direct connections), matching the paper's Table 1. For ``Lin`` tuples
these refer to the journey's final trip / penultimate stop, mirroring the
reversed search that produced them.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from contextlib import closing
from dataclasses import dataclass

from repro.errors import LabelingError
from repro.labeling.labels import LabelTuple, TTLLabels
from repro.labeling.ordering import make_order
from repro.labeling.scan import (
    ConnectionColumns,
    in_process_scans,
    pooled_scans,
)
from repro.timetable.model import Timetable


# ---------------------------------------------------------------------------
# Cover checks (PLL pruning) over per-vertex, per-hub sorted (td, ta) indexes
# ---------------------------------------------------------------------------
def _covered(out_idx_v: dict, lin_h: dict, dep: int, arr: int) -> bool:
    """Is a candidate v -> h journey (dep, arr) answerable from
    ``Lout(v) x Lin(h)``?

    For each hub *x* both sides know, the per-hub entries are Pareto —
    strictly increasing ``(td, ta)`` — so the only ``Lout(v)`` tuple worth
    testing is the earliest one departing >= *dep* (it has the smallest
    arrival among feasible ones, making the transfer easiest), and the only
    ``Lin(h)`` entry worth testing is the earliest one departing after that
    arrival: two bisects per common hub, with the same boolean outcome as
    testing every pair (``tests/labeling/reference_build.py`` does).
    """
    bl = bisect_left
    for x, (tds, tas) in out_idx_v.items():
        candidates = lin_h.get(x)
        if candidates is None:
            continue
        i = bl(tds, dep)
        if i == len(tds):
            continue
        ta1 = tas[i]
        if ta1 > arr:
            continue
        ctds, ctas = candidates
        j = bl(ctds, ta1)
        if j < len(ctds) and ctas[j] <= arr:
            return True
    return False


def _covered_in(lout_h: dict, in_idx_v: dict, dep: int, arr: int) -> bool:
    """Cover check for a candidate h -> v journey: join Lout(h) x Lin(v).

    Mirror image of :func:`_covered`: the best ``Lin(v)`` entry per
    hub is the latest-departing one arriving <= *arr*, and the best
    ``Lout(h)`` entry is the earliest one departing >= *dep*.
    """
    bl = bisect_left
    for x, (tds, tas) in in_idx_v.items():
        candidates = lout_h.get(x)
        if candidates is None:
            continue
        j = bisect_right(tas, arr)
        if j == 0:
            continue
        td2 = tds[j - 1]
        ctds, ctas = candidates
        i = bl(ctds, dep)
        if i < len(ctds) and ctas[i] <= td2:
            return True
    return False


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
    prune: bool = True,
    add_dummies: bool = False,
    workers: int = 1,
) -> tuple[TTLLabels, BuildReport]:
    """Run TTL preprocessing.

    Args:
        timetable: the input network.
        order: explicit vertex order (most important first); computed with
            *ordering* when omitted.
        ordering: strategy name from :mod:`repro.labeling.ordering`.
        prune: disable to measure how much PLL-style pruning saves
            (ablation); the labels stay correct either way, only bigger.
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
    labels = TTLLabels(timetable.num_stops, order)
    rank = labels.rank
    cols = ConnectionColumns.from_timetable(timetable)
    if workers == 1:
        scans = in_process_scans(cols, rank, order)
    else:
        scans = pooled_scans(cols, rank, order, workers)
    setup_s = time.perf_counter() - wall_started

    candidates = pruned = 0
    scan_cpu_s = 0.0
    # Per-vertex per-hub ascending (td, ta) indexes for the cover checks.
    out_idx: list[dict] = [{} for _ in range(timetable.num_stops)]
    in_idx: list[dict] = [{} for _ in range(timetable.num_stops)]
    pipeline_started = time.perf_counter()
    with closing(scans):  # an error below must not leave a pool running
        for results, cpu_s in scans:
            scan_cpu_s += cpu_s
            for h, fwd, rev in results:
                # --- journeys v -> h: tuples for Lout(v) ----------------
                lin_h = in_idx[h]
                for v, deps, arrs, trips, pivots in fwd:
                    lout_v = labels.lout[v]
                    oi = out_idx[v]
                    keep_td: list[int] = []
                    keep_ta: list[int] = []
                    for dep, arr, trip, pivot in zip(deps, arrs, trips, pivots):
                        candidates += 1
                        if prune and _covered(oi, lin_h, dep, arr):
                            pruned += 1
                            continue
                        lout_v.append(
                            LabelTuple(
                                hub=h, td=dep, ta=arr, pivot=pivot, trip=trip
                            )
                        )
                        keep_td.append(dep)
                        keep_ta.append(arr)
                    if keep_td:
                        # entries arrive departure-descending; index ascending
                        keep_td.reverse()
                        keep_ta.reverse()
                        oi[h] = (keep_td, keep_ta)

                # --- journeys h -> v: tuples for Lin(v) -----------------
                lout_h = out_idx[h]
                for v, rdeps, rarrs, trips, pivots in rev:
                    lin_v = labels.lin[v]
                    ii = in_idx[v]
                    keep_td = []
                    keep_ta = []
                    for rdep, rarr, trip, pivot in zip(
                        rdeps, rarrs, trips, pivots
                    ):
                        dep, arr = -rarr, -rdep  # undo the time reversal
                        candidates += 1
                        if prune and _covered_in(lout_h, ii, dep, arr):
                            pruned += 1
                            continue
                        lin_v.append(
                            LabelTuple(
                                hub=h, td=dep, ta=arr, pivot=pivot, trip=trip
                            )
                        )
                        keep_td.append(dep)
                        keep_ta.append(arr)
                    if keep_td:
                        # reversed entries arrive rev-departure-descending,
                        # i.e. already ascending in real (td, ta)
                        ii[h] = (keep_td, keep_ta)
    pipeline_s = time.perf_counter() - pipeline_started

    finalize_started = time.perf_counter()
    labels.sort()
    if add_dummies:
        labels.add_dummy_tuples()
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
