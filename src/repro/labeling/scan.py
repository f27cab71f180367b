"""Per-hub profile scans: the stage of TTL preprocessing that never reads
the labels.

For hub *h*, :func:`repro.labeling.ttl.build_labels` needs the Pareto
``(td, ta)`` journeys between *h* and every lower-ranked vertex, forward and
reverse, that touch no stop ranked above *h*. That depends only on the
timetable, the ranks and *h*, so the scans may run anywhere; the pruning,
which reads the labels built so far, stays in the coordinator. This module
holds the three pieces every build uses and the two places the scans can
run:

* :class:`ConnectionColumns` — the timetable decoded once into int64 numpy
  columns; the reverse-timetable scan order is one ``np.lexsort``, and the
  kernel's inner loop reads plain pre-materialized rows instead of
  `Connection` attributes.
* :func:`profile_scan` — the all-to-one profile CSA kernel.
* :func:`in_process_scans` / :func:`pooled_scans` — the scan *producers*.
  Both yield the same rank-ordered ``([(h, fwd, rev), ...], cpu_s)``
  batches from the same kernel; the first is a plain generator in the
  calling process (no pool, no fork, no pickling), the second computes hub
  windows ahead of the coordinator on a process pool (Public Transit
  Labeling, Delling et al., arXiv:1505.01446, makes the same observation
  for static hub labels).

``tests/labeling/reference_build.py`` keeps the object-profile definition
the kernel is compared against entry for entry.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from bisect import bisect_right
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.errors import LabelingError
from repro.timetable.model import Timetable

INF = float("inf")

#: One scanned vertex: (v, descending departures, descending arrivals,
#: first trips, pivots), stored as parallel lists so they pickle compactly
#: across the pool pipe.
ScanEntries = tuple[int, list[int], list[int], list[int], list[int]]

#: What a producer yields: the scans of consecutive hubs in rank order,
#: ``(h, forward entries, reverse entries)`` each, and the CPU seconds the
#: scans took in whichever process ran them.
ScanBatch = tuple[list[tuple[int, list[ScanEntries], list[ScanEntries]]], float]


# ---------------------------------------------------------------------------
# Connection columns — decoded once per build
# ---------------------------------------------------------------------------
@dataclass
class ConnectionColumns:
    """The timetable's connections as int64 column arrays.

    ``dep``/``arr``/``u``/``v``/``trip`` are aligned with the timetable's
    canonical (ascending CSA) connection order. :meth:`scan_rows`
    materializes the exact row sequence each profile scan iterates — the
    decode happens once per scanning process, not once per hub.
    """

    dep: np.ndarray
    arr: np.ndarray
    u: np.ndarray
    v: np.ndarray
    trip: np.ndarray
    num_stops: int

    @classmethod
    def from_timetable(cls, timetable: Timetable) -> "ConnectionColumns":
        n = timetable.num_connections
        dep = np.empty(n, dtype=np.int64)
        arr = np.empty(n, dtype=np.int64)
        u = np.empty(n, dtype=np.int64)
        v = np.empty(n, dtype=np.int64)
        trip = np.empty(n, dtype=np.int64)
        for i, c in enumerate(timetable.connections):
            dep[i] = c.dep
            arr[i] = c.arr
            u[i] = c.u
            v[i] = c.v
            trip[i] = c.trip
        return cls(dep=dep, arr=arr, u=u, v=v, trip=trip,
                   num_stops=timetable.num_stops)

    @property
    def num_trips(self) -> int:
        return int(self.trip.max()) + 1 if len(self.trip) else 0

    def scan_order(self, reverse: bool) -> np.ndarray:
        """Connection indices in profile-CSA iteration order.

        Forward: the canonical ascending connection order, reversed.
        Reverse: the time-reversed timetable's connections
        ``(-arr, -dep, v, u, trip)`` in *its* canonical order, reversed —
        derived with one stable ``np.lexsort`` instead of constructing a
        second :class:`~repro.timetable.model.Timetable`, with identical
        tie-breaking (``Connection`` sorts by the full 5-tuple).
        """
        if not reverse:
            return np.arange(len(self.dep))[::-1]
        # lexsort: last key is primary -> ascending (-arr, -dep, v, u, trip)
        return np.lexsort((self.trip, self.u, self.v, -self.dep, -self.arr))[::-1]

    def scan_rows(self, reverse: bool) -> list[tuple[int, int, int, int, int]]:
        """Rows ``(dep, arr, u, v, trip)`` in :meth:`scan_order`; a reverse
        row is the time-reversed connection ``(-arr, -dep, v, u, trip)``."""
        at = self.scan_order(reverse)
        if not reverse:
            columns = (self.dep, self.arr, self.u, self.v, self.trip)
        else:
            columns = (-self.arr, -self.dep, self.v, self.u, self.trip)
        return list(zip(*(col[at].tolist() for col in columns)))


# ---------------------------------------------------------------------------
# The profile-scan kernel
# ---------------------------------------------------------------------------
def profile_scan(
    rows: list[tuple[int, int, int, int, int]],
    num_stops: int,
    num_trips: int,
    target: int,
) -> list[ScanEntries]:
    """All-to-one profile CSA over pre-decoded connection rows.

    Per stop, the Pareto ``(dep, arr)`` journeys to *target* with their
    witnesses: the first boarded trip and the *pivot* — the next stop along
    the journey, which for a direct connection is the hub itself (the
    paper's Table 1). Rows arrive in decreasing departure order, so each
    stop's arrivals are strictly decreasing along its entry list. Rows are
    plain tuples, the profile per stop is kept as parallel lists keyed by
    *negated* departure so the profile evaluation is one C-level
    ``bisect_right``. Every stop with an entry, the target excepted, is
    returned.
    """
    sdeps: list[list[int]] = [[] for _ in range(num_stops)]  # -dep, ascending
    sarrs: list[list[int]] = [[] for _ in range(num_stops)]
    strips: list[list[int]] = [[] for _ in range(num_stops)]
    spivots: list[list[int]] = [[] for _ in range(num_stops)]
    trip_arrival = [INF] * num_trips
    br = bisect_right
    for cd, ca, cu, cv, ct in rows:
        best = ca if cv == target else INF
        sd = sdeps[cv]
        if sd:
            hi = br(sd, -ca)  # entries departing >= ca
            if hi:
                via = sarrs[cv][hi - 1]
                if via < best:
                    best = via
        tb = trip_arrival[ct]
        if tb < best:
            best = tb
        if best == INF:
            continue
        if best < tb:
            trip_arrival[ct] = best
        sa = sarrs[cu]
        if sa and sa[-1] <= best:
            continue  # dominated by a later-departing journey
        sd = sdeps[cu]
        nd = -cd
        while sd and sd[-1] == nd:  # equal-departure pop chain
            sd.pop()
            sa.pop()
            strips[cu].pop()
            spivots[cu].pop()
        sd.append(nd)
        sa.append(best)
        strips[cu].append(ct)
        spivots[cu].append(cv)

    return [
        (s, [-d for d in sdeps[s]], sarrs[s], strips[s], spivots[s])
        for s in range(num_stops)
        if sdeps[s] and s != target
    ]


# ---------------------------------------------------------------------------
# Scan producers
# ---------------------------------------------------------------------------
def _scan_state(cols: ConnectionColumns, rank: list[int]) -> tuple:
    """Everything a scan needs, materialized once per scanning process:
    per direction the rows and each row's *rank floor*, the smaller rank
    (the more important) of its two stops."""
    ranks = np.asarray(rank, dtype=np.int64)
    floor = np.minimum(ranks[cols.u], ranks[cols.v])
    return (
        cols.scan_rows(reverse=False),
        floor[cols.scan_order(reverse=False)],
        cols.scan_rows(reverse=True),
        floor[cols.scan_order(reverse=True)],
        cols.num_stops,
        cols.num_trips,
        rank,
    )


def _scan_hubs(state: tuple, hubs: list[int]) -> ScanBatch:
    """Forward + reverse profile scans for consecutive hubs.

    The scan for *h* reads only the rows whose two stops both rank at or
    below h: a journey through a higher-ranked stop w is covered by the
    labels of w, built before h's (PLL's highest-ranked-vertex argument),
    so the coordinator would prune every candidate it yields.
    """
    fwd_rows, fwd_floor, rev_rows, rev_floor, num_stops, num_trips, rank = state

    def scan(rows: list, floor: np.ndarray, h: int) -> list[ScanEntries]:
        picked = np.flatnonzero(floor >= rank[h]).tolist()
        return profile_scan(
            list(map(rows.__getitem__, picked)), num_stops, num_trips, h)

    started = time.process_time()
    results = [
        (h, scan(fwd_rows, fwd_floor, h), scan(rev_rows, rev_floor, h))
        for h in hubs
    ]
    return results, time.process_time() - started


def in_process_scans(
    cols: ConnectionColumns, rank: list[int], order: list[int]
) -> Iterator[ScanBatch]:
    """Scan each hub of *order* in the calling process, on demand."""
    state = _scan_state(cols, rank)
    for h in order:
        yield _scan_hubs(state, [h])


_WORKER: tuple | None = None


def _init_worker(cols: ConnectionColumns, rank: list[int]) -> None:
    """Pool initializer: materialize the scan rows once per worker."""
    global _WORKER
    _WORKER = _scan_state(cols, rank)


def _scan_window(hubs: list[int]) -> ScanBatch:
    """Pool task: scan one hub window."""
    if _WORKER is None:
        raise LabelingError(
            f"scan worker got hub window {hubs[0]}..{hubs[-1]} before its "
            "initializer ran"
        )
    return _scan_hubs(_WORKER, hubs)


def _window_size(num_hubs: int, workers: int) -> int:
    """Hubs per pool task: small enough to keep the coordinator fed
    shortly after startup, large enough to amortize dispatch (~8 windows
    per worker)."""
    return max(1, min(64, (num_hubs + workers * 8 - 1) // (workers * 8)))


def pooled_scans(
    cols: ConnectionColumns, rank: list[int], order: list[int], workers: int
) -> Iterator[ScanBatch]:
    """Scan rank-ordered hub windows of *order* on *workers* processes,
    ahead of the consumer (``fork`` where available, else the platform's
    start method).

    A worker that dies takes the pool with it: the consumer gets a
    :class:`~repro.errors.LabelingError` naming the window it was waiting
    for instead of waiting forever. Closing the generator stops the pool.
    """
    size = _window_size(len(order), workers)
    windows = [order[i:i + size] for i in range(0, len(order), size)]
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else methods[0])
    executor = ProcessPoolExecutor(workers, ctx, _init_worker, (cols, rank))
    try:
        batches = executor.map(_scan_window, windows)
        for window in windows:
            try:
                batch = next(batches)
            except BrokenProcessPool as exc:
                raise LabelingError(
                    "a scan worker died; the pool broke while waiting for "
                    f"the hub window of ranks {rank[window[0]]}-"
                    f"{rank[window[-1]]} (stops {window[0]}..{window[-1]})"
                ) from exc
            yield batch
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
