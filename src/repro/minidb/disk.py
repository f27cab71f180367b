"""Disk manager and secondary-storage device models.

The paper benchmarks PTLDB on a 7200 rpm Seagate HDD and on a SATA SSD
(Figures 2 vs 7, Figure 8). We cannot attach those devices, so the disk
manager charges a *simulated* latency to every page read that misses the
buffer pool, using a :class:`DeviceModel`:

* HDD — average seek + half-rotation latency for a random read, plus a
  transfer cost per page; consecutive page ids are detected as sequential
  and only pay transfer cost. A write (or an allocation, which writes a
  zero page) moves the head, so it breaks a sequential read run.
* SSD — flat flash random-read latency per page (no seek penalty).

Simulated time never sleeps; it accumulates in ``DiskManager.stats`` and the
benchmark harness reports it next to measured CPU time. This preserves the
paper's effect structure exactly: queries dominated by a few random page
reads (v2v) speed up dramatically on SSD, while CPU-bound queries (kNN/OTM)
do not (Figure 8).

Accounting is kept twice: ``stats`` is the global (whole-database) view and
``thread_stats()`` returns a per-thread :class:`IOStats` charged in lockstep
with it. Single-threaded code sees identical numbers in both; the concurrent
serving harness uses the per-thread view so each session's I/O attribution
stays exact even while other sessions run (see docs/OBSERVABILITY.md).

Thread safety: all page traffic reaches the disk manager through the buffer
pool, which serializes it under its own lock; the only methods intended for
direct concurrent use are the read-only stat accessors and
``thread_stats()``. Sequential-read *run* detection is tracked per thread
(:class:`_RunTracker`): each session thread is modeled as its own I/O
stream, so interleaved scans from two sessions each keep paying the
sequential rate instead of randomizing each other.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.minidb.page import PAGE_SIZE


@dataclass(frozen=True)
class DeviceModel:
    """Latency model of a secondary-storage device.

    All times are in milliseconds per *page* (8 KiB) access.
    """

    name: str
    random_read_ms: float
    sequential_read_ms: float
    write_ms: float

    def read_cost(self, sequential: bool) -> float:
        return self.sequential_read_ms if sequential else self.random_read_ms


def hdd_model() -> DeviceModel:
    """A 7200 rpm SATA disk (paper: Seagate Barracuda ST3000DM001).

    8.5 ms average seek + 4.17 ms half rotation + ~0.05 ms transfer of 8 KiB
    at ~160 MB/s for random reads; sequential reads pay transfer only.
    """
    return DeviceModel(
        name="hdd", random_read_ms=12.7, sequential_read_ms=0.05, write_ms=12.7
    )


def ssd_model() -> DeviceModel:
    """A SATA SSD (paper: Crucial MX100). ~90 us random page read."""
    return DeviceModel(
        name="ssd", random_read_ms=0.09, sequential_read_ms=0.02, write_ms=0.2
    )


def ram_model() -> DeviceModel:
    """Zero-cost device, useful for unit tests."""
    return DeviceModel(name="ram", random_read_ms=0.0, sequential_read_ms=0.0, write_ms=0.0)


@dataclass
class IOStats:
    """Counters maintained by the disk manager."""

    reads: int = 0
    writes: int = 0
    sequential_reads: int = 0
    simulated_read_ms: float = 0.0
    simulated_write_ms: float = 0.0

    def snapshot(self) -> "IOStats":
        return IOStats(
            reads=self.reads,
            writes=self.writes,
            sequential_reads=self.sequential_reads,
            simulated_read_ms=self.simulated_read_ms,
            simulated_write_ms=self.simulated_write_ms,
        )

    def delta(self, since: "IOStats") -> "IOStats":
        return IOStats(
            reads=self.reads - since.reads,
            writes=self.writes - since.writes,
            sequential_reads=self.sequential_reads - since.sequential_reads,
            simulated_read_ms=self.simulated_read_ms - since.simulated_read_ms,
            simulated_write_ms=self.simulated_write_ms - since.simulated_write_ms,
        )


# Sentinel for "no read run in progress": page -1 would make page 0 look
# sequential, so the reset value sits one further out.
_NO_RUN = -2


class _RunTracker:
    """Per-thread sequential-read run positions.

    The run a read extends is a property of the *stream* issuing it, and
    each session thread is its own stream: session A scanning pages 10..19
    and session B scanning 20..29 are two independent sequential runs (two
    actuators / two queue slots in the device model), not one interleaved
    random mess. Keying the last-read position by thread keeps each
    stream's accounting exact; single-threaded code sees one stream.
    Writes and allocations still break *every* run — the head (or flash
    translation layer) moved for all streams.
    """

    def __init__(self):
        self._last: dict[int, int] = {}

    def last(self) -> int:
        return self._last.get(threading.get_ident(), _NO_RUN)

    def advance(self, page_id: int) -> None:
        self._last[threading.get_ident()] = page_id

    def break_all(self) -> None:
        self._last.clear()


class DiskManager:
    """Page-granular file storage with device-latency accounting.

    ``path=None`` keeps pages in memory (still charging simulated latency),
    which is what tests and benchmarks use; a real path persists the
    database file on disk.
    """

    def __init__(self, path: str | None = None, device: DeviceModel | None = None):
        self.device = device or ram_model()
        self.stats = IOStats()
        self._thread_stats: dict[int, IOStats] = {}
        self._path = path
        self._runs = _RunTracker()
        if path is None:
            self._file = None
            self._pages: list[bytearray] = []
        else:
            exists = os.path.exists(path)
            self._file = open(path, "r+b" if exists else "w+b")
            self._pages = []
            self._file.seek(0, os.SEEK_END)
            size = self._file.tell()
            if size % PAGE_SIZE:
                raise StorageError(f"{path} is not page aligned ({size} bytes)")
            self._num_pages = size // PAGE_SIZE

    # -- accounting ------------------------------------------------------
    def thread_stats(self) -> IOStats:
        """The calling thread's private ``IOStats`` (created on first use).

        Charged in lockstep with the global ``stats``: the sum of all
        per-thread counters always equals the global counters, so the
        concurrency harness can both attribute I/O per session and prove
        no increment was lost.
        """
        ident = threading.get_ident()
        stats = self._thread_stats.get(ident)
        if stats is None:
            # setdefault is atomic under the GIL, so two racing first calls
            # from the same thread id cannot clobber each other.
            stats = self._thread_stats.setdefault(ident, IOStats())
        return stats

    def reset_stats(self) -> None:
        """Zero the global and every per-thread counter together."""
        self.stats = IOStats()
        self._thread_stats.clear()

    def reset_access_history(self) -> None:
        """Forget every sequential-read run (a restart / cold cache would).

        Public on purpose: the buffer pool's ``clear()`` must reset it and
        should not reach into private attributes to do so.
        """
        self._runs.break_all()

    def _charge_read(self, sequential: bool) -> None:
        cost = self.device.read_cost(sequential)
        for stats in (self.stats, self.thread_stats()):
            stats.reads += 1
            if sequential:
                stats.sequential_reads += 1
            stats.simulated_read_ms += cost

    def _charge_write(self) -> None:
        for stats in (self.stats, self.thread_stats()):
            stats.writes += 1
            stats.simulated_write_ms += self.device.write_ms

    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        if self._file is None:
            return len(self._pages)
        return self._num_pages

    def allocate(self) -> int:
        """Append a zeroed page, returning its id.

        Allocation *is* a page write — the file-backed mode physically
        writes the zero page — so it is charged as one in both modes;
        otherwise bulk-load write counts would diverge between in-memory
        and file-backed runs. Like any write, it also breaks a sequential
        read run.
        """
        self._charge_write()
        self._runs.break_all()
        if self._file is None:
            self._pages.append(bytearray(PAGE_SIZE))
            return len(self._pages) - 1
        page_id = self._num_pages
        self._file.seek(page_id * PAGE_SIZE)
        self._file.write(b"\0" * PAGE_SIZE)
        self._num_pages += 1
        return page_id

    def read_page(self, page_id: int) -> bytearray:
        """Fetch a page from the device, charging simulated latency."""
        self._check(page_id)
        sequential = page_id == self._runs.last() + 1
        self._runs.advance(page_id)
        self._charge_read(sequential)
        if self._file is None:
            return bytearray(self._pages[page_id])
        self._file.seek(page_id * PAGE_SIZE)
        return bytearray(self._file.read(PAGE_SIZE))

    def read_run(self, page_ids) -> list[bytearray]:
        """Fetch several pages as **one** sequential run (readahead).

        The buffer pool's prefetch path sorts the page ids ascending and
        hands them here in one call, modeling a single multi-page device
        request: the first page pays random latency unless it extends the
        run already in progress, and every later page in the batch is
        charged sequential cost — ascending ids inside one request never
        seek, even across small gaps (the head passes over skipped pages
        anyway; an elevator pass, not N independent reads). This is what
        makes a heap scan under readahead pay the device's sequential rate,
        matching the paper's sequential-vs-random effect structure.
        """
        buffers = []
        for position, page_id in enumerate(page_ids):
            self._check(page_id)
            if position == 0:
                sequential = page_id == self._runs.last() + 1
            else:
                sequential = page_id > self._runs.last()
            self._runs.advance(page_id)
            self._charge_read(sequential)
            if self._file is None:
                buffers.append(bytearray(self._pages[page_id]))
            else:
                self._file.seek(page_id * PAGE_SIZE)
                buffers.append(bytearray(self._file.read(PAGE_SIZE)))
        return buffers

    def write_page(self, page_id: int, buf: bytearray | bytes) -> None:
        self._check(page_id)
        if len(buf) != PAGE_SIZE:
            raise StorageError("short page write")
        self._charge_write()
        # A write moves the head: two reads interleaved with it are *not*
        # one sequential run, so every thread's run restarts from scratch.
        self._runs.break_all()
        if self._file is None:
            self._pages[page_id] = bytearray(buf)
        else:
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(buf)

    # -- recovery primitives --------------------------------------------
    # Used by the write-ahead log only (replay at open, undo-image capture).
    # They bypass the device model and every counter on purpose: recovery
    # happens before serving starts, so charging it would pollute the
    # measured I/O the reproduction exists to report.

    def peek_page(self, page_id: int) -> bytes:
        """Raw page bytes without latency accounting or run tracking."""
        self._check(page_id)
        if self._file is None:
            return bytes(self._pages[page_id])
        self._file.seek(page_id * PAGE_SIZE)
        return self._file.read(PAGE_SIZE)

    def apply_image(self, page_id: int, buf: bytes) -> None:
        """Raw page write without latency accounting (WAL redo)."""
        self._check(page_id)
        if len(buf) != PAGE_SIZE:
            raise StorageError("short page image")
        if self._file is None:
            self._pages[page_id] = bytearray(buf)
        else:
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(buf)

    def ensure_pages(self, count: int) -> None:
        """Grow the file with zero pages until it holds >= *count* pages.

        Defensive: allocations are written physically at allocate time, so
        a replayed file normally already spans every committed page."""
        while self.num_pages < count:
            if self._file is None:
                self._pages.append(bytearray(PAGE_SIZE))
            else:
                self._file.seek(self._num_pages * PAGE_SIZE)
                self._file.write(b"\0" * PAGE_SIZE)
                self._num_pages += 1

    def sync(self) -> None:
        """Flush the OS buffers to stable storage (no-op in memory)."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < self.num_pages:
            raise StorageError(
                f"page id {page_id} out of range (file has {self.num_pages} pages)"
            )
