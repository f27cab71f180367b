"""Reader–writer latches for the storage layer.

Two users:

* :class:`~repro.minidb.buffer.BufferPool` keeps one :class:`RWLatch` per
  resident frame, built over the pool's own lock, so page content can be
  read by many threads while a mutation holds the frame exclusively; its
  ``reading`` guard takes the shared side through the ``*_read_locked``
  pair, under the hold of that lock that also pins the frame.
* :class:`~repro.minidb.engine.Database` keeps a statement-level latch:
  read statements share it, DML/DDL take it exclusively (the engine's
  single-writer rule — see docs/ARCHITECTURE.md, "Concurrency model").

The latch is deliberately simple: non-reentrant, no fairness guarantees
beyond ``Condition``'s FIFO wakeups, writers wait for in-flight readers to
drain. Callers never nest two latches, which is what makes the scheme
deadlock-free (see the locking-order table in ARCHITECTURE.md) — and since
PR 7 that rule is *checked*, not just documented:

* Latches know who holds them (:meth:`RWLatch.holders`) and how many
  threads are blocked on them (:meth:`RWLatch.waiting`); contended
  acquisitions feed ``latch.wait_count`` / ``latch.wait_ms`` counters in
  :data:`repro.minidb.metrics.REGISTRY`, so latch contention shows up in
  bench snapshots instead of being invisible.
* Guaranteed self-deadlocks (a read→write upgrade, or re-acquiring the
  exclusive side) raise :class:`~repro.errors.StorageError` immediately
  instead of hanging; releasing a side the calling thread does not hold
  raises too.
* Under ``SANITIZE=1`` every acquire/release also reports to the dynamic
  sanitizer (:mod:`repro.minidb.sanitize.dynamic`), which maintains the
  cross-latch acquisition-order graph and flags inversions with both
  stacks. See docs/SANITIZER.md.

Latches are only ever taken through the :meth:`RWLatch.read` /
:meth:`RWLatch.write` / :meth:`RWLatch.guard` context managers (or the
pool's ``reading``) outside this module and ``buffer.py`` — the static
checker (``repro sanitize``, code SAN201) enforces it.
"""

from __future__ import annotations

import threading
import time

from repro.errors import StorageError
from repro.minidb.metrics import REGISTRY
from repro.minidb.sanitize import dynamic as _san


class _Guard:
    """Stateless ``with``-guard for one side of one latch, returned by every
    :meth:`RWLatch.read` / :meth:`RWLatch.write` call: the latch's counts
    hold the per-acquisition state, so reusing it across concurrent/nested
    blocks is safe and the hot path allocates nothing."""

    __slots__ = ("_latch", "_acquire", "_release")

    def __init__(self, latch: "RWLatch", acquire, release):
        self._latch = latch
        self._acquire = acquire
        self._release = release

    def __enter__(self):
        self._acquire()
        return self._latch

    def __exit__(self, exc_type, exc, tb):
        self._release()
        return False


class RWLatch:
    """A shared/exclusive lock: many readers or one writer.

    ``name`` labels the latch in diagnostics and metrics; its prefix before
    the first ``:`` groups the wait counters (so every frame latch named
    ``page:<id>`` lands in ``latch.page.wait_ms`` while the statement latch
    feeds ``latch.stmt.wait_ms``).
    """

    __slots__ = (
        "_cond",
        "_readers",
        "_writer",
        "_read_guard",
        "_write_guard",
        "name",
        "_kind",
        "_reader_idents",
        "_writer_ident",
        "_waiting",
        # The dynamic sanitizer watches latch lifetime with weakrefs so a
        # collected latch's id cannot alias stale edges in its graph.
        "__weakref__",
    )

    def __init__(self, name: str = "latch", lock=None):
        # The buffer pool passes its own *lock*: pin + latch, one acquisition.
        self._cond = threading.Condition(lock or threading.Lock())
        self._readers = 0
        self._writer = False
        self._read_guard = _Guard(self, self.acquire_read, self.release_read)
        self._write_guard = _Guard(self, self.acquire_write, self.release_write)
        self.name = name
        self._kind = name.split(":", 1)[0]
        #: thread ident -> number of read holds (re-entrant reads stack).
        self._reader_idents: dict[int, int] = {}
        self._writer_ident: int | None = None
        self._waiting = 0

    # -- shared (read) side ---------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            self.acquire_read_locked(threading.get_ident())

    def release_read(self) -> None:
        with self._cond:
            self.release_read_locked(threading.get_ident())

    def acquire_read_locked(self, ident: int) -> None:
        """:meth:`acquire_read` for a caller already holding the latch's
        lock (the buffer pool's read guard); blocks while a writer holds
        the latch, releasing that lock as it waits."""
        tracker = _san.TRACKER
        if tracker is not None:
            tracker.before_acquire(self, "read")
        if self._writer:
            if self._writer_ident == ident:
                raise StorageError(
                    f"latch {self.name!r}: acquire_read while this thread "
                    "holds the write side (self-deadlock)"
                )
            self._wait_contended(lambda: not self._writer)
        self._readers += 1
        idents = self._reader_idents
        idents[ident] = idents.get(ident, 0) + 1
        if tracker is not None:
            tracker.after_acquire(self, "read")

    def release_read_locked(self, ident: int) -> None:
        """:meth:`release_read` under the already-held lock."""
        idents = self._reader_idents
        held = idents.get(ident, 0)
        if held <= 0:
            raise StorageError(
                f"latch {self.name!r}: release_read without a matching "
                "acquire_read on this thread (double release?)"
            )
        if held == 1:
            del idents[ident]
        else:
            idents[ident] = held - 1
        self._readers -= 1
        if self._waiting and not self._readers:
            self._cond.notify_all()
        tracker = _san.TRACKER
        if tracker is not None:
            tracker.on_release(self, "read")

    # -- exclusive (write) side -----------------------------------------
    def acquire_write(self) -> None:
        tracker = _san.TRACKER
        if tracker is not None:
            tracker.before_acquire(self, "write")
        ident = threading.get_ident()
        with self._cond:
            if self._writer_ident == ident:
                raise StorageError(
                    f"latch {self.name!r}: acquire_write while this thread "
                    "already holds the write side (self-deadlock)"
                )
            if self._reader_idents.get(ident, 0):
                raise StorageError(
                    f"latch {self.name!r}: read->write upgrade attempted "
                    "(this thread holds the read side; the write side "
                    "waits for all readers, so it can never be granted)"
                )
            if self._writer or self._readers:
                self._wait_contended(
                    lambda: not self._writer and not self._readers
                )
            self._writer = True
            self._writer_ident = ident
        if tracker is not None:
            tracker.after_acquire(self, "write")

    def release_write(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            if not self._writer or self._writer_ident != ident:
                raise StorageError(
                    f"latch {self.name!r}: release_write without holding "
                    "the write side on this thread (double release?)"
                )
            self._writer = False
            self._writer_ident = None
            self._cond.notify_all()
        tracker = _san.TRACKER
        if tracker is not None:
            tracker.on_release(self, "write")

    # -- blocking + contention accounting --------------------------------
    def _wait_contended(self, granted) -> None:
        """Block until *granted*; charge the wait to the metrics registry.

        Caller holds ``self._cond``. Only contended acquisitions reach this
        (the uncontended fast path never touches the registry), and the
        counters are bumped while the condition lock is still held, so the
        increments cannot race.
        """
        self._waiting += 1
        started = time.perf_counter()
        try:
            while not granted():
                self._cond.wait()
        finally:
            self._waiting -= 1
        waited_ms = (time.perf_counter() - started) * 1000.0
        REGISTRY.counter("latch.wait_count").inc()
        REGISTRY.counter("latch.wait_ms").inc(waited_ms)
        REGISTRY.counter(f"latch.{self._kind}.wait_count").inc()
        REGISTRY.counter(f"latch.{self._kind}.wait_ms").inc(waited_ms)

    # -- introspection ----------------------------------------------------
    def holders(self) -> dict:
        """Who holds the latch right now.

        ``{"readers": {thread_ident: hold_count}, "writer": ident | None}``
        — a consistent snapshot taken under the latch's own condition lock.
        Used by the dynamic sanitizer (mutation-without-write-latch and
        eviction checks) and handy in a debugger.
        """
        with self._cond:
            return {
                "readers": dict(self._reader_idents),
                "writer": self._writer_ident,
            }

    def waiting(self) -> int:
        """How many threads are currently blocked on this latch."""
        with self._cond:
            return self._waiting

    def held(self) -> bool:
        """Whether any thread holds either side right now."""
        with self._cond:
            return self._writer or self._readers > 0

    # -- context managers ------------------------------------------------
    def read(self):
        """``with latch.read():`` — hold the shared side for the block."""
        return self._read_guard

    def write(self):
        """``with latch.write():`` — hold the exclusive side for the block."""
        return self._write_guard

    def guard(self, write: bool):
        """The guard for one side, picked at runtime.

        ``with latch.guard(write=is_dml):`` is how the session layer takes
        the statement latch without spelling bare ``acquire_*`` calls (the
        static checker forbids those outside this module).
        """
        return self._write_guard if write else self._read_guard

    def __repr__(self) -> str:
        with self._cond:
            state = (
                "write-held"
                if self._writer
                else f"readers={self._readers}" if self._readers else "free"
            )
            return f"RWLatch({self.name!r}, {state}, waiting={self._waiting})"
