"""Dynamic concurrency sanitizer: latch-order and pin-discipline tracking.

The storage layer's concurrency rules (docs/SANITIZER.md) are written down
in the ``buffer``/``latch``/``heap`` docstrings but, in normal operation,
never checked — a pin leaked by one statement or a latch taken in the wrong
order only surfaces as a hang or a corrupted benchmark number much later.
This module is the debug mode that checks them as they happen.

Enable with ``SANITIZE=1`` in the environment (read once at import) or
programmatically via :func:`enable`/:func:`disable`. While enabled, the
hooks that :mod:`~repro.minidb.latch` and :mod:`~repro.minidb.buffer` call
on every acquire/release/pin/unpin record, per thread:

* the set of latches currently held (with the acquisition stack of each),
* a global latch-acquisition graph — an edge A→B means "some thread
  acquired B while holding A". A cycle in that graph is a lock-order
  inversion: two threads interleaving those orders can deadlock. The edge
  that closes a cycle raises :class:`~repro.errors.SanitizerError` carrying
  *both* acquisition stacks (the one creating the edge and the recorded
  stack of the conflicting order).
* every outstanding buffer-pool pin (with the stack of the ``pin()`` /
  ``new_page()`` call that took it), checked back to zero at statement end.

Violations raise :class:`~repro.errors.SanitizerError` with a stable
``SAND*`` code:

========  =============================================================
SAND01    lock-order inversion (cycle in the latch-acquisition graph)
SAND02    pin leak: pins still held by this thread at statement end
SAND03    unpin of a page this thread never pinned
SAND04    page mutated (``mark_dirty``) without holding its write latch
SAND05    self-deadlock: read→write upgrade (or re-entrant write) on one
          latch in one thread
SAND06    eviction victim's latch is still held (pin-while-latched rule
          was broken by whoever held it)
========  =============================================================

When disabled (the default), every hook site is a single ``TRACKER is not
None`` check — measured overhead on the 4-thread serving driver of the
time (removed in PR 18) was well under the 10% budget (see
docs/SANITIZER.md).

This module deliberately imports nothing from the rest of minidb, so the
latch and buffer layers can hook into it without import cycles.
"""

from __future__ import annotations

import os
import threading
import traceback
import weakref

from repro.errors import SanitizerError

__all__ = [
    "SanitizerError",
    "Tracker",
    "enable",
    "disable",
    "enabled",
    "TRACKER",
]

#: Frames of context kept per recorded acquisition stack.
_STACK_DEPTH = 12
#: Internal modules skipped when attributing a pin/latch to its call site.
_SKIP_FRAMES = ("sanitize/dynamic.py",)


def _capture_stack(label: str) -> str:
    """A formatted, trimmed stack for *label*, innermost call last."""
    frames = traceback.extract_stack()
    trimmed = [
        frame
        for frame in frames
        if not any(skip in frame.filename for skip in _SKIP_FRAMES)
    ][-_STACK_DEPTH:]
    body = "".join(traceback.format_list(trimmed))
    return f"--- {label} ---\n{body.rstrip()}"


class _ThreadState(threading.local):
    """Per-thread held-latch list and outstanding-pin table."""

    def __init__(self):
        #: list of (latch_key, mode, stack) in acquisition order.
        self.held = []
        #: page_id -> list of acquisition stacks (one per outstanding pin).
        self.pins = {}


class Tracker:
    """The sanitizer state shared by every hooked latch and pool."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = _ThreadState()
        #: latch-acquisition graph: from_key -> {to_key: (stack_a, stack_b)}
        #: where stack_a acquired *from* and stack_b acquired *to* while
        #: holding it (the pair that established the edge, kept for reports).
        self._edges: dict[int, dict[int, tuple[str, str]]] = {}
        #: latch_key -> human name ("page:17", "stmt"), for reports.
        self._names: dict[int, str] = {}
        #: keys with a live finalizer attached — see :meth:`_watch`.
        self._watched: set[int] = set()

    def _watch(self, latch, key: int) -> None:
        """Purge *key*'s graph entries when *latch* is collected.

        Keys are ``id()`` values, and CPython recycles addresses: once a
        latch dies (a closed/GC'd ``Database``), a brand-new latch can
        alias its key and inherit stale edges — a false lock-order
        inversion against ordering the new latch never took part in.
        Caller holds ``self._lock``.
        """
        if key in self._watched:
            return
        try:
            weakref.finalize(latch, self._forget, key)
        except TypeError:
            return  # not weakref-able: tracked, but never purged
        self._watched.add(key)

    def _forget(self, key: int) -> None:
        with self._lock:
            self._watched.discard(key)
            self._edges.pop(key, None)
            for edges in self._edges.values():
                edges.pop(key, None)
            self._names.pop(key, None)

    # -- latch hooks -----------------------------------------------------
    def before_acquire(self, latch, mode: str) -> None:
        """Called by ``RWLatch.acquire_*`` before it may block."""
        key = id(latch)
        name = getattr(latch, "name", "latch")
        held = self._local.held
        for held_key, held_mode, held_stack in held:
            if held_key == key and (mode == "write" or held_mode == "write"):
                raise SanitizerError(
                    "SAND05",
                    f"self-deadlock: thread already holds latch {name} "
                    f"for {held_mode} and is acquiring it for {mode} "
                    "(the latch is non-reentrant, this never completes)",
                    traces=[held_stack, _capture_stack(f"{mode} acquire")],
                )
        if any(k == key for k, _, _ in held):
            # Re-entrant read of a latch this thread already holds: it can
            # never block (readers only wait on a *held* writer), so it
            # contributes no ordering edge.
            return
        if not held:
            return
        acquire_stack = _capture_stack(f"{mode} acquire of {name}")
        with self._lock:
            self._watch(latch, key)
            self._names[key] = name
            for held_key, _, held_stack in held:
                if held_key == key:
                    continue
                self._names.setdefault(held_key, "latch")
                edges = self._edges.setdefault(held_key, {})
                if key not in edges:
                    edges[key] = (held_stack, acquire_stack)
                # Inversion: an existing path key -> ... -> held_key means
                # some other order already acquired held_key under key.
                path = self._find_path(key, held_key)
                if path is not None:
                    first_hop = self._edges[path[0]][path[1]]
                    raise SanitizerError(
                        "SAND01",
                        "lock-order inversion: this thread acquires "
                        f"{name} while holding "
                        f"{self._names.get(held_key, 'latch')}, but the "
                        "opposite order "
                        f"({self._names.get(path[0], 'latch')} -> "
                        f"{self._names.get(path[1], 'latch')}) was "
                        "recorded earlier — the two interleaved can "
                        "deadlock",
                        traces=[held_stack, acquire_stack, first_hop[1]],
                    )

    def _find_path(self, src: int, dst: int) -> list[int] | None:
        """A node path src -> ... -> dst in the edge graph, else None."""
        # Caller holds self._lock. The graph stays tiny (one node per
        # distinct latch ever held nested), so DFS is plenty.
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            for nxt in self._edges.get(node, ()):
                if nxt == dst:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def after_acquire(self, latch, mode: str) -> None:
        """Called by ``RWLatch.acquire_*`` once the latch is held."""
        name = getattr(latch, "name", "latch")
        key = id(latch)
        with self._lock:
            # Every latch that can appear as a held_key in the edge graph
            # passes through here first, so watch it now (before_acquire
            # returns early for the outermost latch and never sees it).
            self._watch(latch, key)
        self._local.held.append(
            (key, mode, _capture_stack(f"{mode} acquire of {name}"))
        )

    def on_release(self, latch, mode: str) -> None:
        held = self._local.held
        key = id(latch)
        for index in range(len(held) - 1, -1, -1):
            if held[index][0] == key and held[index][1] == mode:
                del held[index]
                return
        # A release without a tracked acquire: the latch itself raises on
        # double release, so only cross-thread releases reach this branch.

    # -- pin hooks -------------------------------------------------------
    def on_pin(self, page_id: int) -> None:
        pins = self._local.pins
        pins.setdefault(page_id, []).append(
            _capture_stack(f"pin of page {page_id}")
        )

    def on_unpin(self, page_id: int) -> None:
        stacks = self._local.pins.get(page_id)
        if not stacks:
            raise SanitizerError(
                "SAND03",
                f"unpin of page {page_id} which this thread never pinned",
                traces=[_capture_stack(f"unpin of page {page_id}")],
            )
        stacks.pop()
        if not stacks:
            del self._local.pins[page_id]

    def check_statement_end(self) -> None:
        """Raise if the calling thread still holds any pins.

        Sessions call this as each statement finishes: every pin a
        statement takes must be released before it returns (the
        ``buffer.py`` invariant), and the per-thread table attributes the
        leak to the call site that took the pin. The table is cleared so
        one leak does not poison every later statement on the thread.
        """
        pins = self._local.pins
        if not pins:
            return
        leaked = {pid: list(stacks) for pid, stacks in pins.items()}
        pins.clear()
        count = sum(len(stacks) for stacks in leaked.values())
        pages = ", ".join(str(pid) for pid in sorted(leaked))
        traces = [stack for stacks in leaked.values() for stack in stacks]
        raise SanitizerError(
            "SAND02",
            f"pin leak: {count} pin(s) on page(s) {pages} still held at "
            "statement end",
            traces=traces,
        )

    def drop_thread_pins(self) -> None:
        """Forget the calling thread's recorded pins without raising.

        Used when a statement dies with an unrelated exception: the primary
        error wins, and stale entries must not poison the next statement's
        leak check on this thread.
        """
        self._local.pins.clear()

    def thread_pin_count(self) -> int:
        """Outstanding pins recorded for the calling thread."""
        return sum(len(stacks) for stacks in self._local.pins.values())

    # -- buffer-pool hooks ----------------------------------------------
    def on_mark_dirty(self, page_id: int, latch) -> None:
        """``mark_dirty`` requires the calling thread to hold the frame's
        write latch — mutating shared page content under a read latch (or
        none) is exactly the race the latch exists to prevent."""
        holders = latch.holders()
        if holders["writer"] != threading.get_ident():
            raise SanitizerError(
                "SAND04",
                f"page {page_id} marked dirty without holding its write "
                f"latch (writer={holders['writer']}, "
                f"readers={holders['readers']})",
                traces=[_capture_stack(f"mark_dirty of page {page_id}")],
            )

    def on_evict(self, page_id: int, latch) -> None:
        """An eviction victim has pins == 0; its latch must be free too
        (callers hold a pin while latched, so a held latch here means that
        rule was broken somewhere upstream)."""
        holders = latch.holders()
        if holders["writer"] is not None or holders["readers"]:
            raise SanitizerError(
                "SAND06",
                f"evicting page {page_id} whose latch is still held "
                f"(writer={holders['writer']}, "
                f"readers={holders['readers']}) — a latch was taken "
                "without a pin",
                traces=[_capture_stack(f"eviction of page {page_id}")],
            )


#: The active tracker, or ``None`` when the sanitizer is off. Hook sites
#: read this once per call; keeping it a module global makes the disabled
#: path one attribute load + ``is not None``.
TRACKER: Tracker | None = None


def enable() -> Tracker:
    """Turn the sanitizer on (idempotent); returns the active tracker."""
    global TRACKER
    if TRACKER is None:
        TRACKER = Tracker()
    return TRACKER


def disable() -> None:
    """Turn the sanitizer off and drop all recorded state."""
    global TRACKER
    TRACKER = None


def enabled() -> bool:
    return TRACKER is not None


if os.environ.get("SANITIZE", "") not in ("", "0"):
    enable()
