"""Fixture: ``pool.reading(pid)`` is a latch guard like any other.

It holds the shared side of the page's latch, so an upgrade inside it
self-deadlocks (SAN203) and a ``yield`` inside it keeps the latch across
the suspension (SAN202); taking the shared side by hand instead of through
the guard is still SAN201 — also in the lock-held form the pool itself
uses.
"""


class Reader:
    def __init__(self, pool):
        self.pool = pool

    def read_then_write(self, page_id):
        with self.pool.reading(page_id) as page:
            with self.pool.latch(page_id).write():  # SAN203: upgrade
                self.pool.mark_dirty(page_id)
        return page.kind

    def cells(self, page_id):
        with self.pool.reading(page_id) as page:
            for slot in range(page.slot_count):
                yield page.read(slot)  # SAN202: latch held across yield

    def by_hand(self, page_id, ident):
        latch = self.pool.latch(page_id)
        latch.acquire_read()  # SAN201: not the guard
        kind = self.pool.get(page_id).kind
        latch.release_read()  # SAN201
        latch.acquire_read_locked(ident)  # SAN201: the pool's own form
        latch.release_read_locked(ident)  # SAN201
        return kind

    def guarded(self, page_id, other):
        with self.pool.reading(page_id) as page:  # clean
            kind = page.kind
        with self.pool.reading(page_id):  # clean: distinct pages
            with self.pool.reading(other):
                pass
        return kind
