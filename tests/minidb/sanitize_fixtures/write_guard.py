"""Fixture: ``pool.writing(pid)`` is a latch guard like any other.

It holds the exclusive side of the page's latch, so any guard on the same
page inside it self-deadlocks (SAN203) and a ``yield`` inside it keeps the
latch across the suspension (SAN202).
"""


class Writer:
    def __init__(self, pool):
        self.pool = pool

    def write_then_read(self, page_id):
        with self.pool.writing(page_id) as page:
            page.next_page = -1
            with self.pool.reading(page_id):  # SAN203: the write side is held
                pass

    def stamped(self, page_id):
        with self.pool.writing(page_id) as page:
            for slot in range(page.slot_count):
                yield slot  # SAN202: latch held across yield

    def guarded(self, page_id, new_id):
        with self.pool.reading(page_id) as page:  # clean: one after the other
            kind = page.kind
        with self.pool.writing(page_id) as page:
            page.next_page = new_id
            with self.pool.writing(new_id, pinned=True) as new:  # clean
                new.next_page = kind
