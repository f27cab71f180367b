"""Fixture: nested guards on the same latch expression -> SAN203.

A read->write upgrade on a non-reentrant reader-writer latch can never be
granted: the writer waits for readers to drain, and this thread *is* one
of the readers.
"""


class Upgrader:
    def __init__(self, pool):
        self.pool = pool

    def read_then_write(self, page_id):
        with self.pool.latch(page_id).read():
            value = self.pool.get(page_id).kind
            with self.pool.latch(page_id).write():  # SAN203: self-deadlock
                self.pool.get(page_id).next_page = -1
        return value
