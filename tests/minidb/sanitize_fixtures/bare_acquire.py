"""Fixture: raw latch acquire/release outside latch.py -> SAN201."""


class Mutator:
    def __init__(self, pool):
        self.pool = pool

    def bump(self, page_id, latch):
        latch.acquire_write()  # SAN201: bare acquire
        try:
            self.pool.get(page_id).next_page = -1
        finally:
            latch.release_write()  # SAN201: bare release

    def glance(self, latch):
        latch.acquire_read()  # SAN201: unbalanced on exception paths
        value = 1
        latch.release_read()  # SAN201
        return value
